package bgp

import (
	"reflect"
	"testing"

	"stateowned/internal/world"
)

// A warmed-up kernel propagates an origin and walks its monitors' paths
// without allocating: every buffer is sized to the graph once.
func TestKernelAllocationFree(t *testing.T) {
	k := newKernel(testG)
	monIdx := monitorIndex(testG, SelectMonitors(testW, testG, 20))
	origins := testG.ASes()[:16]
	buf := make([]int32, 0, 1024)
	round := func() {
		for _, o := range origins {
			oIdx, _ := testG.Index(o)
			k.run(oIdx, 0, nil)
			buf = buf[:0]
			for _, i := range monIdx {
				buf, _ = walk(k.routes, i, buf)
			}
		}
	}
	round() // warm up
	if allocs := testing.AllocsPerRun(5, round); allocs != 0 {
		t.Fatalf("warmed kernel allocated %.1f times per round of %d origins, want 0", allocs, len(origins))
	}
}

// The arena collection must agree with the one-shot oracle path by
// path, for every worker count.
func TestCollectPathsMatchesPropagate(t *testing.T) {
	monitors := SelectMonitors(testW, testG, 20)
	origins := append([]world.ASN{4294967294}, testG.ASes()...) // one origin outside the graph
	for _, workers := range []int{1, 2, 4} {
		mp := CollectPaths(testG, monitors, origins, workers)
		for _, o := range origins {
			view := Propagate(testG, o)
			for mi, m := range monitors {
				var want []world.ASN
				if view != nil {
					want = view.Path(m.AS)
				}
				if got := mp.Path(mi, o); !reflect.DeepEqual(got, want) {
					t.Fatalf("workers %d origin AS%d monitor %s: arena %v, Propagate %v", workers, o, m.ID, got, want)
				}
			}
		}
	}
}

// ReplayPaths re-backs external paths by the same arena and reads them
// back unchanged.
func TestReplayPathsRoundTrip(t *testing.T) {
	monitors := []Monitor{{ID: "a", AS: 10}, {ID: "b", AS: 20}}
	paths := []map[world.ASN][]world.ASN{
		{1: {10, 5, 1}, 2: {10, 2}},
		{1: {20, 1}, 3: {20, 7, 8, 3}},
	}
	mp := ReplayPaths(monitors, paths)
	for mi := range monitors {
		for _, o := range []world.ASN{1, 2, 3, 4} {
			if got, want := mp.Path(mi, o), paths[mi][o]; !reflect.DeepEqual(got, want) {
				t.Errorf("monitor %d origin %d: %v, want %v", mi, o, got, want)
			}
		}
	}
}

// Honest strips the overlay and nothing else.
func TestHonestDropsOverlay(t *testing.T) {
	victim, hijacker := pickCampaign(t)
	monitors := SelectMonitors(testW, testG, 30)
	origins := testG.ASes()[:40]
	origins = append(origins, victim)
	base := CollectPaths(testG, monitors, origins, 2)
	adv := &Adversary{Campaigns: []Campaign{{Kind: SubPrefix, Victim: victim, Hijacker: hijacker}}}
	over := base.Overlay(adv, 2)
	if over == base {
		t.Fatal("active adversary returned the honest set")
	}
	honest := over.Honest()
	differs := false
	for mi := range monitors {
		for _, o := range origins {
			if !reflect.DeepEqual(honest.Path(mi, o), base.Path(mi, o)) {
				t.Fatalf("Honest() monitor %d origin AS%d differs from the base collection", mi, o)
			}
			if !reflect.DeepEqual(over.Path(mi, o), base.Path(mi, o)) {
				differs = true
			}
		}
	}
	if !differs {
		t.Error("the overlay changed no path; test is vacuous")
	}
}
