package stateowned

import (
	"bytes"
	"fmt"
	"io"
	"net/http/httptest"
	"reflect"
	"testing"

	"stateowned/internal/bgp"
	"stateowned/internal/churn"
	"stateowned/internal/graph"
	"stateowned/internal/hijack"
	"stateowned/internal/runner"
	"stateowned/internal/serve"
)

// The routing node's artifact is the one valley-free propagation every
// consumer reads. These tests hold it to the one-shot oracle path by
// path, pin the monitor set it is observed from in every CTI mode, pin
// the graph plane's bytes against a compile that propagates on its own,
// and count the propagations a build runs.

const routingScale = 0.08

// assertRoutingMatchesPropagate checks every (origin, monitor) path of
// the run's routing artifact against bgp.Propagate, and the artifact's
// monitor set against the one the graph plane observes from.
func assertRoutingMatchesPropagate(t *testing.T, label string, res *Result) {
	t.Helper()
	if res.routing == nil {
		t.Fatalf("%s: no routing artifact", label)
	}
	rt := res.routing.paths
	want := res.Monitors
	if want == nil {
		want = bgp.SelectMonitors(res.World, res.Topology, res.Config.Monitors)
	}
	if !reflect.DeepEqual(rt.Monitors, want) {
		t.Fatalf("%s: artifact observed from %d monitors, want the graph's %d", label, len(rt.Monitors), len(want))
	}
	reached := 0
	for _, origin := range res.Topology.ASes() {
		view := bgp.Propagate(res.Topology, origin)
		for mi, m := range rt.Monitors {
			got, exp := rt.Path(mi, origin), view.Path(m.AS)
			if !reflect.DeepEqual(got, exp) {
				t.Fatalf("%s: origin AS%d monitor %s: artifact %v, Propagate %v", label, origin, m.ID, got, exp)
			}
			if got != nil {
				reached++
			}
		}
	}
	if reached == 0 {
		t.Fatalf("%s: no monitor reaches any origin; comparison is vacuous", label)
	}
}

func TestRoutingArtifactMatchesPropagate(t *testing.T) {
	for _, seed := range []uint64{7, 21, 42} {
		for _, workers := range []int{1, 2, 4} {
			res := Run(Config{Seed: seed, Scale: routingScale, Workers: workers})
			if res.Monitors == nil {
				t.Fatalf("seed %d: CTI selected no monitor set", seed)
			}
			assertRoutingMatchesPropagate(t, fmt.Sprintf("seed %d workers %d", seed, workers), res)
		}
	}
	res := Run(Config{Seed: 42, Scale: routingScale, DisableCTI: true, Workers: 2})
	if res.Monitors != nil {
		t.Fatal("DisableCTI run published a monitor set")
	}
	assertRoutingMatchesPropagate(t, "DisableCTI", res)

	belowQuorum(t, func(res *Result) { assertRoutingMatchesPropagate(t, "below quorum", res) })
}

// belowQuorum finds a chaos episode whose monitor outages leave CTI
// below quorum and hands its run to check.
func belowQuorum(t *testing.T, check func(*Result)) {
	t.Helper()
	for chaos := uint64(1); chaos <= 32; chaos++ {
		res := Run(Config{Seed: 42, Scale: routingScale, Monitors: 2, ChaosSeverity: 1, ChaosSeed: chaos, Workers: 2})
		if res.Monitors == nil {
			check(res)
			return
		}
	}
	t.Fatal("no chaos seed in 1..32 drops the monitor set below quorum")
}

// graphSource serves one compiled graph as a static generation.
type graphSource struct{ view serve.View }

func (s *graphSource) Current() *serve.View { return &s.view }
func (s *graphSource) Generation(int) (*serve.View, serve.GenStatus) {
	return &s.view, serve.GenOK
}
func (s *graphSource) Diff(_, _ *serve.View) (*churn.Audit, bool) { return nil, false }
func (s *graphSource) ReloadStatus() serve.ReloadStatus           { return serve.ReloadStatus{} }

// upstreamsBytes renders /v1/graph/upstreams for a sample of ASes.
func upstreamsBytes(t *testing.T, res *Result, g *graph.Graph) []byte {
	t.Helper()
	srv := serve.NewDynamic(&graphSource{view: serve.View{Index: res.Index(), Graph: g}}, serve.Options{})
	var out bytes.Buffer
	asns := res.Topology.ASes()
	for i := 0; i < len(asns); i += len(asns)/64 + 1 {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/v1/graph/upstreams/%d", asns[i]), nil))
		if rec.Code != 200 {
			t.Fatalf("upstreams/%d: status %d", asns[i], rec.Code)
		}
		body, _ := io.ReadAll(rec.Body)
		out.Write(body)
	}
	return out.Bytes()
}

// TestGraphFromRoutingArtifactBytes pins the graph plane compiled from
// the shared artifact — honest rows only, even under the adversary —
// byte-for-byte against graph.Build propagating on its own, across the
// canonical-monitor fallbacks too.
func TestGraphFromRoutingArtifactBytes(t *testing.T) {
	check := func(label string, res *Result) {
		t.Helper()
		monitors := res.Monitors
		if monitors == nil {
			monitors = bgp.SelectMonitors(res.World, res.Topology, res.Config.Monitors)
		}
		if res.routing == nil || !reflect.DeepEqual(res.routing.paths.Monitors, monitors) {
			t.Fatalf("%s: the graph compile would not read the routing artifact from the run's monitor set", label)
		}
		shared := res.Graph()
		if res.routing != nil {
			t.Errorf("%s: Graph kept its reference to the routing artifact", label)
		}
		alone := graph.Build(res.Topology, monitors, res.AS2Org, 1)
		if !bytes.Equal(upstreamsBytes(t, res, shared), upstreamsBytes(t, res, alone)) {
			t.Errorf("%s: /v1/graph/upstreams bytes differ from a build without the artifact", label)
		}
	}
	for _, seed := range []uint64{7, 21, 42} {
		check(fmt.Sprintf("seed %d", seed), Run(Config{Seed: seed, Scale: routingScale, Workers: 2}))
	}
	check("DisableCTI", Run(Config{Seed: 42, Scale: routingScale, DisableCTI: true, Workers: 2}))
	check("hijack", Run(Config{Seed: 42, Scale: routingScale, HijackSeverity: 0.75, Workers: 2}))
	belowQuorum(t, func(res *Result) { check("below quorum", res) })
}

// TestOnePropagationPerAS pins the routing cost of a build: one honest
// propagation per AS, plus one per campaign victim when the adversary
// is on, and none at all in the graph compile.
func TestOnePropagationPerAS(t *testing.T) {
	for _, severity := range []float64{0, 0.75} {
		cfg := Config{Seed: 42, Scale: routingScale, HijackSeverity: severity, Workers: 2}
		before := bgp.HonestPropagations()
		res := Run(cfg)
		res.Graph()
		got := bgp.HonestPropagations() - before

		want := uint64(res.Topology.NumASes())
		if severity > 0 {
			victims := hijack.NewPlan(res.World, res.Topology, hijackConfig(cfg)).Victims()
			if len(victims) == 0 {
				t.Fatal("severity 0.75 planned no campaigns; test is vacuous")
			}
			for _, v := range victims {
				if res.Topology.Active(v) {
					want++
				}
			}
		}
		if got != want {
			t.Errorf("severity %.2f: build ran %d honest propagations, want %d", severity, got, want)
		}
	}
}

// A panicking routing node degrades CTI, like any failed source: the
// bgp feed goes unavailable and CTI contributes no picks, the hijack
// report is empty with no vantage points, and the graph plane
// propagates on its own from the canonical monitor set, matching a
// healthy run's bytes.
func TestRoutingPanicDegradesCTI(t *testing.T) {
	cfg := Config{Seed: 42, Scale: routingScale, HijackSeverity: 0.75, Workers: 2}
	healthy := Run(cfg)
	withBuildHook(t, func(node string) {
		if node == "routing" {
			panic("injected routing failure")
		}
	})
	broken := Run(cfg)
	if broken.routing != nil {
		t.Fatal("panicked routing node left an artifact")
	}
	if row := sourceRow(t, broken.Health, "bgp"); row.Status != runner.Unavailable || row.LastError != "routing artifact missing" {
		t.Errorf("bgp row = %v %q, want unavailable with the missing artifact noted", row.Status, row.LastError)
	}
	if broken.Monitors != nil || len(broken.CTITop) != 0 {
		t.Errorf("CTI ran without the routing artifact: %d monitors, %d countries", len(broken.Monitors), len(broken.CTITop))
	}
	if broken.Hijacks.Monitors != 0 || len(broken.Hijacks.Detections) != 0 {
		t.Errorf("hijack report without the routing artifact: %+v", broken.Hijacks)
	}
	if broken.Dataset == nil {
		t.Fatal("pipeline did not complete after a routing panic")
	}
	// Without outages CTI's set is the canonical one, so the graph plane
	// observes from the same vantage points either way.
	if !bytes.Equal(upstreamsBytes(t, broken, broken.Graph()), upstreamsBytes(t, healthy, healthy.Graph())) {
		t.Error("/v1/graph/upstreams bytes differ after a routing panic")
	}
	noted := false
	for _, st := range broken.Health.Stages {
		noted = noted || (st.Name == "routing" && st.Degraded)
	}
	if !noted {
		t.Errorf("no degraded routing stage in %+v", broken.Health.Stages)
	}
}
