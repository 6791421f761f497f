package stateowned

// Run-level tests of the incremental rebuild path: artifact reuse on an
// unchanged world, byte identity under churn, config-sensitivity of the
// fingerprints, and exclusion of failed nodes from the memo.

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"stateowned/internal/churn"
	"stateowned/internal/world"
)

const incScale = 0.08

// allNodes is every build-graph node, in declaration order.
var allNodes = []string{
	"world", "topology", "routing", "geo", "eyeballs", "whois", "peeringdb",
	"as2org", "orbis", "docs", "cti", "hijack", "stage1", "stage2", "stage3",
}

func incWorld(t *testing.T, seed uint64, churnSteps int) *world.World {
	t.Helper()
	w := world.Generate(world.Config{Seed: seed, Scale: incScale})
	for i := 1; i <= churnSteps; i++ {
		churn.Evolve(w, 2, seed+uint64(i)*1000, churn.DefaultRates())
	}
	return w
}

// assertRunsEqual compares every determinism-relevant projection of two
// runs: exported dataset bytes, rendered analysis tables, and the
// health report's deterministic view (source rows and stages — not
// Timings, which are measurement).
func assertRunsEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if !bytes.Equal(exportBytes(t, a), exportBytes(t, b)) {
		t.Errorf("%s: exported dataset bytes differ", label)
	}
	if ta, tb := renderedTables(a), renderedTables(b); ta != tb {
		t.Errorf("%s: rendered tables differ", label)
	}
	rowsA, stagesA := healthNotes(a.Health)
	rowsB, stagesB := healthNotes(b.Health)
	if !reflect.DeepEqual(rowsA, rowsB) {
		t.Errorf("%s: health source rows differ:\n%+v\nvs\n%+v", label, rowsA, rowsB)
	}
	if !reflect.DeepEqual(stagesA, stagesB) {
		t.Errorf("%s: health stages differ:\n%+v\nvs\n%+v", label, stagesA, stagesB)
	}
	if a.Health.Render() != b.Health.Render() {
		t.Errorf("%s: rendered health differs", label)
	}
}

// TestIncrementalUnchangedWorldSkipsEveryNode proves the zero-churn
// metamorphic property at the run level: rebuilding over a world whose
// fingerprints are unchanged restores every artifact and executes zero
// build functions.
func TestIncrementalUnchangedWorldSkipsEveryNode(t *testing.T) {
	w := incWorld(t, 42, 1)
	cfg := Config{Seed: 42, Scale: incScale, World: w, CaptureMemo: true}
	first := Run(cfg)
	if first.Memo == nil {
		t.Fatal("CaptureMemo produced no memo")
	}
	if len(first.Reused) != 0 {
		t.Fatalf("first run reused nodes: %v", first.Reused)
	}

	var executed []string
	restore := SetBuildHook(func(node string) { executed = append(executed, node) })
	defer restore()
	cfg.Memo = first.Memo
	second := Run(cfg)
	if len(executed) != 0 {
		t.Errorf("unchanged world executed nodes %v, want none", executed)
	}
	if !reflect.DeepEqual(second.Reused, allNodes) {
		t.Errorf("Reused = %v, want all of %v", second.Reused, allNodes)
	}
	assertRunsEqual(t, "unchanged world", first, second)
	if second.World != w {
		t.Error("restored run does not adopt the caller's world")
	}
}

// TestIncrementalChurnByteIdentical is the run-level differential
// proof: an incremental rebuild over a churn-evolved world must be
// byte-identical to a from-scratch rebuild over an identically evolved
// world, while actually reusing the churn-blind sources.
func TestIncrementalChurnByteIdentical(t *testing.T) {
	// Two independently constructed copies of the same evolved world:
	// one for the full rebuild, one for the incremental chain (Evolve
	// mutates in place, so the chain needs its own objects).
	for _, workers := range []int{1, 4} {
		base := incWorld(t, 21, 0)
		evolved := incWorld(t, 21, 2)

		full := Run(Config{Seed: 21, Scale: incScale, World: evolved, Workers: workers})

		r0 := Run(Config{Seed: 21, Scale: incScale, World: base, CaptureMemo: true, Workers: workers})
		inc := Run(Config{
			Seed: 21, Scale: incScale, World: incWorld(t, 21, 2),
			Memo: r0.Memo, CaptureMemo: true, Workers: workers,
		})
		assertRunsEqual(t, "churned world", full, inc)

		reused := map[string]bool{}
		for _, n := range inc.Reused {
			reused[n] = true
		}
		// Churn only mutates the equity graph, so the structure-only
		// sources must always prove clean.
		for _, n := range []string{"geo", "eyeballs", "whois", "peeringdb", "as2org"} {
			if !reused[n] {
				t.Errorf("workers=%d: structure-only node %q was rebuilt under pure ownership churn", workers, n)
			}
		}
	}
}

// TestIncrementalConfigChangeDirtiesEverything: the fingerprints cover
// the chaos plan, so replaying the same world under a different chaos
// seed must rebuild every node (reusing any artifact would leak the old
// fault episode into the new one).
func TestIncrementalConfigChangeDirtiesEverything(t *testing.T) {
	w := incWorld(t, 7, 1)
	cfg := Config{Seed: 7, Scale: incScale, World: w, CaptureMemo: true, ChaosSeverity: 0.3, ChaosSeed: 11}
	first := Run(cfg)

	cfg.Memo = first.Memo
	cfg.ChaosSeed = 12
	second := Run(cfg)
	if len(second.Reused) != 0 {
		t.Errorf("chaos-seed change still reused %v", second.Reused)
	}
}

// TestIncrementalFailedNodeExcludedFromMemo: a panicking node must not
// seed the next generation's memo, and neither may anything downstream
// of it — the rebuilt chain must converge back to the pristine output.
func TestIncrementalFailedNodeExcludedFromMemo(t *testing.T) {
	w := incWorld(t, 42, 1)
	cfg := Config{Seed: 42, Scale: incScale, World: w, CaptureMemo: true}

	restore := SetBuildHook(func(node string) {
		if node == "orbis" {
			panic("injected orbis failure")
		}
	})
	broken := Run(cfg)
	restore()
	if got := broken.Memo.Nodes(); len(got) != 0 {
		for _, n := range got {
			if n == "orbis" || strings.HasPrefix(n, "stage") {
				t.Errorf("failed node %q (or dependent) leaked into memo %v", n, got)
			}
		}
	}

	// Rebuild over the same world with the degraded memo: orbis and the
	// stages must re-execute, and the result must equal a pristine run.
	cfg.Memo = broken.Memo
	healed := Run(cfg)
	pristine := Run(Config{Seed: 42, Scale: incScale, World: w})
	assertRunsEqual(t, "healed after panic", pristine, healed)
	sort.Strings(healed.Reused)
	for _, n := range healed.Reused {
		if n == "orbis" || strings.HasPrefix(n, "stage") {
			t.Errorf("node %q reused from a failed build", n)
		}
	}
}

// TestMemoScrubbedFromResultConfig guards the retention chain: holding
// a Result must not pin the previous generation's artifacts.
func TestMemoScrubbedFromResultConfig(t *testing.T) {
	w := incWorld(t, 42, 0)
	res := Run(Config{Seed: 42, Scale: incScale, World: w, CaptureMemo: true})
	if res.Config.Memo != nil || res.Config.CaptureMemo {
		t.Errorf("memo inputs survived on Result.Config: %+v", res.Config.Memo)
	}
	res2 := Run(Config{Seed: 42, Scale: incScale, World: w, Memo: res.Memo})
	if res2.Config.Memo != nil {
		t.Error("memo input survived on second Result.Config")
	}
}

// TestRenderExcludesIncrementalMetadata is the latent-determinism
// guard: Health.Render (the diffable report) must not change when
// Timings, Workers or reuse markers differ — otherwise incremental
// metadata could leak into golden bytes.
func TestRenderExcludesIncrementalMetadata(t *testing.T) {
	w := incWorld(t, 42, 1)
	full := Run(Config{Seed: 42, Scale: incScale, World: w, Workers: 1})
	inc0 := Run(Config{Seed: 42, Scale: incScale, World: w, CaptureMemo: true, Workers: 4})
	inc := Run(Config{Seed: 42, Scale: incScale, World: w, Memo: inc0.Memo, Workers: 8})

	if full.Health.Render() != inc.Health.Render() {
		t.Error("Render differs between full and incremental runs over the same world")
	}
	if r := inc.Health.Render(); strings.Contains(r, "reused") {
		t.Errorf("Render leaks reuse metadata:\n%s", r)
	}
	if !strings.Contains(inc.Health.RenderTimings(), "reused") {
		t.Error("RenderTimings does not surface reuse markers")
	}
}
