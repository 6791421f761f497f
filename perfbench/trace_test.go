package main

import (
	"testing"
	"time"
)

func sp(id, parent int, layer string, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Layer: layer, Name: layer, Start: start, End: end}
}

func TestSelfTimesSubtractsTheUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		sp(1, 0, "snapshot", 0, 100*ms),
		// Two overlapping children cover [10, 50): 40 ms, not 50.
		sp(2, 1, "pipeline", 10*ms, 30*ms),
		sp(3, 1, "pipeline", 20*ms, 50*ms),
		// A child running past its parent counts only inside it: 10 ms.
		sp(4, 1, "durable", 90*ms, 120*ms),
		// A grandchild is its parent's, not the root's.
		sp(5, 3, "graph", 25*ms, 35*ms),
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"snapshot": 100*ms - 40*ms - 10*ms,
		"pipeline": 20*ms + (30*ms - 10*ms),
		"durable":  30 * ms,
		"graph":    10 * ms,
	}
	for layer, w := range want {
		if self[layer] != w {
			t.Errorf("self[%s] = %v, want %v", layer, self[layer], w)
		}
	}
	if len(self) != len(want) {
		t.Errorf("layers %v, want %v", self, want)
	}
}

func TestSelfTimesAddUpToTheRoot(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		sp(1, 0, "snapshot", 0, 1000*ms),
		sp(2, 1, "world", 0, 40*ms),
		sp(3, 1, "churn", 40*ms, 300*ms),
		sp(4, 1, "pipeline", 300*ms, 700*ms),
		sp(5, 4, "pipeline", 300*ms, 600*ms),
		sp(6, 4, "pipeline", 320*ms, 650*ms),
		sp(7, 1, "graph", 700*ms, 950*ms),
		sp(8, 1, "durable", 960*ms, 990*ms),
	}
	var total time.Duration
	for _, d := range selfTimes(spans) {
		total += d
	}
	// Nested, non-overlapping siblings: self times partition the root,
	// except where parallel children overlap (the pipeline's 280 ms of
	// overlap is counted once per node).
	if want := 1000*ms + 280*ms; total != want {
		t.Errorf("sum of self times = %v, want %v", total, want)
	}
}

func TestCoveredIgnoresEmptyAndOutsideIntervals(t *testing.T) {
	kids := []span{{Start: 5, End: 5}, {Start: 200, End: 300}, {Start: -50, End: 10}}
	if got := covered(0, 100, kids); got != 10 {
		t.Errorf("covered = %v, want 10", got)
	}
}

func TestLinkByRequestNestsAcrossLayers(t *testing.T) {
	us := time.Microsecond
	spans := []span{
		{ID: 1, Layer: "net", Name: "net.GET asn", Start: 0, End: 100 * us, Req: 7},
		{ID: 2, Layer: "fleet", Start: 10 * us, End: 90 * us, Req: 7},
		{ID: 3, Layer: "net", Name: "net.shard leg", Start: 20 * us, End: 60 * us, Req: 7},
		{ID: 4, Layer: "net", Name: "net.shard leg", Start: 25 * us, End: 55 * us, Req: 7}, // a hedge
		{ID: 5, Layer: "serve", Start: 30 * us, End: 50 * us, Req: 7},
		{ID: 6, Layer: "serve", Start: 30 * us, End: 50 * us, Req: 8}, // another request
	}
	linkByRequest(spans)
	want := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 4, 6: 0}
	for _, s := range spans {
		if s.Parent != want[s.ID] {
			t.Errorf("span %d parent = %d, want %d", s.ID, s.Parent, want[s.ID])
		}
	}
}

func TestNilTracerIsANoOp(t *testing.T) {
	var tr *tracer
	if id := tr.add(0, "net", "x", time.Now(), time.Now(), 1); id != 0 {
		t.Errorf("nil tracer returned span %d", id)
	}
	if tr.snapshot() != nil {
		t.Error("nil tracer has spans")
	}
}
