package main

import "testing"

func TestEvolveCallsMatchesTheReplayedSteps(t *testing.T) {
	// Steps into generations 1..5 cost 10, 20, 30, 40 and 50 ms.
	r := &run{stepMS: []float64{0, 10, 20, 30, 40, 50}}
	cases := []struct {
		gen    int
		replay float64
		want   float64
	}{
		{gen: 5, replay: 150, want: 5}, // replay from scratch: every step
		{gen: 5, replay: 52, want: 1},  // derived from the parent: the last step
		{gen: 5, replay: 88, want: 2},  // the last two steps, 90 ms
		{gen: 1, replay: 11, want: 1},
		{gen: 9, replay: 100, want: 0}, // steps never timed: no estimate
	}
	for _, c := range cases {
		if got := r.evolveCalls(c.gen, c.replay); got != c.want {
			t.Errorf("evolveCalls(%d, %v) = %v, want %v", c.gen, c.replay, got, c.want)
		}
	}
}
