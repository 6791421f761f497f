package main

import (
	"math"
	"testing"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 10, ok: false},
		{n: 19, ok: false}, // p50 has only 9 beyond
		{n: 20, want: 50, ok: true},
		{n: 99, want: 50, ok: true}, // p90 has only 9 beyond
		{n: 100, want: 90, ok: true},
		{n: 999, want: 90, ok: true}, // p99 has only 9 beyond
		{n: 1000, want: 99, ok: true},
		{n: 10000, want: 99.9, ok: true}, // exact rank despite 99.9's binary rounding
		{n: 100000, want: 99.99, ok: true},
		{n: 1000000, want: 99.999, ok: true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if ok != c.ok || got != c.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n-rank(got, c.n) < 10 {
			t.Errorf("n=%d: p%v leaves %d samples beyond it", c.n, got, c.n-rank(got, c.n))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {90, 900}, {99, 990}, {99.9, 999}, {100, 1000}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i) // descending: summarize must not assume order
	}
	s := summarize(xs)
	if s.N != 1000 || s.Median != 499.5 || s.TailP != 99 || s.Tail != 989 {
		t.Errorf("summarize = %+v", s)
	}
	if xs[0] != 999 {
		t.Error("summarize reordered its input")
	}
	if s := summarize([]float64{3, 1, 2}); s.Median != 2 || s.TailP != 0 {
		t.Errorf("summarize of 3 samples = %+v, want median 2 and no tail", s)
	}
}
