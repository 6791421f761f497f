package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLevels are the percentiles a timing summary may report beside its
// median, highest first.
var tailLevels = []float64{99.999, 99.99, 99.9, 99, 90, 50}

// tailPercentile returns the highest percentile in tailLevels that has
// at least ten of n samples beyond it, so the reported tail always rests
// on ten or more observations. ok is false when no level qualifies.
func tailPercentile(n int) (p float64, ok bool) {
	for _, lvl := range tailLevels {
		// Samples strictly beyond the nearest-rank position of lvl.
		if n-rank(lvl, n) >= 10 {
			return lvl, true
		}
	}
	return 0, false
}

// rank is the 1-based nearest-rank position of percentile p in n
// sorted samples.
func rank(p float64, n int) int {
	// The epsilon keeps binary rounding of levels like 99.9 from pushing
	// an exact rank up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile p of sorted samples
// (NaN when there are none).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(p, len(sorted))-1]
}

// median is the midpoint of the samples, averaging the two middle
// values for an even count. It does not modify its argument.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// summary is a timing distribution as the benchmark reports it: the
// median, the highest percentile with at least ten samples beyond it,
// and the sample count.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	TailP  float64 `json:"tail_p,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
}

func summarize(xs []float64) summary {
	s := summary{N: len(xs), Median: median(xs)}
	if p, ok := tailPercentile(len(xs)); ok {
		s.TailP = p
		s.Tail = percentile(sortedCopy(xs), p)
	}
	return s
}

// String renders the summary for the human-readable report.
func (s summary) String() string {
	if s.TailP == 0 {
		return fmt.Sprintf("median %.4g, n=%d (too few samples for a tail percentile)", s.Median, s.N)
	}
	return fmt.Sprintf("median %.4g, p%g %.4g, n=%d", s.Median, s.TailP, s.Tail, s.N)
}
