// Package cti implements the Country-Level Transit Influence metric from
// the paper's Appendix G (Gamero-Garrido):
//
//	CTI(AS, C) = Σ_m  w(m)/|M| · Σ_{p | onpath(AS,m,p)} a(p,C)/A(C) · 1/d(AS,m,p)
//
// where w(m) is the inverse of the number of monitors hosted in m's AS,
// onpath(AS,m,p) holds when AS appears as a *transit* hop on monitor m's
// preferred path toward prefix p (the monitor must not be inside AS, and
// the origin itself is not a transit hop), a(p,C) is the number of p's
// addresses geolocated to country C not covered by a more specific
// prefix, A(C) is C's total geolocated address count, and d is the number
// of AS-level hops between AS and p's origin on that path.
package cti

import (
	"sort"

	"stateowned/internal/bgp"
	"stateowned/internal/world"
)

// PrefixGeo supplies the geolocated address counts CTI weights by. It is
// implemented by the geolocation simulator; tests use literal maps.
type PrefixGeo interface {
	// AddressesIn returns a(p, C): how many of the prefix's addresses
	// geolocate to country C.
	AddressesIn(origin world.ASN, pfxIdx int, country string) uint64
	// TotalIn returns A(C): the country's total geolocated addresses.
	TotalIn(country string) uint64
}

// Score is one AS's transit influence over one country.
type Score struct {
	AS    world.ASN
	Value float64
}

// Computer evaluates CTI for a fixed monitor-path collection.
type Computer struct {
	paths   *bgp.MonitorPaths
	weights []float64 // per-monitor w(m)/|M|
}

// NewComputer prepares per-monitor weights from the path collection.
func NewComputer(paths *bgp.MonitorPaths) *Computer {
	perAS := paths.MonitorsInAS()
	ws := make([]float64, len(paths.Monitors))
	total := float64(len(paths.Monitors))
	for i, m := range paths.Monitors {
		ws[i] = 1 / float64(perAS[m.AS]) / total
	}
	return &Computer{paths: paths, weights: ws}
}

// Country computes CTI(·, C) for every AS observed as transit toward C's
// prefixes, returning scores sorted descending (ties by ascending ASN).
//
// origins lists the responsive origin ASes whose prefixes geolocate to C,
// with their per-origin prefix counts supplied by prefixesOf.
func (c *Computer) Country(
	country string,
	origins []world.ASN,
	prefixesOf func(world.ASN) int,
	geo PrefixGeo,
) []Score {
	totalAddr := geo.TotalIn(country)
	if totalAddr == 0 {
		return nil
	}
	rows := make([]bgp.OriginPaths, len(origins))
	for oi, origin := range origins {
		rows[oi] = c.paths.Origin(origin)
	}
	// Scores accumulate per hop id; touched keeps every AS that scored,
	// in first-seen order, for the final ranking.
	acc := make([]float64, c.paths.NumNodes())
	seen := make([]bool, len(acc))
	var touched []int32
	for mi := range c.paths.Monitors {
		w := c.weights[mi]
		monitorAS := c.paths.Monitors[mi].AS
		for oi, origin := range origins {
			path := rows[oi].Hops(mi)
			if len(path) < 2 {
				continue // monitor is the origin or origin unreachable
			}
			for idx, n := 0, prefixesOf(origin); idx < n; idx++ {
				a := geo.AddressesIn(origin, idx, country)
				if a == 0 {
					continue
				}
				frac := float64(a) / float64(totalAddr)
				// path[0] is the monitor's AS, path[len-1] the origin.
				// Transit hops are path[1:len-1]; additionally the
				// monitor's own AS never scores (m not contained in AS).
				for hop := 1; hop < len(path)-1; hop++ {
					h := path[hop]
					if c.paths.Node(h) == monitorAS {
						continue
					}
					d := len(path) - 1 - hop // AS hops to the origin
					if !seen[h] {
						seen[h] = true
						touched = append(touched, h)
					}
					acc[h] += w * frac / float64(d)
				}
			}
		}
	}
	out := make([]Score, 0, len(touched))
	for _, h := range touched {
		out = append(out, Score{AS: c.paths.Node(h), Value: acc[h]})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Value != out[j].Value {
			return out[i].Value > out[j].Value
		}
		return out[i].AS < out[j].AS
	})
	return out
}

// TopK returns the k highest-CTI ASes of a score list (the paper selects
// the two highest-ranked per country for its candidate list).
func TopK(scores []Score, k int) []Score {
	if k > len(scores) {
		k = len(scores)
	}
	return scores[:k]
}
