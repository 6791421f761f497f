// Package bgp simulates the parts of the global routing system the paper's
// pipeline consumes: the prefix-to-origin-AS table (CAIDA's prefix2as
// equivalent) and the preferred AS paths observed by a set of BGP monitors
// (the RouteViews / RIPE RIS equivalent that CTI is computed from).
//
// Route selection follows the standard Gao-Rexford (valley-free) model:
// routes learned from customers are preferred over routes learned from
// peers, which beat routes learned from providers; ties break on shorter
// AS-path length and then on lower next-hop ASN. Export rules are the
// classic ones: customer-learned routes are exported to everyone;
// peer- and provider-learned routes are exported only to customers.
package bgp

import (
	"sort"

	"stateowned/internal/netaddr"
	"stateowned/internal/rng"
	"stateowned/internal/topology"
	"stateowned/internal/world"
)

// OriginEntry pairs a routed prefix with its origin AS — one row of the
// prefix-to-AS file.
type OriginEntry struct {
	Prefix netaddr.Prefix
	Origin world.ASN
}

// OriginTable lists every announced prefix with its origin, sorted by
// prefix. Almost all prefixes have exactly one origin (footnote 1 of the
// paper); the simulator enforces exactly one.
func OriginTable(w *world.World) []OriginEntry {
	var out []OriginEntry
	for _, asn := range w.ASNList {
		for _, p := range w.ASes[asn].Prefixes {
			out = append(out, OriginEntry{Prefix: p, Origin: asn})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.Less(out[j].Prefix) })
	return out
}

// Monitor is one BGP vantage point: a collector session hosted inside an
// AS. Several monitors can live in the same AS (RouteViews and RIS both
// have this), which is why CTI weights monitors by 1/#monitors-in-AS.
type Monitor struct {
	ID string
	AS world.ASN
}

// SelectMonitors picks a deterministic, geographically spread monitor set:
// every tier-1-ish AS hosts one, plus gateway ASes sampled across RIRs.
// A few ASes host two monitors to exercise CTI's monitor weighting.
func SelectMonitors(w *world.World, g *topology.Graph, n int) []Monitor {
	r := rng.New(w.Seed).Sub("monitors")
	// Candidates: ASes with at least one customer (operational border
	// routers of transit networks are where collectors peer).
	type cand struct {
		asn  world.ASN
		deg  int
		name string
	}
	var cands []cand
	for _, asn := range g.ASes() {
		if d := len(g.Customers(asn)); d > 0 {
			cands = append(cands, cand{asn, d, ""})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].deg != cands[j].deg {
			return cands[i].deg > cands[j].deg
		}
		return cands[i].asn < cands[j].asn
	})
	if n <= 0 {
		n = 60
	}
	if n > len(cands) {
		n = len(cands)
	}
	// Top third by degree, the rest sampled from the remainder.
	var out []Monitor
	top := n / 3
	for i := 0; i < top; i++ {
		out = append(out, Monitor{AS: cands[i].asn})
	}
	rest := cands[top:]
	perm := r.Perm(len(rest))
	for i := 0; len(out) < n && i < len(perm); i++ {
		out = append(out, Monitor{AS: rest[perm[i]].asn})
	}
	// Duplicate the first few ASes to model multi-monitor hosts.
	dups := 3
	for i := 0; i < dups && i < len(out); i++ {
		out = append(out, Monitor{AS: out[i].AS})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AS < out[j].AS })
	for i := range out {
		out[i].ID = monitorID(i)
	}
	return out
}

// ApplyOutages filters the monitor set through an outage predicate —
// collector sessions that went dark contribute no paths. The surviving
// monitors keep their IDs so multi-monitor AS weighting stays correct,
// and the dark count feeds the run's health report.
func ApplyOutages(monitors []Monitor, down func(Monitor) bool) (up []Monitor, dark int) {
	up = make([]Monitor, 0, len(monitors))
	for _, m := range monitors {
		if down(m) {
			dark++
			continue
		}
		up = append(up, m)
	}
	return up, dark
}

func monitorID(i int) string {
	return "rrc" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// PathView holds, for one origin AS, the best route state of every AS in
// the graph; monitor paths are reconstructed from it.
type PathView struct {
	g      *topology.Graph
	origin world.ASN
	routes []route
}

// Propagate computes valley-free best routes toward one origin for every
// AS in the graph. It is a one-shot wrapper over the propagation kernel
// the path collectors run per worker.
func Propagate(g *topology.Graph, origin world.ASN) *PathView {
	oIdx, ok := g.Index(origin)
	if !ok {
		return nil
	}
	k := newKernel(g)
	k.run(oIdx, 0, nil)
	return &PathView{g: g, origin: origin, routes: k.routes}
}

// Reachable reports whether the AS has any route to the origin.
func (v *PathView) Reachable(from world.ASN) bool {
	i, ok := v.g.Index(from)
	return ok && v.routes[i].class != classNone
}

// Path returns the AS path from the given AS to the origin (inclusive on
// both ends), or nil if unreachable.
func (v *PathView) Path(from world.ASN) []world.ASN {
	i, ok := v.g.Index(from)
	if !ok {
		return nil
	}
	hops, ok := walk(v.routes, i, nil)
	if !ok {
		return nil
	}
	path := make([]world.ASN, len(hops))
	for k, h := range hops {
		path[k] = v.g.ASNAt(int(h))
	}
	return path
}
