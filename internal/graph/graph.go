// Package graph compiles the relationship query plane: an immutable,
// per-generation index over the AS topology answering the questions
// operators actually ask of an Internet map — who are X's providers,
// customers, peers and siblings; what is X's customer cone; which
// transits does the world depend on to reach X; what is the shortest
// valley-free route between two ASes.
//
// Everything except the path oracle is precomputed at build time, so a
// query is O(result): adjacency lists per relationship class in dense
// handle-indexed arrays, the transitive customer-cone closure as
// compact sorted-ASN slices, and hegemony-style transit-dependency
// scores (the fraction of observed monitor paths toward an AS that
// traverse each transit, derived from the same per-origin valley-free
// propagation CTI consumes). The path oracle runs a two-phase BFS over
// the precomputed dense arrays per query — still independent of the
// dataset layer, and the only query whose cost scales with the graph.
//
// Build rides internal/sched.ParallelFor: cone closure and dependency
// scoring fan out per-AS, each iteration writing only its own slot, so
// the compiled graph is bit-identical for every worker count — the
// differential suite enforces this along with deep equality against
// naive on-demand traversals of the raw topology.
package graph

import (
	"sort"
	"strings"

	"stateowned/internal/as2org"
	"stateowned/internal/bgp"
	"stateowned/internal/sched"
	"stateowned/internal/topology"
	"stateowned/internal/world"
)

// Class identifies one relationship class of the classed adjacency.
type Class uint8

// The four relationship classes. Provider/Customer/Peer come from the
// Gao-Rexford topology; Sibling is AS2Org co-membership (other ASNs
// registered under the same inferred organization).
const (
	Provider Class = iota
	Customer
	Peer
	Sibling
	numClasses
)

// String returns the wire name of a class — the same token ParseClass
// accepts and the HTTP layer echoes in responses.
func (c Class) String() string {
	switch c {
	case Provider:
		return "provider"
	case Customer:
		return "customer"
	case Peer:
		return "peer"
	case Sibling:
		return "sibling"
	}
	return "invalid"
}

// ParseClass resolves a relationship-class name (case-insensitive) to
// its Class.
func ParseClass(s string) (Class, bool) {
	switch strings.ToLower(s) {
	case "provider":
		return Provider, true
	case "customer":
		return Customer, true
	case "peer":
		return Peer, true
	case "sibling":
		return Sibling, true
	}
	return 0, false
}

// Classes lists every relationship class in canonical order.
func Classes() []Class { return []Class{Provider, Customer, Peer, Sibling} }

// Dependency is one transit AS's share of the observed monitor paths
// toward an AS: Score = Paths / paths-observed-toward-the-AS, the
// hegemony-style dependency the upstreams ranking is ordered by.
type Dependency struct {
	Transit world.ASN `json:"asn"`
	Score   float64   `json:"score"`
	Paths   int       `json:"paths"`
}

// Graph is the compiled relationship index for one topology snapshot.
// It is immutable once built and safe for arbitrary concurrent readers;
// every accessor returns interior slices that callers must not mutate.
type Graph struct {
	topo *topology.Graph

	// adj[class][i] is the sorted ASN adjacency of dense index i.
	adj [numClasses][][]world.ASN
	// cones[i] is the sorted transitive customer cone of i, self
	// included (ASRank semantics, matching topology.CustomerCone).
	cones [][]world.ASN
	// deps[i] ranks the transits the monitor paths toward i traverse,
	// by Score descending then ASN ascending; observed[i] counts the
	// monitor paths that reached i (the score denominator).
	deps     [][]Dependency
	observed []int

	monitors int
}

// Build compiles the relationship index over a topology snapshot, the
// BGP monitor set the dependency scores are observed from, and the
// AS2Org mapping supplying sibling structure (nil = no sibling data).
// workers bounds the internal fan-out exactly as the pipeline's Workers
// knob does (<= 0 selects GOMAXPROCS; the result is identical for every
// worker count). It collects the monitors' paths toward every AS itself;
// a caller already holding that collection passes it to BuildFromPaths.
func Build(topo *topology.Graph, monitors []bgp.Monitor, orgs *as2org.Mapping, workers int) *Graph {
	return BuildFromPaths(topo, bgp.CollectPaths(topo, monitors, topo.ASes(), workers), orgs, workers)
}

// BuildFromPaths is Build over an existing path collection: paths must
// be collected over topo (bgp.CollectPaths) toward every AS the
// dependency scores should cover, and its monitor set is the one the
// scores are observed from. An adversary overlay is ignored — the
// scores read the honest rows. The result is byte-identical to Build
// with the same monitors.
func BuildFromPaths(topo *topology.Graph, paths *bgp.MonitorPaths, orgs *as2org.Mapping, workers int) *Graph {
	if paths.Topology() != topo {
		panic("graph: path collection was not collected over this topology")
	}
	paths = paths.Honest()
	n := topo.NumASes()
	g := &Graph{
		topo:     topo,
		cones:    make([][]world.ASN, n),
		deps:     make([][]Dependency, n),
		observed: make([]int, n),
		monitors: len(paths.Monitors),
	}
	for c := range g.adj {
		g.adj[c] = make([][]world.ASN, n)
	}

	// Phase 1: classed adjacency, one sorted ASN slice per (AS, class).
	sched.ParallelFor(workers, n, func(i int) {
		a := topo.ASNAt(i)
		g.adj[Provider][i] = sortedASNs(topo, topo.ProviderIdx(i))
		g.adj[Customer][i] = sortedASNs(topo, topo.CustomerIdx(i))
		g.adj[Peer][i] = sortedASNs(topo, topo.PeerIdx(i))
		if orgs != nil {
			var sibs []world.ASN
			for _, s := range orgs.Siblings(a) {
				if topo.Active(s) {
					sibs = append(sibs, s)
				}
			}
			world.SortASNs(sibs)
			g.adj[Sibling][i] = sibs
		}
	})

	// Phase 2: customer-cone closure. Each iteration BFSes the dense
	// customer edges and writes only its own slot.
	sched.ParallelFor(workers, n, func(i int) {
		g.cones[i] = coneOf(topo, i)
	})

	// Phase 3: transit-dependency scores, read straight off the shared
	// path arena (the same per-origin valley-free propagation CTI
	// consumes): every monitor path toward origin i credits its transit
	// hops. Hop ids are the topology's dense indices, so each pool slot
	// counts into one dense scratch array, cleared through its touched
	// list after every origin.
	type scratch struct {
		counts  []int32
		touched []int32
	}
	slots := make([]*scratch, sched.Workers(workers))
	sched.ParallelForWorker(workers, n, func(s, i int) {
		sc := slots[s]
		if sc == nil {
			sc = &scratch{counts: make([]int32, n)}
			slots[s] = sc
		}
		row := paths.Origin(topo.ASNAt(i))
		total := 0
		sc.touched = sc.touched[:0]
		for mi := range paths.Monitors {
			hops := row.Hops(mi)
			if hops == nil {
				continue
			}
			total++
			// Transit hops exclude the monitor and the origin; a monitor
			// that IS the origin contributes a length-1 path with none.
			if len(hops) < 3 {
				continue
			}
			for _, h := range hops[1 : len(hops)-1] {
				if sc.counts[h] == 0 {
					sc.touched = append(sc.touched, h)
				}
				sc.counts[h]++
			}
		}
		g.observed[i] = total
		if len(sc.touched) == 0 {
			return
		}
		deps := make([]Dependency, len(sc.touched))
		for k, h := range sc.touched {
			c := int(sc.counts[h])
			sc.counts[h] = 0
			deps[k] = Dependency{Transit: topo.ASNAt(int(h)), Score: float64(c) / float64(total), Paths: c}
		}
		sort.Slice(deps, func(x, y int) bool {
			if deps[x].Paths != deps[y].Paths {
				return deps[x].Paths > deps[y].Paths
			}
			return deps[x].Transit < deps[y].Transit
		})
		g.deps[i] = deps
	})

	return g
}

// sortedASNs maps dense indices to their ASNs, sorted ascending.
func sortedASNs(topo *topology.Graph, idxs []int) []world.ASN {
	if len(idxs) == 0 {
		return nil
	}
	out := make([]world.ASN, len(idxs))
	for k, j := range idxs {
		out[k] = topo.ASNAt(j)
	}
	world.SortASNs(out)
	return out
}

// coneOf BFSes the customer edges from i and returns the sorted cone,
// self included.
func coneOf(topo *topology.Graph, i int) []world.ASN {
	seen := make([]bool, topo.NumASes())
	seen[i] = true
	queue := []int{i}
	members := []int{i}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, c := range topo.CustomerIdx(cur) {
			if !seen[c] {
				seen[c] = true
				queue = append(queue, c)
				members = append(members, c)
			}
		}
	}
	out := make([]world.ASN, len(members))
	for k, j := range members {
		out[k] = topo.ASNAt(j)
	}
	world.SortASNs(out)
	return out
}

// NumASes reports how many ASes the compiled graph covers.
func (g *Graph) NumASes() int { return g.topo.NumASes() }

// NumMonitors reports the size of the monitor set the dependency scores
// were observed from.
func (g *Graph) NumMonitors() int { return g.monitors }

// Active reports whether the ASN exists in the compiled snapshot.
func (g *Graph) Active(a world.ASN) bool { return g.topo.Active(a) }

// Neighbors returns a's sorted adjacency in one relationship class; ok
// is false when the ASN is not in the snapshot. The slice is interior —
// callers must not mutate it.
func (g *Graph) Neighbors(a world.ASN, c Class) (asns []world.ASN, ok bool) {
	i, ok := g.topo.Index(a)
	if !ok || c >= numClasses {
		return nil, false
	}
	return g.adj[c][i], true
}

// Cone returns a's transitive customer cone (sorted, self included), or
// nil when the ASN is not in the snapshot.
func (g *Graph) Cone(a world.ASN) []world.ASN {
	i, ok := g.topo.Index(a)
	if !ok {
		return nil
	}
	return g.cones[i]
}

// ConeSize returns |Cone(a)| without touching the members; 0 when the
// ASN is not in the snapshot.
func (g *Graph) ConeSize(a world.ASN) int {
	i, ok := g.topo.Index(a)
	if !ok {
		return 0
	}
	return len(g.cones[i])
}

// InCone reports whether member is inside a's customer cone — a binary
// search over the precomputed closure.
func (g *Graph) InCone(a, member world.ASN) bool {
	i, ok := g.topo.Index(a)
	if !ok {
		return false
	}
	cone := g.cones[i]
	k := sort.Search(len(cone), func(j int) bool { return cone[j] >= member })
	return k < len(cone) && cone[k] == member
}

// Upstreams returns the transits the observed monitor paths toward a
// depend on, ranked by Score descending (ties on ASN ascending); ok is
// false when the ASN is not in the snapshot.
func (g *Graph) Upstreams(a world.ASN) (deps []Dependency, ok bool) {
	i, ok := g.topo.Index(a)
	if !ok {
		return nil, false
	}
	return g.deps[i], true
}

// PathsObserved reports how many monitor paths reached a — the
// denominator of its dependency scores.
func (g *Graph) PathsObserved(a world.ASN) int {
	i, ok := g.topo.Index(a)
	if !ok {
		return 0
	}
	return g.observed[i]
}

// Path returns the shortest valley-free AS path from one AS to another
// (inclusive on both ends), deterministically tie-broken to the
// lexicographically smallest ASN sequence among the shortest. It
// returns nil when either endpoint is not in the snapshot or no
// valley-free route exists. The oracle is the one graph query that
// computes per call: a two-phase BFS (climbing, then descending after
// the first peer or customer edge — the Gao-Rexford export rule as a
// two-state automaton) over the precomputed dense adjacency.
func (g *Graph) Path(from, to world.ASN) []world.ASN {
	s, ok := g.topo.Index(from)
	if !ok {
		return nil
	}
	d, ok := g.topo.Index(to)
	if !ok {
		return nil
	}
	if s == d {
		return []world.ASN{from}
	}
	topo := g.topo
	n := topo.NumASes()

	// Backward BFS from the destination (either phase counts as
	// arrival), computing each state's remaining distance. State
	// encoding: 2*i for "climb allowed", 2*i+1 for "descend only".
	rdist := make([]int32, 2*n)
	for i := range rdist {
		rdist[i] = -1
	}
	rdist[2*d], rdist[2*d+1] = 0, 0
	queue := []int32{int32(2 * d), int32(2*d + 1)}
	for len(queue) > 0 {
		st := queue[0]
		queue = queue[1:]
		x, phase := int(st>>1), st&1
		next := rdist[st] + 1
		relax := func(state int32) {
			if rdist[state] < 0 {
				rdist[state] = next
				queue = append(queue, state)
			}
		}
		if phase == 0 {
			// (u,0) -> (x,0) rides a provider edge: u is a customer of x.
			for _, u := range topo.CustomerIdx(x) {
				relax(int32(2 * u))
			}
		} else {
			// (u,0) -> (x,1) rides a peer or customer edge; (u,1) -> (x,1)
			// rides a customer edge.
			for _, u := range topo.PeerIdx(x) {
				relax(int32(2 * u))
			}
			for _, u := range topo.ProviderIdx(x) {
				relax(int32(2 * u))
				relax(int32(2*u + 1))
			}
		}
	}
	rem := rdist[2*s]
	if rem < 0 {
		return nil
	}

	// Greedy forward reconstruction: at each hop, every neighbor state
	// whose remaining distance is rem-1 lies on some shortest path;
	// taking the smallest ASN (preferring the climb phase on a tie —
	// its move set is a superset, so it can only improve the suffix)
	// yields the lexicographically smallest shortest path.
	path := make([]world.ASN, 0, rem+1)
	path = append(path, from)
	cur, phase := s, int32(0)
	for ; rem > 0; rem-- {
		bestNode, bestPhase := -1, int32(0)
		consider := func(node int, ph int32) {
			if rdist[2*node+int(ph)] != rem-1 {
				return
			}
			if bestNode < 0 || topo.ASNAt(node) < topo.ASNAt(bestNode) ||
				(node == bestNode && ph < bestPhase) {
				bestNode, bestPhase = node, ph
			}
		}
		if phase == 0 {
			for _, p := range topo.ProviderIdx(cur) {
				consider(p, 0)
			}
			for _, q := range topo.PeerIdx(cur) {
				consider(q, 1)
			}
		}
		for _, c := range topo.CustomerIdx(cur) {
			consider(c, 1)
		}
		if bestNode < 0 {
			return nil // unreachable given rdist; would be a BFS bug
		}
		path = append(path, topo.ASNAt(bestNode))
		cur, phase = bestNode, bestPhase
	}
	return path
}
