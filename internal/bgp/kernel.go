package bgp

import (
	"sync/atomic"

	"stateowned/internal/topology"
)

// routeClass encodes Gao-Rexford preference; higher is better.
type routeClass int8

const (
	classNone     routeClass = 0
	classProvider routeClass = 1
	classPeer     routeClass = 2
	classCustomer routeClass = 3
)

type route struct {
	class routeClass
	dist  int32 // AS hops to origin
	next  int32 // dense index of next hop (-1 at origin)
}

// better reports whether route a is preferred over b: higher class,
// then shorter path, then lower next-hop index.
func better(a, b route) bool {
	if a.class != b.class {
		return a.class > b.class
	}
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.next < b.next && b.next >= 0
}

// honestRuns counts honest kernel runs process-wide.
var honestRuns atomic.Uint64

// HonestPropagations reports how many honest route propagations (one
// origin each) this process has run. It is the unit of routing cost:
// the tests pin that a generation build propagates every origin once,
// plus once more per campaign victim when the adversary is on.
func HonestPropagations() uint64 { return honestRuns.Load() }

// kernel is one worker's route-propagation state. Every buffer is sized
// to the graph once and reused for each origin, so a warmed-up kernel
// propagates without allocating. Honest propagation and the hijack
// overlay share it; only the adoption gate differs.
type kernel struct {
	g           *topology.Graph
	routes      []route
	peerRoutes  []route
	queue, next []int32
}

func newKernel(g *topology.Graph) *kernel {
	n := g.NumASes()
	return &kernel{
		g:          g,
		routes:     make([]route, n),
		peerRoutes: make([]route, n),
		queue:      make([]int32, 0, n),
		next:       make([]int32, 0, n),
	}
}

// run computes valley-free best routes toward start, which originates
// with path length dist, into k.routes. adopt (nil accepts everything)
// gates every candidate an AS would otherwise take; a non-adopter never
// re-exports, so the gate also prunes everything downstream of it.
func (k *kernel) run(start int, dist int32, adopt func(p int, cand route) bool) {
	if adopt == nil {
		honestRuns.Add(1)
	}
	g, routes, peerRoutes := k.g, k.routes, k.peerRoutes
	clear(routes)
	clear(peerRoutes)
	routes[start] = route{class: classCustomer, dist: dist, next: -1}

	// Phase 1: customer routes climb provider edges (BFS by distance).
	queue := append(k.queue[:0], int32(start))
	next := k.next[:0]
	for len(queue) > 0 {
		next = next[:0]
		for _, cur := range queue {
			for _, p := range g.ProviderIdx(int(cur)) {
				cand := route{class: classCustomer, dist: routes[cur].dist + 1, next: cur}
				if (routes[p].class == classNone || better(cand, routes[p])) && (adopt == nil || adopt(p, cand)) {
					if routes[p].class == classNone {
						next = append(next, int32(p))
					}
					routes[p] = cand
				}
			}
		}
		queue, next = next, queue
	}

	// Phase 2: one peer hop from any AS holding a customer route.
	for i := range routes {
		if routes[i].class != classCustomer {
			continue
		}
		for _, p := range g.PeerIdx(i) {
			if routes[p].class == classCustomer {
				continue
			}
			cand := route{class: classPeer, dist: routes[i].dist + 1, next: int32(i)}
			if (peerRoutes[p].class == classNone || better(cand, peerRoutes[p])) && (adopt == nil || adopt(p, cand)) {
				peerRoutes[p] = cand
			}
		}
	}
	for i := range routes {
		if peerRoutes[i].class == classPeer && routes[i].class == classNone {
			routes[i] = peerRoutes[i]
		}
	}

	// Phase 3: provider routes descend customer edges, BFS by distance
	// from every routed AS.
	queue = queue[:0]
	for i := range routes {
		if routes[i].class != classNone {
			queue = append(queue, int32(i))
		}
	}
	for len(queue) > 0 {
		next = next[:0]
		for _, cur := range queue {
			for _, c := range g.CustomerIdx(int(cur)) {
				cand := route{class: classProvider, dist: routes[cur].dist + 1, next: cur}
				if routes[c].class == classNone {
					if adopt == nil || adopt(c, cand) {
						routes[c] = cand
						next = append(next, int32(c))
					}
				} else if routes[c].class == classProvider && better(cand, routes[c]) && (adopt == nil || adopt(c, cand)) {
					routes[c] = cand
					// Distance improvements do not re-propagate in this
					// BFS-by-layers scheme; layering guarantees minimal
					// distances within the provider class.
				}
			}
		}
		queue, next = next, queue
	}
	k.queue, k.next = queue, next
}

// walk appends the dense path from AS i toward the origin of routes
// (inclusive on both ends) to dst. It returns dst unchanged and false
// when i is unrouted, or when the walk exceeds the graph size — a cycle
// would be a propagation bug, and yields no path rather than a loop.
func walk(routes []route, i int, dst []int32) ([]int32, bool) {
	if routes[i].class == classNone {
		return dst, false
	}
	start := len(dst)
	for {
		dst = append(dst, int32(i))
		nxt := routes[i].next
		if nxt < 0 {
			return dst, true
		}
		i = int(nxt)
		if len(dst)-start > len(routes) {
			return dst[:start], false
		}
	}
}
