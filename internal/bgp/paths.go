package bgp

import (
	"sort"

	"stateowned/internal/sched"
	"stateowned/internal/topology"
	"stateowned/internal/world"
)

// MonitorPaths is the collected RIB view: for each origin, every
// monitor's preferred path toward it (monitor AS first, origin last).
//
// The paths live in one flat origin-major arena of dense hop ids: row r
// holds origin r's paths, monitor by monitor, and a hop id names an AS
// through the node table. For a simulator collection the node table is
// the topology's dense index, so a hop id is the topology index of the
// AS. A MonitorPaths is immutable once built and safe for concurrent
// readers.
type MonitorPaths struct {
	Monitors []Monitor

	topo  *topology.Graph     // the graph collected over; nil for replays
	nodes []world.ASN         // hop id -> ASN
	rows  map[world.ASN]int32 // origin -> row
	off   []int32             // row r, monitor mi: hops[off[r*M+mi]:off[r*M+mi+1]]
	hops  []int32
	// patch, when non-nil, replaces the rows of the origins it holds
	// (the adversary overlay); it shares this set's monitors and nodes.
	patch *MonitorPaths
}

// OriginPaths is one origin's row of the arena: each monitor's path as
// dense hop ids. The zero value is an origin no monitor reaches.
type OriginPaths struct {
	off  []int32 // len(Monitors)+1 offsets into hops
	hops []int32
}

// Hops returns monitor mi's path as hop ids (monitor first, origin
// last), or nil when the monitor has no route. The slice is interior to
// the arena: callers must not mutate it.
func (o OriginPaths) Hops(mi int) []int32 {
	if o.off == nil || o.off[mi] == o.off[mi+1] {
		return nil
	}
	return o.hops[o.off[mi]:o.off[mi+1]]
}

// Origin returns origin's row, overlay included.
func (mp *MonitorPaths) Origin(origin world.ASN) OriginPaths {
	if mp.patch != nil {
		if r, ok := mp.patch.rows[origin]; ok {
			return mp.patch.row(r)
		}
	}
	r, ok := mp.rows[origin]
	if !ok {
		return OriginPaths{}
	}
	return mp.row(r)
}

func (mp *MonitorPaths) row(r int32) OriginPaths {
	m := len(mp.Monitors)
	base := int(r) * m
	return OriginPaths{off: mp.off[base : base+m+1], hops: mp.hops}
}

// Node returns the ASN a hop id names.
func (mp *MonitorPaths) Node(h int32) world.ASN { return mp.nodes[h] }

// NumNodes is the size of the node table: every hop id is below it.
func (mp *MonitorPaths) NumNodes() int { return len(mp.nodes) }

// Topology returns the graph the paths were collected over (nil for a
// replayed set); its dense indices are the set's honest hop ids.
func (mp *MonitorPaths) Topology() *topology.Graph { return mp.topo }

// Path returns monitor mi's preferred path to origin as ASNs (nil if
// none). It allocates; hot loops read Origin(origin).Hops(mi) instead.
func (mp *MonitorPaths) Path(mi int, origin world.ASN) []world.ASN {
	hops := mp.Origin(origin).Hops(mi)
	if hops == nil {
		return nil
	}
	path := make([]world.ASN, len(hops))
	for k, h := range hops {
		path[k] = mp.nodes[h]
	}
	return path
}

// MonitorsInAS counts monitors hosted per AS (CTI's w(m) denominator).
func (mp *MonitorPaths) MonitorsInAS() map[world.ASN]int {
	out := make(map[world.ASN]int)
	for _, m := range mp.Monitors {
		out[m.AS]++
	}
	return out
}

// worker is one pool slot's scratch: propagation kernels, created on
// first use, and the hop buffer the slot's rows are written to before
// assembly.
type worker struct {
	honest, hijack *kernel
	buf            []int32
}

func (w *worker) kernels(g *topology.Graph, hijack bool) (*kernel, *kernel) {
	if w.honest == nil {
		w.honest = newKernel(g)
	}
	if hijack && w.hijack == nil {
		w.hijack = newKernel(g)
	}
	return w.honest, w.hijack
}

// collect is the one fan-out every path collection runs: fill writes
// origin oi's row — each monitor's hops appended to w.buf, each length
// to lens[mi] — on a worker-pool slot, and the rows are then assembled
// in origin order into one arena, so the result is identical for every
// worker count (<= 0 selects GOMAXPROCS, 1 is fully serial).
func collect(g *topology.Graph, monitors []Monitor, origins []world.ASN, workers int,
	fill func(w *worker, oi int, lens []int32)) *MonitorPaths {
	m, n := len(monitors), len(origins)
	lens := make([]int32, n*m)
	type rowLoc struct{ slot, start int }
	at := make([]rowLoc, n)
	slots := make([]*worker, sched.Workers(workers))
	sched.ParallelForWorker(workers, n, func(s, oi int) {
		w := slots[s]
		if w == nil {
			w = &worker{}
			slots[s] = w
		}
		at[oi] = rowLoc{s, len(w.buf)}
		fill(w, oi, lens[oi*m:(oi+1)*m])
	})

	off := make([]int32, n*m+1)
	total := 0
	for i, l := range lens {
		off[i] = int32(total)
		total += int(l)
	}
	off[n*m] = int32(total)
	hops := make([]int32, total)
	rows := make(map[world.ASN]int32, n)
	for oi, o := range origins {
		rows[o] = int32(oi)
		lo, hi := off[oi*m], off[(oi+1)*m]
		if lo == hi {
			continue
		}
		src := slots[at[oi].slot].buf[at[oi].start:]
		copy(hops[lo:hi], src[:hi-lo])
	}
	return &MonitorPaths{Monitors: monitors, topo: g, nodes: g.ASes(), rows: rows, off: off, hops: hops}
}

// monitorIndex resolves each monitor's host AS to its dense index (-1
// when the AS is outside the graph and so has no routes).
func monitorIndex(g *topology.Graph, monitors []Monitor) []int {
	idx := make([]int, len(monitors))
	for mi, m := range monitors {
		idx[mi] = -1
		if i, ok := g.Index(m.AS); ok {
			idx[mi] = i
		}
	}
	return idx
}

// CollectPaths propagates each origin and records the monitors' preferred
// paths. Origins outside the graph are collected with no paths.
//
// Per-origin propagations are independent, so they run on a bounded
// worker pool of the given size (<= 0 selects GOMAXPROCS, 1 is fully
// serial — the pipeline's Workers knob plumbs through here so a serial
// run really is serial). Each pool slot reuses one propagation kernel
// for all its origins, and the rows are assembled in origin order.
func CollectPaths(g *topology.Graph, monitors []Monitor, origins []world.ASN, workers int) *MonitorPaths {
	monIdx := monitorIndex(g, monitors)
	return collect(g, monitors, origins, workers, func(w *worker, oi int, lens []int32) {
		oIdx, ok := g.Index(origins[oi])
		if !ok {
			return
		}
		k, _ := w.kernels(g, false)
		k.run(oIdx, 0, nil)
		for mi, i := range monIdx {
			if i < 0 {
				continue
			}
			before := len(w.buf)
			w.buf, _ = walk(k.routes, i, w.buf)
			lens[mi] = int32(len(w.buf) - before)
		}
	})
}

// ReplayPaths builds a MonitorPaths from externally supplied paths — one
// map per monitor, keyed by origin, each path running monitor-AS first
// and origin last. It serves replay tooling and golden tests that need a
// RIB view not produced by the simulator.
func ReplayPaths(monitors []Monitor, paths []map[world.ASN][]world.ASN) *MonitorPaths {
	if len(monitors) != len(paths) {
		panic("bgp: monitors and path maps must align")
	}
	ids := map[world.ASN]int32{}
	var origins []world.ASN
	for _, byOrigin := range paths {
		for o, p := range byOrigin {
			if _, seen := ids[o]; !seen {
				ids[o] = 0
				origins = append(origins, o)
			}
			for _, a := range p {
				ids[a] = 0
			}
		}
	}
	nodes := make([]world.ASN, 0, len(ids))
	for a := range ids {
		nodes = append(nodes, a)
	}
	world.SortASNs(nodes)
	for i, a := range nodes {
		ids[a] = int32(i)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })

	m := len(monitors)
	mp := &MonitorPaths{Monitors: monitors, nodes: nodes, rows: make(map[world.ASN]int32, len(origins))}
	mp.off = make([]int32, 0, len(origins)*m+1)
	for oi, o := range origins {
		mp.rows[o] = int32(oi)
		for mi := range monitors {
			mp.off = append(mp.off, int32(len(mp.hops)))
			for _, a := range paths[mi][o] {
				mp.hops = append(mp.hops, ids[a])
			}
		}
	}
	mp.off = append(mp.off, int32(len(mp.hops)))
	return mp
}
