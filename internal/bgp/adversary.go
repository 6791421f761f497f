// Adversarial origination: seeded prefix-hijack campaigns layered on the
// honest Gao-Rexford simulator. Each campaign is one invalid announcement
// competing with the victim's legitimate route inside the same valley-free
// selection; per-AS ROV flags gate both adoption and re-export of the
// invalid route, so raising ROV deployment can only shrink the infected
// set. The honest route field is computed first and never perturbed — we
// model pollution of observed paths, not withdrawal-induced re-selection —
// which is exactly what makes rov=1.0 runs byte-identical to the honest
// simulator.

package bgp

import (
	"sort"

	"stateowned/internal/topology"
	"stateowned/internal/world"
)

// CampaignKind classifies how an invalid announcement is shaped.
type CampaignKind uint8

const (
	// ExactPrefix re-originates the victim's exact prefix from the
	// hijacker: it wins only where Gao-Rexford prefers it over the
	// honest route, and detection sees the hijacker as origin.
	ExactPrefix CampaignKind = iota
	// SubPrefix announces a more-specific of the victim's prefix:
	// longest-prefix match means every AS the announcement reaches
	// routes via it regardless of preference.
	SubPrefix
	// ForgedPath re-originates the exact prefix behind a fabricated
	// upstream tail ending in the victim, so the observed origin stays
	// the registered one — the campaign evades origin-based detection
	// while still polluting transit observations.
	ForgedPath
)

// String names the kind for reports and tables.
func (k CampaignKind) String() string {
	switch k {
	case ExactPrefix:
		return "exact-prefix"
	case SubPrefix:
		return "sub-prefix"
	case ForgedPath:
		return "forged-path"
	}
	return "unknown"
}

// Campaign is one invalid announcement: Hijacker claims (part of) a
// prefix registered to Victim. Forged lists the fabricated intermediate
// hops of a ForgedPath announcement, hijacker-adjacent first; the wire
// path a polluted monitor observes is
//
//	monitor ... hijacker, Forged..., Victim   (ForgedPath)
//	monitor ... hijacker                       (ExactPrefix, SubPrefix)
type Campaign struct {
	Kind     CampaignKind
	Victim   world.ASN
	Hijacker world.ASN
	Forged   []world.ASN
}

// Adversary bundles a generation's campaigns with the ROV deployment set
// gating them. A nil or campaign-less adversary is inert and the
// collectors below delegate to the honest path.
type Adversary struct {
	Campaigns []Campaign
	ROV       map[world.ASN]bool
}

// Active reports whether the adversary can perturb any route at all.
func (a *Adversary) Active() bool { return a != nil && len(a.Campaigns) > 0 }

// inert reports whether one campaign cannot inject routes: the hijacker
// is outside the topology, self-targeting, or itself validates origins
// (a validating operator drops its own invalid route before export).
func inert(g *topology.Graph, c Campaign, rov map[world.ASN]bool) bool {
	if c.Hijacker == c.Victim || !g.Active(c.Hijacker) {
		return true
	}
	return rov[c.Hijacker]
}

// tailLen is the AS-path length the announcement already carries when it
// leaves the hijacker: zero for origination claims, the fabricated tail
// plus the victim for forged paths (padding that also makes forged
// routes less attractive, as in real path-prepending economics).
func (c Campaign) tailLen() int32 {
	if c.Kind == ForgedPath {
		return int32(len(c.Forged)) + 1
	}
	return 0
}

// hijackGate is the adoption gate that runs the propagation kernel as
// one campaign's announcement, given the victim's honest routes: ROV
// deployers drop the invalid route outright, the victim filters its own
// space, and for same-prefix campaigns an AS adopts only where the
// candidate beats its honest route under the standard comparator.
// Non-adopters never re-export, so removing propagation paths (more
// ROV) can only lengthen or remove downstream candidates — adoption is
// monotone non-increasing in the deployment set.
func hijackGate(g *topology.Graph, honest []route, c Campaign, rov map[world.ASN]bool) func(int, route) bool {
	hIdx, _ := g.Index(c.Hijacker)
	vIdx, _ := g.Index(c.Victim)
	return func(p int, cand route) bool {
		if p == vIdx || p == hIdx {
			return false // the victim filters its own space; the hijacker originated
		}
		if rov[g.ASNAt(p)] {
			return false
		}
		if c.Kind == SubPrefix {
			return true // longest-prefix match: no competition with the honest route
		}
		hr := honest[p]
		return hr.class == classNone || better(cand, hr)
	}
}

// propagateHijack runs the honest propagation toward the victim on
// honest and, unless the campaign is inert, the campaign's announcement
// on hijack with the same three valley-free phases, gated per AS by
// hijackGate. It returns the per-AS hijack routes (classNone where the
// announcement was not adopted), or nil when nothing was injected. The
// victim must be in the graph.
func propagateHijack(g *topology.Graph, honest, hijack *kernel, c Campaign, rov map[world.ASN]bool) []route {
	vIdx, _ := g.Index(c.Victim)
	honest.run(vIdx, 0, nil)
	if inert(g, c, rov) {
		return nil
	}
	hIdx, _ := g.Index(c.Hijacker)
	hijack.run(hIdx, c.tailLen(), hijackGate(g, honest.routes, c, rov))
	return hijack.routes
}

// Spread returns the ASes that adopt campaign c's announcement under the
// given ROV set, sorted ascending — the campaign's infection footprint.
// The metamorphic battery asserts this set shrinks as ROV deployment
// grows; the adversary overlay uses the identical propagation.
func Spread(g *topology.Graph, c Campaign, rov map[world.ASN]bool) []world.ASN {
	if !g.Active(c.Victim) {
		return nil
	}
	routes := propagateHijack(g, newKernel(g), newKernel(g), c, rov)
	if routes == nil {
		return nil
	}
	hIdx, _ := g.Index(c.Hijacker)
	var out []world.ASN
	for i, r := range routes {
		if r.class != classNone && i != hIdx {
			out = append(out, g.ASNAt(i))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Overlay returns the path set as the adversary's monitors observe it:
// each campaign victim's row is replaced by the walk to the hijacker
// plus the announcement's claimed tail where the invalid route was
// adopted, and the honest path everywhere else. Only victims re-run the
// kernel; every other origin keeps the receiver's row, and an inert
// adversary returns the receiver itself. At most one campaign applies
// per victim origin (the first listed wins), mirroring
// one-prefix-one-attack plan generation. The receiver must be a
// simulator collection (CollectPaths) without an overlay of its own.
func (mp *MonitorPaths) Overlay(adv *Adversary, workers int) *MonitorPaths {
	if !adv.Active() {
		return mp
	}
	g := mp.topo
	if g == nil || mp.patch != nil {
		panic("bgp: Overlay needs an honest simulator path collection")
	}
	var victims []world.ASN
	var camps []Campaign
	seen := make(map[world.ASN]bool, len(adv.Campaigns))
	for _, c := range adv.Campaigns {
		if seen[c.Victim] {
			continue
		}
		seen[c.Victim] = true
		if _, ok := mp.rows[c.Victim]; ok && g.Active(c.Victim) {
			victims = append(victims, c.Victim)
			camps = append(camps, c)
		}
	}
	if len(victims) == 0 {
		return mp
	}

	// A forged tail may name ASes outside the graph: they get hop ids
	// past the topology's, in a node table extended for this overlay.
	nodes := mp.nodes[:len(mp.nodes):len(mp.nodes)]
	ext := map[world.ASN]int32{}
	id := func(a world.ASN) int32 {
		if i, ok := g.Index(a); ok {
			return int32(i)
		}
		if h, ok := ext[a]; ok {
			return h
		}
		ext[a] = int32(len(nodes))
		nodes = append(nodes, a)
		return ext[a]
	}
	tails := make([][]int32, len(camps))
	for ci, c := range camps {
		if c.Kind != ForgedPath {
			continue
		}
		for _, f := range c.Forged {
			tails[ci] = append(tails[ci], id(f))
		}
		tails[ci] = append(tails[ci], id(c.Victim))
	}

	monIdx := monitorIndex(g, mp.Monitors)
	patch := collect(g, mp.Monitors, victims, workers, func(w *worker, oi int, lens []int32) {
		honest, hijack := w.kernels(g, true)
		hij := propagateHijack(g, honest, hijack, camps[oi], adv.ROV)
		for mi, i := range monIdx {
			if i < 0 {
				continue
			}
			before := len(w.buf)
			if hij != nil && hij[i].class != classNone {
				var ok bool
				if w.buf, ok = walk(hij, i, w.buf); ok {
					w.buf = append(w.buf, tails[oi]...)
				}
			} else {
				w.buf, _ = walk(honest.routes, i, w.buf)
			}
			lens[mi] = int32(len(w.buf) - before)
		}
	})
	patch.nodes = nodes
	out := *mp
	out.nodes = nodes
	out.patch = patch
	return &out
}

// Honest returns the path set without its adversary overlay: the
// receiver itself when it has none.
func (mp *MonitorPaths) Honest() *MonitorPaths {
	if mp.patch == nil {
		return mp
	}
	out := *mp
	out.patch = nil
	return &out
}

// CollectPathsAdversary is CollectPaths with an adversary in the control
// plane: the honest collection with the campaign victims overlaid (see
// Overlay). Origins without a campaign — and every origin when the
// adversary is inert — take the honest propagation byte-for-byte.
func CollectPathsAdversary(g *topology.Graph, monitors []Monitor, origins []world.ASN, workers int, adv *Adversary) *MonitorPaths {
	return CollectPaths(g, monitors, origins, workers).Overlay(adv, workers)
}
