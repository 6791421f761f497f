package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"stateowned/internal/bgp"
	"stateowned/internal/churn"
	"stateowned/internal/graph"
	"stateowned/internal/rng"
	"stateowned/internal/runner"
	"stateowned/internal/serve"
	"stateowned/internal/snapshot"
	"stateowned/internal/world"
)

// buildObs is what a traced run saw of one generation build
// (snapshot.New or Store.TryAdvance): the call's interval, the pipeline
// nodes' start instants and walls, the archive's filesystem calls
// inside the interval, and the probed cost of the graph and index
// compiles the build performed.
type buildObs struct {
	name     string
	t0, t1   time.Time
	starts   map[string]time.Time
	timings  []runner.NodeTiming
	fs       []fsOp
	graphMS  float64 // NaN until probed; 0 when the build reused the graph
	indexMS  float64 // NaN until probed; 0 when the build reused the index
	allocMB  float64 // NaN when not measured
	gen      int
	advanced bool // a TryAdvance (a rebuild), not the initial build
}

// observeBuild records one build for the traced run. g is the
// generation the call produced (nil when it was quarantined).
func (r *run) observeBuild(name string, t0, t1 time.Time, g *snapshot.Generation, allocMB float64) *buildObs {
	if r.tr == nil || g == nil || g.Result == nil || g.Result.Health == nil {
		return nil
	}
	o := &buildObs{
		name: name, t0: t0, t1: t1, starts: r.nodes.between(t0, t1),
		timings: g.Result.Health.Timings, graphMS: math.NaN(), indexMS: math.NaN(),
		allocMB: allocMB, gen: g.Gen, advanced: name == "snapshot.Store.TryAdvance",
	}
	if r.fs != nil {
		o.fs = r.fs.writesBetween(t0, t1)
	}
	if g.Stats.GraphReused {
		o.graphMS = 0
	}
	if g.Stats.IndexReused {
		o.indexMS = 0
	}
	r.builds = append(r.builds, o)
	return o
}

// probeBuild times, by calling them directly, the graph compile and the
// index compile a build performed inside the store, over the same
// inputs. Call it only while nothing else runs: the probe repeats the
// work to time it.
func (r *run) probeBuild(o *buildObs, g *snapshot.Generation) {
	if o == nil {
		return
	}
	res := g.Result
	if math.IsNaN(o.graphMS) && res.Topology != nil {
		monitors := res.Monitors
		if monitors == nil {
			monitors = bgp.SelectMonitors(res.World, res.Topology, res.Config.Monitors)
		}
		t := time.Now()
		graph.Build(res.Topology, monitors, res.AS2Org, res.Config.Workers)
		o.graphMS = ms(time.Since(t))
	}
	if math.IsNaN(o.indexMS) {
		t := time.Now()
		serve.BuildIndex(res.Dataset)
		o.indexMS = ms(time.Since(t))
	}
	runtime.GC() // leave the probe's garbage out of the next measurement
}

// probeChurn times world.Generate directly, three times, and then
// replays the store's churn schedule on the last world up to generation
// maxGen, timing each churn.Evolve step. It runs after every measured
// phase. The world time splits a rebuild's pre-pipeline interval into
// world generation and churn replay; the step times turn the replay
// time into a count of Evolve calls.
func (r *run) probeChurn(maxGen int) {
	var gen []float64
	var w *world.World
	for i := 0; i < 3; i++ {
		t := time.Now()
		w = world.Generate(world.Config{Seed: worldSeed, Scale: worldScale})
		gen = append(gen, ms(time.Since(t)))
	}
	r.worldGenMS = median(gen)
	r.layer["world.generate_ms"] = r.worldGenMS
	schedule := rng.New(r.churnSeed())
	r.stepMS = []float64{0}
	for g := 1; g <= maxGen; g++ {
		t := time.Now()
		churn.Evolve(w, 1, schedule.Sub(fmt.Sprintf("generation/%d", g)).Uint64(), churn.DefaultRates())
		r.stepMS = append(r.stepMS, ms(time.Since(t)))
	}
}

// evolveCalls estimates how many Evolve steps a rebuild of generation
// gen ran in replay milliseconds: the n for which the last n steps of
// the schedule, as probeChurn timed them, cost closest to the replay.
// Replaying from scratch gives gen; deriving from the parent gives 1.
func (r *run) evolveCalls(gen int, replay float64) float64 {
	best, bestErr := 0, math.Inf(1)
	sum := 0.0
	for n := 1; n <= gen && gen < len(r.stepMS); n++ {
		sum += r.stepMS[gen-n+1]
		if e := math.Abs(sum - replay); e < bestErr {
			best, bestErr = n, e
		}
	}
	return float64(best)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// finalizeBuilds turns the build observations into spans and per-layer
// samples. Within one build, the spans are:
//
//	snapshot.<call>                       the benchmark's call
//	  world.Generate, churn.replay        before the first pipeline node;
//	                                      split by the probed world.Generate time
//	  pipeline.Run                        first node start .. last node end
//	    pipeline.<node>                   hook start + Health.Timings wall
//	  graph.Build, serve.BuildIndex       after the pipeline, probed durations
//	  durable.commit                      first .. last archive write-path call
//	    durable.<op>
//
// The call's own self time (what no child covers) is the validation
// gate, the swap, the retention ring and the archive record's encoding:
// snapshot.gate_swap_ms.
func (r *run) finalizeBuilds() {
	maxGen := 0
	for _, o := range r.builds {
		if o.advanced {
			maxGen = max(maxGen, o.gen)
		}
	}
	r.probeChurn(maxGen)
	graphFallback, indexFallback := r.probeMedians()
	for i, o := range r.builds {
		// Build operations take negative IDs, apart from HTTP requests'.
		op := int64(-(i + 1))
		root := r.tr.add(0, "snapshot", o.name, o.t0, o.t1, op)
		var kids []span
		add := func(layer, name string, a, b time.Time) int {
			id := r.tr.add(root, layer, name, a, b, op)
			kids = append(kids, span{Start: a.Sub(o.t0), End: b.Sub(o.t0)})
			return id
		}

		// Pipeline nodes that ran (reused nodes have no start).
		var ps, pe time.Time
		var busy time.Duration
		type nodeIv struct {
			name string
			a, b time.Time
		}
		var nodes []nodeIv
		for _, t := range o.timings {
			start, ok := o.starts[t.Node]
			if !ok || t.Reused {
				continue
			}
			end := start.Add(t.Wall)
			nodes = append(nodes, nodeIv{t.Node, start, end})
			busy += t.Wall
			if ps.IsZero() || start.Before(ps) {
				ps = start
			}
			if end.After(pe) {
				pe = end
			}
			switch t.Node {
			case "cti", "topology", "geo", "docs", "stage1", "stage2":
				r.sample("pipeline."+t.Node+"_ms", ms(t.Wall))
			}
		}
		if ps.IsZero() {
			ps, pe = o.t0, o.t0
		} else {
			pid := add("pipeline", "pipeline.Run", ps, pe)
			for _, n := range nodes {
				r.tr.add(pid, "pipeline", "pipeline."+n.name, n.a, n.b, op)
			}
			wall := pe.Sub(ps)
			r.sample("pipeline.wall_ms", ms(wall))
			r.sample("pipeline.busy_ms", ms(busy))
			if wall > 0 {
				r.sample("pipeline.parallelism", float64(busy)/float64(wall))
			}
		}

		// World generation and churn replay precede the first node.
		prelude := ms(ps.Sub(o.t0))
		worldMS := math.Min(r.worldGenMS, prelude)
		wEnd := o.t0.Add(time.Duration(worldMS * float64(time.Millisecond)))
		add("world", "world.Generate", o.t0, wEnd)
		if o.advanced {
			add("churn", "churn.replay", wEnd, ps)
			replay := prelude - worldMS
			r.sample("churn.replay_ms", replay)
			r.sample("churn.evolve_calls", r.evolveCalls(o.gen, replay))
		}

		// Graph and index compiles follow the pipeline.
		gms, ims := o.graphMS, o.indexMS
		if math.IsNaN(gms) {
			gms = graphFallback
		}
		if math.IsNaN(ims) {
			ims = indexFallback
		}
		cursor := pe
		if gms > 0 {
			end := cursor.Add(time.Duration(gms * float64(time.Millisecond)))
			add("graph", "graph.Build", cursor, end)
			cursor = end
		}
		if ims > 0 {
			add("serve", "serve.BuildIndex", cursor, cursor.Add(time.Duration(ims*float64(time.Millisecond))))
		}
		if !math.IsNaN(o.graphMS) && o.graphMS > 0 {
			r.sample("graph.build_ms", o.graphMS)
		}
		if !math.IsNaN(o.indexMS) && o.indexMS > 0 {
			r.sample("serve.index_build_ms", o.indexMS)
		}

		// The archive's write path.
		if len(o.fs) > 0 {
			first, last := o.fs[0].start, o.fs[0].end
			fsyncs, bytes := 0, 0
			for _, fo := range o.fs {
				if fo.start.Before(first) {
					first = fo.start
				}
				if fo.end.After(last) {
					last = fo.end
				}
				if fo.fsync {
					fsyncs++
				}
				bytes += fo.bytes
			}
			cid := add("durable", "durable.commit", first, last)
			for _, fo := range o.fs {
				r.tr.add(cid, "durable", "durable."+fo.op, fo.start, fo.end, op)
			}
			r.sample("durable.commit_ms", ms(last.Sub(first)))
			r.sample("durable.fsyncs_per_commit", float64(fsyncs))
			r.sample("durable.bytes_per_commit", float64(bytes))
		}
		if !math.IsNaN(o.allocMB) {
			r.sample("runtime.alloc_mb_per_advance", o.allocMB)
		}

		// What no child covers is the store's own work.
		self := o.t1.Sub(o.t0) - covered(0, o.t1.Sub(o.t0), kids)
		if o.advanced {
			r.sample("snapshot.gate_swap_ms", ms(self))
		}
	}
}

// probeMedians are the median probed graph and index compile times,
// used to place those spans in builds that were not probed themselves.
func (r *run) probeMedians() (graphMS, indexMS float64) {
	var gs, is []float64
	for _, o := range r.builds {
		if !math.IsNaN(o.graphMS) && o.graphMS > 0 {
			gs = append(gs, o.graphMS)
		}
		if !math.IsNaN(o.indexMS) && o.indexMS > 0 {
			is = append(is, o.indexMS)
		}
	}
	graphMS, indexMS = math.NaN(), math.NaN()
	if len(gs) > 0 {
		graphMS = median(gs)
	}
	if len(is) > 0 {
		indexMS = median(is)
	}
	return graphMS, indexMS
}

// advance runs one Store.TryAdvance, counting it as an operation and a
// quarantine as a failure. It returns the call's duration and the new
// generation (nil when quarantined).
func (r *run) advance(st *single) (time.Duration, *snapshot.Generation) {
	var before rtStats
	if r.tr != nil {
		before = readRuntime()
	}
	t0 := time.Now()
	g, err := st.store.TryAdvance()
	t1 := time.Now()
	r.attempted++
	if err != nil {
		r.fail("advance quarantined: %v", err)
		return t1.Sub(t0), nil
	}
	alloc := math.NaN()
	if r.tr != nil {
		alloc = float64(readRuntime().totalAlloc-before.totalAlloc) / (1 << 20)
	}
	r.observeBuild("snapshot.Store.TryAdvance", t0, t1, g, alloc)
	return t1.Sub(t0), g
}

// lastBuild is the most recent build observation (nil when untraced).
func (r *run) lastBuild() *buildObs {
	if len(r.builds) == 0 {
		return nil
	}
	return r.builds[len(r.builds)-1]
}
