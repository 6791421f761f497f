package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"time"

	"stateowned/internal/serve"
	"stateowned/internal/snapshot"
)

const (
	// chainLength is how many full-rebuild advances the reload chain runs.
	chainLength = 10
	// setups is how many times each workload sets up; setup_s is the
	// median, and the first is timed from process start.
	setups = 3
	// warmStarts is how many times a workload reopens its archive.
	warmStarts = 30
	// readAdvances and fleetAdvances are how many advances serve-read
	// and fleet-read run after their load (a fleet advance rebuilds
	// both shards).
	readAdvances  = 2
	fleetAdvances = 1
	// captureEvery samples one response in this many for the
	// correctness check.
	captureEvery = 16
	// hotKeys is the hot set's size: well under the 1024-entry cache.
	hotKeys = 256
	// streamLength is the request stream's length; a closed loop cycles
	// through it if it runs out.
	streamLength = 1 << 18
	// conns is the connection count of every load: the host has 2 cores.
	conns = 2
	// openLoopRate is serve-reload's send rate: low enough that the
	// server keeps up even while a rebuild holds both cores, so latency
	// shows the contention rather than an ever-growing queue.
	openLoopRate = 250
	// reloadAdvances is how many advances serve-reload runs beside its
	// reader, and reloadTail how long the reader runs after the last.
	reloadAdvances = 3
	reloadTail     = 500 * time.Millisecond
	// handlerReplay is how many requests the traced serve-read replays
	// in-process through ServeHTTP.
	handlerReplay = 20000
)

// window is the measured load duration of a closed loop.
func (r *run) window() time.Duration { return time.Duration(r.cfg.seconds) * time.Second }

func (r *run) loader(base string, reqs []request) *loader {
	return &loader{client: r.client, base: base, reqs: reqs, conns: conns,
		keepEvery: captureEvery, tr: r.tr, ids: &r.ids}
}

// warmUp runs half a second of unrecorded closed-loop load, so
// connections are open and caches filled before timing starts.
func (r *run) warmUp(base string, reqs []request) {
	l := r.loader(base, reqs)
	l.keepEvery, l.tr = 0, nil
	l.closedLoop(context.Background(), time.Second/2)
}

// finishSetups times setups-1 further set-ups (each torn down again)
// and reports setup_s as the median with the first.
func (r *run) finishSetups(first time.Duration, again func() error) error {
	xs := []float64{first.Seconds()}
	for i := 1; i < setups; i++ {
		runtime.GC()
		debug.FreeOSMemory()
		t := time.Now()
		if err := again(); err != nil {
			return fmt.Errorf("set-up %d: %w", i+1, err)
		}
		xs = append(xs, time.Since(t).Seconds())
	}
	r.timing("setup_s", xs)
	return nil
}

// againSingle sets up the one-process stack once more and tears it
// down; the set-up interval ends when /readyz answers.
func (r *run) againSingle(name string, incremental bool) func() error {
	return func() error {
		st, err := r.startSingle(name, incremental)
		if err != nil {
			return err
		}
		err = st.stop()
		removeAll(st.dir)
		return err
	}
}

// warmStart reopens the archive in dir n times, each a durable.Open and
// a snapshot.New over it until Current() is ready, and reports
// warm_start_s. It returns the last store.
func (r *run) warmStart(dir string, incremental bool, n int) (*snapshot.Store, error) {
	var xs []float64
	var last *snapshot.Store
	runtime.GC()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		a, err := r.openArchive(dir)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		s := snapshot.New(r.storeOptions(a, incremental))
		g := s.Current()
		t2 := time.Now()
		r.attempted++
		if s.RecoveredGen() < 0 || g == nil {
			r.fail("warm start %d rebuilt instead of recovering from the archive", i)
		}
		xs = append(xs, t2.Sub(t0).Seconds())
		r.sample("durable.open_ms", ms(t1.Sub(t0)))
		r.sample("snapshot.adopt_ms", ms(t2.Sub(t1)))
		op := int64(-1_000_000 - i)
		root := r.tr.add(0, "snapshot", "warm start", t0, t2, op)
		r.tr.add(root, "durable", "durable.Open", t0, t1, op)
		r.tr.add(root, "snapshot", "snapshot.New", t1, t2, op)
		last = s
	}
	r.timing("warm_start_s", xs)
	return last, nil
}

// fetch GETs url and returns the status, the X-Generation header and
// the body.
func fetch(client *http.Client, url string) (int, string, []byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get(serve.GenerationHeader), body, err
}

// traced installs the pipeline node log for the run's builds when the
// run is traced; the returned function uninstalls it.
func (r *run) traced() func() {
	if r.tr == nil {
		return func() {}
	}
	var restore func()
	r.nodes, restore = installNodeLog()
	return restore
}

// reloadWorkload: a cold build, a back-to-back chain of full-rebuild
// advances archiving to disk, a short closed loop on the rebuilt
// generation, then repeated warm starts from the archive; the last
// warm-started store must serve /v1/dataset byte-identical to the store
// before the restart, under the same generation.
func reloadWorkload(r *run) error {
	defer r.traced()()
	st, err := r.startSingle("reload", false)
	if err != nil {
		return err
	}
	first := time.Since(procStart)
	if r.tr != nil {
		r.probeBuild(r.lastBuild(), st.store.Current())
	}

	runtime.GC()
	rtBefore := readRuntime()
	var adv []float64
	for i := 0; i < chainLength; i++ {
		d, g := r.advance(st)
		adv = append(adv, d.Seconds())
		// Probing repeats the graph compile; three probes place the rest.
		if g != nil && r.tr != nil && i%4 == 0 {
			r.probeBuild(r.lastBuild(), g)
		}
	}
	r.timing("advance_s", adv)
	r.runtimeLayer(rtBefore, readRuntime(), 0)

	cur := st.store.Current()
	ks := keysOf(cur)
	reqs := sequence(r.cfg.seed, ks, streamLength)
	r.warmUp(st.http.base, sequence(r.cfg.seed+1, ks, streamLength))
	runtime.GC()
	before := statsOf(st.srv)
	res := r.loader(st.http.base, reqs).closedLoop(context.Background(), r.window())
	r.analyzeLoad(res)
	r.serverLayer(before, statsOf(st.srv), len(res.outcomes))
	r.checkCaptured(serve.NewDynamic(st.store.Source(), serve.Options{}), reqs, res.captured)
	if r.tr != nil {
		r.transportSelf("net", "serve")
	}

	status, preGen, pre, err := fetch(r.client, st.http.base+"/v1/dataset")
	r.attempted++
	if err != nil || status != http.StatusOK {
		r.fail("pre-restart /v1/dataset: status %d, %v", status, err)
	}
	if err := st.stop(); err != nil {
		return err
	}
	st.store = nil
	warm, err := r.warmStart(st.dir, false, warmStarts)
	if err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	serve.NewDynamic(warm.Source(), serveOptions()).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/dataset", nil))
	r.attempted++
	if got := rec.Header().Get(serve.GenerationHeader); rec.Code != http.StatusOK || got != preGen || !bytes.Equal(rec.Body.Bytes(), pre) {
		r.fail("warm-started /v1/dataset differs: status %d, generation %q (want %q), %d bytes (want %d)",
			rec.Code, got, preGen, rec.Body.Len(), len(pre))
	}
	r.e2e["peak_rss_mb"] = peakRSSMB()
	removeAll(st.dir)
	return r.finishSetups(first, r.againSingle("reload", false))
}

// serveReadWorkload: one generation, no reloads, a closed loop of 2
// keep-alive connections over cold keys; sampled answers must equal a
// cache-off reference server's over the same generation. The advances
// and the warm starts run after the load, outside it.
func serveReadWorkload(r *run) error {
	defer r.traced()()
	st, err := r.startSingle("serve-read", false)
	if err != nil {
		return err
	}
	first := time.Since(procStart)
	g := st.store.Current()
	if r.tr != nil {
		r.probeBuild(r.lastBuild(), g)
	}
	ks := keysOf(g)
	reqs := sequence(r.cfg.seed, ks, streamLength)
	r.warmUp(st.http.base, sequence(r.cfg.seed+1, ks, streamLength))

	before := statsOf(st.srv)
	res := r.measureLoad(func() loadResult {
		return r.loader(st.http.base, reqs).closedLoop(context.Background(), r.window())
	})
	r.analyzeLoad(res)
	r.serverLayer(before, statsOf(st.srv), len(res.outcomes))
	r.checkCaptured(serve.NewDynamic(st.store.Source(), serve.Options{}), reqs, res.captured)
	if r.tr != nil {
		r.transportSelf("net", "serve")
		r.probeHandler(st.srv, reqs, handlerReplay)
		r.probeLookups(g, ks)
	}

	var adv []float64
	for i := 0; i < readAdvances; i++ {
		d, g2 := r.advance(st)
		adv = append(adv, d.Seconds())
		if g2 != nil && r.tr != nil && i == 0 {
			r.probeBuild(r.lastBuild(), g2)
		}
	}
	r.timing("advance_s", adv)
	if err := st.stop(); err != nil {
		return err
	}
	st.store = nil
	if _, err := r.warmStart(st.dir, false, warmStarts); err != nil {
		return err
	}
	r.e2e["peak_rss_mb"] = peakRSSMB()
	removeAll(st.dir)
	return r.finishSetups(first, r.againSingle("serve-read", false))
}

// interval is one advance's span, as offsets from the load's epoch.
type interval struct{ a, b time.Duration }

// serveReloadWorkload: an incremental store advancing back to back in
// the background while an open loop reads a hot key set at a fixed
// rate. The work is fixed, not the time: a lead-in of --seconds/5 with
// no build, reloadAdvances advances back to back, and a short tail;
// the open loop runs across all of it. Each sampled answer must equal
// its pinned ?gen=<X-Generation> replay on a cache-off reference
// server.
func serveReloadWorkload(r *run) error {
	defer r.traced()()
	st, err := r.startSingle("serve-reload", true)
	if err != nil {
		return err
	}
	first := time.Since(procStart)
	ks := keysOf(st.store.Current())
	reqs := hotSequence(r.cfg.seed, ks, hotKeys, streamLength)
	r.warmUp(st.http.base, reqs)

	// The checker replays each sampled answer pinned to its generation
	// while that generation is still retained.
	ref := serve.NewDynamic(st.store.Source(), serve.Options{})
	// Deep enough that the checker never blocks a sender: at
	// openLoopRate, a capture arrives every captureEvery/openLoopRate s.
	sink := make(chan captured, 1024)
	type verdicts struct {
		checked, evicted int
		mismatches       []string
	}
	checked := make(chan verdicts)
	go func() {
		var v verdicts
		for c := range sink {
			err := sameAnswer(ref, withGen(reqs[c.seq%len(reqs)].path, c.gen), c)
			switch {
			case err == nil:
				v.checked++
			case c.gen >= 0 && genEvicted(st.store, c.gen):
				v.evicted++
			default:
				v.mismatches = append(v.mismatches, err.Error())
			}
		}
		checked <- v
	}()

	// The advancer waits out the lead-in, runs the advances, waits out
	// the tail and then ends the load.
	builtBefore, reusedBefore, _, _ := st.store.IncrementalCounters()
	loadCtx, endLoad := context.WithCancel(context.Background())
	started := make(chan time.Time, 1)
	advDone := make(chan struct{})
	var advs []float64
	var builds []interval
	go func() {
		defer close(advDone)
		defer endLoad()
		epoch := <-started
		time.Sleep(time.Until(epoch.Add(time.Duration(r.cfg.seconds) * time.Second / 5)))
		for i := 0; i < reloadAdvances; i++ {
			a := time.Since(epoch)
			d, _ := r.advance(st)
			advs = append(advs, d.Seconds())
			builds = append(builds, interval{a, time.Since(epoch)})
		}
		time.Sleep(reloadTail)
	}()

	before := statsOf(st.srv)
	l := r.loader(st.http.base, reqs)
	l.sink = sink
	l.started = started
	res := r.measureLoad(func() loadResult {
		return l.openLoop(loadCtx, openLoopRate, time.Minute)
	})
	<-advDone
	close(sink)
	v := <-checked

	r.analyzeLoad(res)
	r.serverLayer(before, statsOf(st.srv), len(res.outcomes))
	r.buildLatencySplit(res, builds)
	r.timing("advance_s", advs)
	built, reused, _, _ := st.store.IncrementalCounters()
	if total := (built - builtBefore) + (reused - reusedBefore); total > 0 && len(advs) > 0 {
		r.layer["snapshot.nodes_reused_frac"] = float64(reused-reusedBefore) / float64(total)
		r.layer["snapshot.nodes_total"] = float64(total) / float64(len(advs))
	}
	r.attempted += int64(len(v.mismatches))
	for _, m := range v.mismatches {
		r.fail("pinned replay mismatch: %s", m)
	}
	if v.checked == 0 {
		r.fail("no sampled answer could be replayed (%d evicted first)", v.evicted)
	}
	if r.tr != nil {
		r.transportSelf("net", "serve")
		r.probeBuild(r.lastBuild(), st.store.Current())
	}
	if err := st.stop(); err != nil {
		return err
	}
	st.store = nil
	if _, err := r.warmStart(st.dir, true, warmStarts); err != nil {
		return err
	}
	r.e2e["peak_rss_mb"] = peakRSSMB()
	removeAll(st.dir)
	return r.finishSetups(first, r.againSingle("serve-reload", true))
}

// genEvicted reports whether gen has left the store's retention ring.
func genEvicted(s *snapshot.Store, gen int) bool {
	_, st := s.Lookup(gen)
	return st == serve.GenEvicted
}

// buildLatencySplit sets the p99 latency of requests due while a build
// was running and of requests due between builds.
func (r *run) buildLatencySplit(res loadResult, builds []interval) {
	var during, between []float64
	for _, o := range res.outcomes {
		if o.err {
			continue
		}
		us := float64(o.latency()) / float64(time.Microsecond)
		in := false
		for _, b := range builds {
			if o.due >= b.a && o.due < b.b {
				in = true
				break
			}
		}
		if in {
			during = append(during, us)
		} else {
			between = append(between, us)
		}
	}
	if len(during) > 0 {
		r.layer["serve.p99_during_build_us"] = percentile(sortedCopy(during), 99)
	}
	if len(between) > 0 {
		r.layer["serve.p99_between_builds_us"] = percentile(sortedCopy(between), 99)
	}
}

// fleetReadWorkload: two shards and a router bootstrapped by the
// coordinator, a closed loop of 2 connections at the router over a hot
// key set; sampled router answers must equal a single-process server's
// over shard 0's store. Coordinated two-phase advances and the warm
// starts of shard 0's archive run after the load.
func fleetReadWorkload(r *run) error {
	fs, err := r.startFleet()
	if err != nil {
		return err
	}
	first := time.Since(procStart)
	g := fs.shards[0].store.Current()
	ks := keysOf(g)
	reqs := hotSequence(r.cfg.seed, ks, hotKeys, streamLength)
	r.warmUp(fs.http.base, reqs)

	before := fs.router.Metrics().Snapshot()
	res := r.measureLoad(func() loadResult {
		return r.loader(fs.http.base, reqs).closedLoop(context.Background(), r.window())
	})
	after := fs.router.Metrics().Snapshot()
	r.analyzeLoad(res)
	if n := float64(after.Requests - before.Requests); n > 0 {
		legs := float64(after.Legs - before.Legs)
		r.layer["fleet.legs_per_req"] = legs / n
		r.layer["fleet.fanout_frac"] = float64(after.Fanouts-before.Fanouts) / n
		r.layer["fleet.hedges_per_req"] = float64(after.Hedges-before.Hedges) / n
		r.layer["fleet.partial_frac"] = float64(after.Partials-before.Partials) / n
		r.layer["serve.shed_frac"] = float64(after.Shed-before.Shed) / n
		if legs > 0 {
			r.layer["fleet.leg_failure_frac"] = float64(after.LegFailures-before.LegFailures) / legs
		}
	}
	r.checkCaptured(serve.NewDynamic(fs.shards[0].store.Source(), serve.Options{}), reqs, res.captured)
	if r.tr != nil {
		r.transportSelf("net", "fleet")
		r.routerSelf()
	}

	var adv []float64
	for i := 1; i <= fleetAdvances; i++ {
		t := time.Now()
		gen, err := fs.coord.FlipOnce(context.Background())
		adv = append(adv, time.Since(t).Seconds())
		r.attempted++
		if err != nil || gen != g.Gen+i {
			r.fail("fleet advance %d: generation %d, %v", i, gen, err)
		}
	}
	r.timing("advance_s", adv)
	if err := fs.stop(); err != nil {
		return err
	}
	dir := fs.shards[0].dir
	fs = nil
	if _, err := r.warmStart(dir, false, warmStarts); err != nil {
		return err
	}
	r.e2e["peak_rss_mb"] = peakRSSMB()
	return r.finishSetups(first, func() error {
		fs, err := r.startFleet()
		if err != nil {
			return err
		}
		return fs.stop()
	})
}

// routerSelf sets fleet.router_self_us: per request, the router round
// trip seen by the client minus the slowest shard leg the router made
// for it, as a median.
func (r *run) routerSelf() {
	client := map[int64]time.Duration{}
	slowest := map[int64]time.Duration{}
	for _, s := range r.tr.snapshot() {
		if s.Req <= 0 {
			continue
		}
		d := s.End - s.Start
		switch s.Name {
		case "net.shard leg":
			slowest[s.Req] = max(slowest[s.Req], d)
		default:
			if s.Layer == "net" {
				client[s.Req] = d
			}
		}
	}
	var xs []float64
	for id, c := range client {
		if l, ok := slowest[id]; ok {
			xs = append(xs, float64(c-l)/float64(time.Microsecond))
		}
	}
	if len(xs) > 0 {
		r.layer["fleet.router_self_us"] = median(xs)
	}
}
