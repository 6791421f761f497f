package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"stateowned/internal/serve"
	"stateowned/internal/snapshot"
	"stateowned/internal/world"
)

// keysOf is the key space of one generation: its state-owned ASNs,
// every world ASN, its countries and its organizations.
func keysOf(g *snapshot.Generation) keySpace {
	ds := g.Index.Dataset()
	var ks keySpace
	for _, row := range ds.ASNs {
		ks.ownedASNs = append(ks.ownedASNs, row.ASNs...)
	}
	world.SortASNs(ks.ownedASNs)
	ks.worldASNs = append([]world.ASN(nil), g.World.ASNList...)
	world.SortASNs(ks.worldASNs)
	ks.countries = append([]string(nil), g.World.Countries...)
	sort.Strings(ks.countries)
	for _, o := range ds.Organizations {
		ks.orgNames = append(ks.orgNames, o.OrgName)
		ks.orgIDs = append(ks.orgIDs, o.OrgID)
	}
	return ks
}

// analyzeLoad turns one load phase into the serving end-to-end metrics
// and the per-endpoint socket latencies, and counts its failures: a
// transport error, any status but 200 and 404 (the answers a
// well-formed request of the mix gets), and every send the open loop
// missed.
func (r *run) analyzeLoad(res loadResult) {
	var lat []float64
	perEP := make([][]float64, numEndpoints)
	var bytesOut int
	for _, o := range res.outcomes {
		r.attempted++
		switch {
		case o.err:
			r.fail("request %d (%s): transport error", o.seq, endpointNames[o.ep])
			continue
		case o.status != http.StatusOK && o.status != http.StatusNotFound:
			r.fail("request %d (%s): unexpected status %d", o.seq, endpointNames[o.ep], o.status)
			continue
		}
		us := float64(o.latency()) / float64(time.Microsecond)
		lat = append(lat, us)
		perEP[o.ep] = append(perEP[o.ep], us)
		bytesOut += o.bytes
	}
	r.attempted += int64(res.missed)
	for i := 0; i < res.missed; i++ {
		r.fail("open loop missed a send (queue full)")
	}
	r.timing("latency_p50_us", lat)
	sorted := sortedCopy(lat)
	r.e2e["latency_p99_us"] = percentile(sorted, 99)
	r.e2e["req_per_s"] = float64(len(lat)) / res.elapsed.Seconds()
	for ep, xs := range perEP {
		if len(xs) > 0 {
			r.layer["net."+endpointNames[ep]+"_p50_us"] = median(xs)
		}
	}
	if len(lat) > 0 {
		r.layer["serve.bytes_per_resp"] = float64(bytesOut) / float64(len(lat))
	}
	if len(res.lagMS) > 0 {
		r.layer["loadgen.lag_ms"] = percentile(sortedCopy(res.lagMS), 99)
	}
}

// sameAnswer compares a captured socket answer with a reference
// handler's answer to path.
func sameAnswer(ref http.Handler, path string, c captured) error {
	rec := httptest.NewRecorder()
	ref.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != c.status {
		return fmt.Errorf("%s: status %d, reference %d", path, c.status, rec.Code)
	}
	if g := rec.Header().Get(serve.GenerationHeader); g != "" && g != strconv.Itoa(c.gen) {
		return fmt.Errorf("%s: generation %d, reference %s", path, c.gen, g)
	}
	if !bytes.Equal(rec.Body.Bytes(), c.body) {
		return fmt.Errorf("%s: body differs from the reference (%d vs %d bytes)", path, len(c.body), rec.Body.Len())
	}
	return nil
}

// checkCaptured compares every captured answer with ref's answer to the
// same request; each mismatch is a failure.
func (r *run) checkCaptured(ref http.Handler, reqs []request, caps []captured) {
	if len(caps) == 0 {
		r.fail("no responses were captured for the correctness check")
	}
	for _, c := range caps {
		if err := sameAnswer(ref, reqs[c.seq%len(reqs)].path, c); err != nil {
			r.fail("mismatch: %v", err)
		}
	}
}

// withGen pins a request path to generation gen.
func withGen(path string, gen int) string {
	sep := "?"
	if strings.Contains(path, "?") {
		sep = "&"
	}
	return path + sep + "gen=" + strconv.Itoa(gen)
}

// serverStats are a serve.Server's counters at one instant.
type serverStats struct {
	cache    serve.CacheStats
	adm      serve.AdmissionStats
	deadline uint64
}

func statsOf(srv *serve.Server) serverStats {
	return serverStats{cache: srv.CacheStats(), adm: srv.AdmissionStats(),
		deadline: srv.Metrics().Snapshot().DeadlineExceededTotal}
}

// serverLayer sets the serve-layer counters from the change in a
// server's counters over a load of n requests.
func (r *run) serverLayer(before, after serverStats, n int) {
	hits := after.cache.Hits - before.cache.Hits
	misses := after.cache.Misses - before.cache.Misses
	r.layer["serve.cache_lookups"] = float64(hits + misses)
	if hits+misses > 0 {
		r.layer["serve.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	shed := (after.adm.ShedQueueFull + after.adm.ShedTimeout + after.adm.ShedCanceled) -
		(before.adm.ShedQueueFull + before.adm.ShedTimeout + before.adm.ShedCanceled)
	if n > 0 {
		r.layer["serve.shed_frac"] = float64(shed) / float64(n)
	}
	r.layer["serve.deadline_exceeded"] = float64(after.deadline - before.deadline)
}

// runtimeLayer sets the runtime counters from the change over a phase
// that served n requests.
func (r *run) runtimeLayer(before, after rtStats, n int) {
	r.layer["runtime.gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		r.layer["runtime.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / cpu
	}
	if n > 0 {
		r.layer["serve.alloc_bytes_per_req"] = float64(after.totalAlloc-before.totalAlloc) / float64(n)
	}
}

// probeHandler replays the first n requests of the stream through the
// server's ServeHTTP in-process, without a socket, and reports the
// median handler time.
func (r *run) probeHandler(h http.Handler, reqs []request, n int) {
	var xs []float64
	for i := 0; i < n && i < len(reqs); i++ {
		req := httptest.NewRequest(http.MethodGet, reqs[i].path, nil)
		rec := httptest.NewRecorder()
		t := time.Now()
		h.ServeHTTP(rec, req)
		xs = append(xs, float64(time.Since(t))/float64(time.Microsecond))
	}
	r.layer["serve.handler_p50_us"] = median(xs)
}

// probeLookups times the index's ASN lookup and the graph's cone and
// path queries by direct calls over the generation's key space, in the
// mix's proportions (6 cones to 1 path).
func (r *run) probeLookups(g *snapshot.Generation, ks keySpace) {
	rng := rand.New(rand.NewPCG(r.cfg.seed, 7))
	const lookups = 200000
	asns := make([]world.ASN, lookups)
	for i := range asns {
		if i%2 == 0 {
			asns[i] = ks.ownedASNs[rng.IntN(len(ks.ownedASNs))]
		} else {
			asns[i] = ks.worldASNs[rng.IntN(len(ks.worldASNs))]
		}
	}
	owned := 0
	t := time.Now()
	for _, a := range asns {
		if _, _, ok := g.Index.ASN(a); ok {
			owned++
		}
	}
	r.layer["serve.index_lookup_ns"] = float64(time.Since(t)) / lookups
	if owned == 0 {
		r.fail("index probe: no state-owned ASN found among %d lookups", lookups)
	}
	gr := g.View().Graph
	if gr == nil {
		return
	}
	const queries = 7000
	members := 0
	t = time.Now()
	for i := 0; i < queries; i++ {
		a := asns[i]
		if i%7 == 6 {
			members += len(gr.Path(asns[i+1], a))
		} else {
			members += len(gr.Cone(a))
		}
	}
	r.layer["graph.query_ns"] = float64(time.Since(t)) / queries
	if members == 0 {
		r.fail("graph probe: every query came back empty")
	}
}

// transportSelf sets net.transport_self_us: per request, the socket
// round trip minus the server handler's span, as a median.
func (r *run) transportSelf(clientLayer, serverLayer string) {
	client := map[int64]time.Duration{}
	server := map[int64]time.Duration{}
	for _, s := range r.tr.snapshot() {
		if s.Req <= 0 {
			continue
		}
		switch s.Layer {
		case clientLayer:
			if strings.HasPrefix(s.Name, "net.GET") {
				client[s.Req] = s.End - s.Start
			}
		case serverLayer:
			server[s.Req] = s.End - s.Start
		}
	}
	var xs []float64
	for id, c := range client {
		if sv, ok := server[id]; ok {
			xs = append(xs, float64(c-sv)/float64(time.Microsecond))
		}
	}
	if len(xs) > 0 {
		r.layer["net.transport_self_us"] = median(xs)
	}
}

// measureLoad runs fn (a load phase serving n requests when it returns)
// between runtime snapshots and records the runtime counters.
func (r *run) measureLoad(fn func() loadResult) loadResult {
	runtime.GC()
	before := readRuntime()
	res := fn()
	r.runtimeLayer(before, readRuntime(), len(res.outcomes))
	return res
}
