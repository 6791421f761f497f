package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stateowned/internal/runner"
	"stateowned/internal/serve"
)

// ShardsFailedHeader names the shards whose legs were lost on a
// degraded (206) or exhausted (503) fan-out, comma-separated.
const ShardsFailedHeader = "X-Shards-Failed"

// Router fan-out defaults.
const (
	// DefaultRequestTimeout is the router's per-request budget.
	DefaultRequestTimeout = 2 * time.Second
	// DefaultBreakerProbeEvery is how often an open breaker lets a probe
	// leg through (every Nth denial) so a recovered shard is rediscovered
	// without waiting for an operator.
	DefaultBreakerProbeEvery = 8
)

// Leg-failure sentinels (classified, never written to the wire).
var (
	errBreakerOpen = errors.New("fleet: shard breaker open")
	errLegDeadline = errors.New("fleet: leg deadline exceeded")
)

// RouterOptions configures a Router.
type RouterOptions struct {
	// Partition is the fleet's partition function; Shards must hold one
	// client per partition shard, in shard order.
	Partition Partition
	Shards    []ShardClient
	// InitialGen is the committed fleet generation the router starts
	// pinning (normally adopted from Bootstrap).
	InitialGen int

	// Admission bounds router-level concurrency; nil admits everything.
	Admission *serve.AdmissionConfig

	// RequestTimeout is the full-request budget (0 = 2s). LegTimeout is
	// the per-shard leg deadline carved from it (0 = RequestTimeout/2) —
	// a leg that misses it is a failed leg, not a stalled request.
	// HedgeAfter is how long a leg waits before duplicating itself to
	// the same shard (0 = LegTimeout/4); transport-level errors hedge
	// immediately.
	RequestTimeout time.Duration
	LegTimeout     time.Duration
	HedgeAfter     time.Duration

	// BreakerThreshold opens a shard's circuit after that many
	// consecutive transport failures (0 = runner default of 4);
	// BreakerProbeEvery lets every Nth denied leg through as a probe
	// (0 = 8).
	BreakerThreshold  int
	BreakerProbeEvery int

	// SearchLimit caps /v1/search results (<= 0 = 10); shards in the
	// same fleet must be configured with the same limit for the merged
	// top-K to equal the single-process top-K.
	SearchLimit int

	// After is the injectable timer all router waits run on (nil =
	// time.After); tests drive hedging, leg deadlines and admission on a
	// virtual clock through it.
	After serve.After

	// Lifecycle carries the listener hardening for Serve.
	Lifecycle serve.LifecycleOptions
}

// Router is the fleet's front door. It owns the committed fleet
// generation: every shard leg — fast path included — is pinned to it
// with ?gen=, and a leg answering from any other generation is
// discarded as incoherent, so no response ever mixes generations even
// while a two-phase flip is mid-flight. Around that coherence core it
// wraps the fan-out robustness: per-shard circuit breakers with probe
// recovery, per-leg deadlines, one hedged retry, partial (206)
// envelopes for minority leg loss, and router-level admission shedding.
type Router struct {
	// spine is the serve package's containment spine — admission, panic
	// barrier, single writer — run without request deadlines: legs carry
	// their own.
	spine      *serve.Spine
	part       Partition
	shards     []*shardState
	gen        atomic.Int64
	metrics    Metrics
	after      serve.After
	legTimeout time.Duration
	hedgeAfter time.Duration
	probeEvery int
	searchLim  int
	life       serve.LifecycleOptions
	rr         atomic.Uint64              // any-shard rotation cursor
	flip       atomic.Pointer[FlipStatus] // coordinator's last report
}

// shardState is the router's per-shard fan-out state: the client plus a
// mutex-wrapped circuit breaker (runner.Breaker is not goroutine-safe)
// with probe-through recovery.
type shardState struct {
	client ShardClient

	mu      sync.Mutex
	br      *runner.Breaker
	denials int
}

func (ss *shardState) allow(probeEvery int) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.br.Allow() {
		return true
	}
	ss.denials++
	return ss.denials%probeEvery == 0
}

func (ss *shardState) success() {
	ss.mu.Lock()
	ss.br.Success()
	ss.denials = 0
	ss.mu.Unlock()
}

func (ss *shardState) failure() {
	ss.mu.Lock()
	ss.br.Failure()
	ss.mu.Unlock()
}

func (ss *shardState) open() bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return ss.br.Open()
}

// NewRouter assembles the fleet router.
func NewRouter(opts RouterOptions) (*Router, error) {
	if len(opts.Shards) != opts.Partition.Shards {
		return nil, fmt.Errorf("fleet: %d shard clients for a %d-shard partition",
			len(opts.Shards), opts.Partition.Shards)
	}
	rt := &Router{
		part:       opts.Partition,
		after:      opts.After,
		legTimeout: opts.LegTimeout,
		hedgeAfter: opts.HedgeAfter,
		probeEvery: opts.BreakerProbeEvery,
		searchLim:  opts.SearchLimit,
		life:       opts.Lifecycle,
	}
	reqTimeout := opts.RequestTimeout
	if reqTimeout <= 0 {
		reqTimeout = DefaultRequestTimeout
	}
	if rt.legTimeout <= 0 {
		rt.legTimeout = reqTimeout / 2
	}
	if rt.hedgeAfter <= 0 {
		rt.hedgeAfter = rt.legTimeout / 4
	}
	if rt.probeEvery <= 0 {
		rt.probeEvery = DefaultBreakerProbeEvery
	}
	if rt.searchLim <= 0 {
		rt.searchLim = 10
	}
	if rt.after == nil {
		rt.after = time.After
	}
	rt.spine = serve.NewSpine(nil, opts.Admission, 0, rt.after)
	rt.metrics.spine = rt.spine.Metrics()
	for i, c := range opts.Shards {
		c.Index = i
		rt.shards = append(rt.shards, &shardState{
			client: c,
			br:     runner.NewBreaker(opts.BreakerThreshold),
		})
	}
	rt.gen.Store(int64(opts.InitialGen))
	// what names each route's answer in the 503 a fleet that lost every
	// shard gives; nil fn routes go to any one shard's full plane (graph
	// answers and hijack detections are global observations, never
	// range-carved; the dataset and the diff are whole-build answers).
	for _, r := range []struct {
		route *serve.Route
		what  string
		fn    func(ctx context.Context, q *serve.Request, target, pin string) serve.Response
	}{
		{serve.ASNRoute, "the request", rt.handleASN},
		{serve.CountryRoute, "the request", rt.handleCountry},
		{serve.OrgRoute, "the request", rt.handleOrg},
		{serve.SearchRoute, "the request", rt.handleSearch},
		{serve.DatasetRoute, "the dataset", nil},
		{serve.DiffRoute, "the diff", nil},
		{serve.NeighborsRoute, "the graph query", nil},
		{serve.UpstreamsRoute, "the graph query", nil},
		{serve.ConeRoute, "the graph query", nil},
		{serve.PathRoute, "the graph query", nil},
		{serve.HijacksRoute, "the graph query", nil},
	} {
		rt.spine.Handle(r.route, rt.routed(r.route, r.what, r.fn))
	}
	rt.spine.Handle(serve.ReadyzRoute, rt.handleReadyz)
	rt.spine.Handle(serve.MetricsRoute, rt.handleMetrics)
	return rt, nil
}

// Gen returns the committed fleet generation the router is pinning.
func (rt *Router) Gen() int { return int(rt.gen.Load()) }

// SetGen flips the router to a newly committed fleet generation — the
// coordinator's final act of a successful two-phase reload. One atomic
// store: requests in flight keep their already-resolved pin.
func (rt *Router) SetGen(gen int) { rt.gen.Store(int64(gen)) }

// Metrics exposes the router's fleet accounting.
func (rt *Router) Metrics() *Metrics { return &rt.metrics }

// setFlipStatus records the coordinator's latest flip report for
// /readyz.
func (rt *Router) setFlipStatus(st FlipStatus) { rt.flip.Store(&st) }

// ServeHTTP routes one request through the spine.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) { rt.spine.ServeHTTP(w, r) }

// Serve runs the router on ln with the hardened lifecycle until ctx is
// canceled.
func (rt *Router) Serve(ctx context.Context, ln net.Listener) error {
	return serve.ServeHandler(ctx, ln, rt, rt.life)
}

// routed parses a /v1 request with the shared parser and pins it: the
// client's explicit ?gen= (time travel within the retention ring), the
// committed fleet generation otherwise (/v1/diff names its own
// generations and pins none). A malformed ?gen= is answered here. A
// malformed parameter is not: its answer depends on the pinned
// generation (404/410 if no shard holds it, a missing graph plane, an
// AS absent from the topology), so it goes, by its raw target, to any
// one shard's full plane, whose parser gives exactly the single-process
// answer. Every other request goes to fn — or, for nil fn, by its
// canonical target to any one shard's full plane.
func (rt *Router) routed(route *serve.Route, what string,
	fn func(ctx context.Context, q *serve.Request, target, pin string) serve.Response) func(*http.Request) serve.Response {
	return func(r *http.Request) serve.Response {
		q, errResp := route.Parse(r)
		if q == nil {
			return errResp
		}
		pin := q.Gen
		if pin < 0 && route.Pins {
			pin = rt.Gen()
		}
		pinStr := ""
		if pin >= 0 {
			pinStr = strconv.Itoa(pin)
		}
		target := q.Target(pin)
		if fn == nil || q.Malformed() {
			return rt.fromAnyShard(r.Context(), target, pinStr, what)
		}
		return fn(r.Context(), q, target, pinStr)
	}
}

// legResponse passes one shard's answer through byte for byte.
func legResponse(l leg) serve.Response {
	return serve.Response{Status: l.status, Body: l.body, Gen: l.gen, RetryAfter: l.retryAfter}
}

// withFailed names the shards whose legs were lost on resp
// (X-Shards-Failed) and counts the degraded answer.
func (rt *Router) withFailed(resp serve.Response, failed []int) serve.Response {
	if len(failed) == 0 {
		return resp
	}
	parts := make([]string, len(failed))
	for i, s := range failed {
		parts[i] = strconv.Itoa(s)
	}
	resp.Header = http.Header{ShardsFailedHeader: {strings.Join(parts, ",")}}
	rt.metrics.partials.Add(1)
	return resp
}

// --- leg fetching ----------------------------------------------------------

// doGet runs one HTTP attempt against a shard.
func (rt *Router) doGet(ctx context.Context, shard int, path string, hedged bool) leg {
	resp, body, err := rt.shards[shard].client.Get(ctx, path)
	if err != nil {
		return leg{shard: shard, err: err, hedged: hedged}
	}
	l := leg{
		shard:  shard,
		status: resp.StatusCode,
		body:   body,
		gen:    resp.Header.Get(serve.GenerationHeader),
		hedged: hedged,
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if n, err := strconv.Atoi(ra); err == nil {
			l.retryAfter = n
		}
	}
	return l
}

// fetchLeg runs one shard leg of a fan-out: circuit-breaker gate, a
// deadline carved from the request budget, and at most one hedged
// retry — fired early on a transport error, or after the hedge delay
// when the first attempt is merely slow. Any HTTP response (including a
// 503 shed) closes the breaker: the shard is alive and talking.
// Transport errors and leg deadlines feed it.
func (rt *Router) fetchLeg(ctx context.Context, shard int, path string) leg {
	rt.metrics.legs.Add(1)
	ss := rt.shards[shard]
	if !ss.allow(rt.probeEvery) {
		rt.metrics.breakerDenials.Add(1)
		rt.metrics.legFailures.Add(1)
		return leg{shard: shard, err: errBreakerOpen}
	}
	legCtx, cancel := context.WithCancel(ctx)
	defer cancel() // unblocks any attempt still in flight when we return
	resc := make(chan leg, 2)
	launch := func(hedged bool) {
		go func() { resc <- rt.doGet(legCtx, shard, path, hedged) }()
	}
	launch(false)
	outstanding, hedged := 1, false
	hedgeCh := rt.after(rt.hedgeAfter)
	deadline := rt.after(rt.legTimeout)
	var lastErr leg
	for {
		select {
		case l := <-resc:
			outstanding--
			if l.err == nil {
				ss.success()
				return l
			}
			lastErr = l
			if !hedged {
				hedged = true
				rt.metrics.hedges.Add(1)
				launch(true)
				outstanding++
				continue
			}
			if outstanding == 0 {
				ss.failure()
				rt.metrics.legFailures.Add(1)
				return lastErr
			}
		case <-hedgeCh:
			hedgeCh = nil
			if !hedged {
				hedged = true
				rt.metrics.hedges.Add(1)
				launch(true)
				outstanding++
			}
		case <-deadline:
			ss.failure()
			rt.metrics.legFailures.Add(1)
			return leg{shard: shard, err: errLegDeadline}
		case <-ctx.Done():
			rt.metrics.legFailures.Add(1)
			return leg{shard: shard, err: ctx.Err()}
		}
	}
}

// scatter fans one path out to every shard concurrently.
func (rt *Router) scatter(ctx context.Context, path string) []leg {
	rt.metrics.fanouts.Add(1)
	legs := make([]leg, len(rt.shards))
	var wg sync.WaitGroup
	for i := range rt.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			legs[i] = rt.fetchLeg(ctx, i, path)
		}(i)
	}
	wg.Wait()
	return legs
}

// anyShard asks shards in rotation until one yields an HTTP response —
// for fleet-wide answers (/v1/dataset, /v1/diff) any single shard's
// full plane can serve. pin non-empty additionally requires coherence.
//
// A 404 is not the fleet's answer yet: after divergent recovery, shards
// legitimately hold different archive histories (one disk died earlier
// than another), so "I don't hold that generation/span" from one shard
// may still be served by the next. Rotation continues past 404s and the
// first one is returned only when no shard can do better — the fleet
// answers 404 exactly when nobody holds it, independent of rotation
// phase. Other statuses (400, 410, 503…) are deterministic verdicts
// about the request itself and pass through from the first responder.
func (rt *Router) anyShard(ctx context.Context, path, pin string) (leg, []int) {
	start := int(rt.rr.Add(1))
	var failed []int
	var miss *leg
	for i := 0; i < len(rt.shards); i++ {
		shard := (start + i) % len(rt.shards)
		l := rt.fetchLeg(ctx, shard, path)
		if l.err != nil {
			failed = append(failed, shard)
			continue
		}
		if pin != "" && l.status == http.StatusOK && l.gen != pin {
			failed = append(failed, shard)
			continue
		}
		if l.status == http.StatusNotFound {
			if miss == nil {
				miss = &l
			}
			continue
		}
		sort.Ints(failed)
		return l, failed
	}
	sort.Ints(failed) // rotation order is arbitrary; the wire contract is ascending
	if miss != nil {
		return *miss, failed
	}
	return leg{err: errors.New("fleet: no shard answered")}, failed
}

// --- endpoint handlers -----------------------------------------------------

// handleASN is the single-shard fast path: the partition function names
// the one shard that owns the ASN, and its (pinned, coherent) answer is
// passed through byte for byte.
func (rt *Router) handleASN(ctx context.Context, q *serve.Request, target, pin string) serve.Response {
	shard := rt.part.ShardOf(q.ASN)
	l := rt.fetchLeg(ctx, shard, target)
	switch {
	case l.err != nil:
		return rt.withFailed(serve.ErrorResponse(http.StatusServiceUnavailable,
			fmt.Sprintf("shard %d unavailable", shard)), []int{shard})
	case l.status == http.StatusOK && l.gen != pin:
		return rt.withFailed(serve.ErrorResponse(http.StatusServiceUnavailable,
			fmt.Sprintf("shard %d answered generation %s, pinned %s", shard, l.gen, pin)), []int{shard})
	default:
		return legResponse(l)
	}
}

// handleCountry scatter-gathers every shard's slice of a country and
// merges them deterministically.
func (rt *Router) handleCountry(ctx context.Context, q *serve.Request, target, pin string) serve.Response {
	cls := classify(rt.scatter(ctx, target), pin)
	if cls.detErr != nil {
		return legResponse(*cls.detErr)
	}
	if len(cls.ok) == 0 {
		return rt.allLegsLost(cls)
	}
	body, err := mergeCountry(q.CC, cls.ok, cls.envelope())
	if err != nil {
		return serve.ErrorResponse(http.StatusInternalServerError, "merging country responses")
	}
	return rt.mergedResponse(body, pin, cls)
}

// handleOrg scatters an organization lookup; the owning shards carry
// whole replicas, so the first coherent 200 is the complete answer.
func (rt *Router) handleOrg(ctx context.Context, _ *serve.Request, target, pin string) serve.Response {
	cls := classify(rt.scatter(ctx, target), pin)
	if len(cls.ok) > 0 {
		// A replica is the whole record: one coherent 200 is complete even
		// if other shards were lost.
		return legResponse(cls.ok[0])
	}
	if len(cls.failed) > 0 {
		// The org may have lived on a lost shard; "not found" would be a
		// lie. Degrade explicitly.
		return rt.allLegsLost(cls)
	}
	if cls.detErr != nil {
		return legResponse(*cls.detErr)
	}
	return serve.ErrorResponse(http.StatusServiceUnavailable, "no shard answered")
}

// handleSearch scatter-gathers the fuzzy name search and merges the
// per-shard top-K into the exact global top-K.
func (rt *Router) handleSearch(ctx context.Context, q *serve.Request, target, pin string) serve.Response {
	cls := classify(rt.scatter(ctx, target), pin)
	if cls.detErr != nil {
		return legResponse(*cls.detErr)
	}
	if len(cls.ok) == 0 {
		return rt.allLegsLost(cls)
	}
	body, err := mergeSearch(cls.ok, q.SearchLimit(rt.searchLim), cls.envelope())
	if err != nil {
		return serve.ErrorResponse(http.StatusInternalServerError, "merging search responses")
	}
	return rt.mergedResponse(body, pin, cls)
}

// fromAnyShard answers from any healthy shard's full plane: every shard
// builds the identical generation, so one shard's answer is the
// fleet's. pin non-empty requires the answer to be coherent with it.
func (rt *Router) fromAnyShard(ctx context.Context, target, pin, what string) serve.Response {
	l, failed := rt.anyShard(ctx, FullPrefix+target, pin)
	if l.err != nil {
		resp := serve.ErrorResponse(http.StatusServiceUnavailable, "no shard could serve "+what)
		resp.RetryAfter = 1
		return rt.withFailed(resp, failed)
	}
	return legResponse(l)
}

// mergedResponse wraps a merged body: 200 when every leg contributed,
// 206 + X-Shards-Failed when a minority was lost.
func (rt *Router) mergedResponse(body []byte, pin string, cls classified) serve.Response {
	resp := serve.Response{Status: http.StatusOK, Body: body, Gen: pin}
	if len(cls.failed) > 0 {
		resp.Status = http.StatusPartialContent
		resp.RetryAfter = cls.retryAfter
	}
	return rt.withFailed(resp, cls.failed)
}

// allLegsLost is the every-leg-failed verdict: an explicit 503 naming
// the lost shards — never a fabricated empty answer, never a 500.
func (rt *Router) allLegsLost(cls classified) serve.Response {
	resp := serve.ErrorResponse(http.StatusServiceUnavailable, "all shards unavailable")
	resp.RetryAfter = cls.retryAfter
	if resp.RetryAfter <= 0 {
		resp.RetryAfter = 1
	}
	return rt.withFailed(resp, cls.failed)
}

// --- ops endpoints ---------------------------------------------------------

// RouterStatus is the /readyz body: the committed fleet generation, the
// partition, per-shard breaker state and the coordinator's latest flip
// report.
type RouterStatus struct {
	Gen          int         `json:"gen"`
	Partition    Partition   `json:"partition"`
	BreakersOpen []int       `json:"breakers_open,omitempty"`
	Flip         *FlipStatus `json:"flip,omitempty"`
}

func (rt *Router) handleReadyz(*http.Request) serve.Response {
	st := RouterStatus{Gen: rt.Gen(), Partition: rt.part, Flip: rt.flip.Load()}
	for i, ss := range rt.shards {
		if ss.open() {
			st.BreakersOpen = append(st.BreakersOpen, i)
		}
	}
	// Ready as long as we can still answer: every breaker open means no
	// leg can succeed.
	status := http.StatusOK
	if len(st.BreakersOpen) == len(rt.shards) && len(rt.shards) > 0 {
		status = http.StatusServiceUnavailable
	}
	return serve.JSONResponse(status, st)
}

// RouterMetrics is the /metrics body.
type RouterMetrics struct {
	Fleet     MetricsSnapshot      `json:"fleet"`
	Admission serve.AdmissionStats `json:"admission"`
}

func (rt *Router) handleMetrics(*http.Request) serve.Response {
	return serve.JSONResponse(http.StatusOK, RouterMetrics{
		Fleet:     rt.metrics.Snapshot(),
		Admission: rt.spine.AdmissionStats(),
	})
}
