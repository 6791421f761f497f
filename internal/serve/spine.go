package serve

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Response is a handler's materialized answer, ready to write or cache.
// Every body is JSON.
type Response struct {
	Status int
	Body   []byte
	// Gen, when non-empty, is written as the X-Generation header.
	Gen string
	// RetryAfter, when > 0, is written as Retry-After (seconds).
	RetryAfter int
	// Header holds any further response headers.
	Header http.Header
}

// JSONResponse marshals v as an indented JSON response.
func JSONResponse(status int, v any) Response {
	body, err := JSONBody(v)
	if err != nil {
		return ErrorResponse(http.StatusInternalServerError, "encoding response")
	}
	return Response{Status: status, Body: body}
}

// ErrorResponse materializes the canonical ErrorBody envelope — the one
// helper every error answer (400/404/410/500/503/504) goes through.
func ErrorResponse(status int, msg string) Response {
	body, _ := JSONBody(ErrorBody{Error: msg, Status: status})
	return Response{Status: status, Body: body}
}

// Write emits a materialized response.
func Write(w http.ResponseWriter, resp Response) {
	h := w.Header()
	for k, v := range resp.Header {
		h[k] = v
	}
	h.Set("Content-Type", "application/json")
	if resp.Gen != "" {
		h.Set(GenerationHeader, resp.Gen)
	}
	if resp.RetryAfter > 0 {
		h.Set("Retry-After", strconv.Itoa(resp.RetryAfter))
	}
	w.WriteHeader(resp.Status)
	_, _ = w.Write(resp.Body)
}

// Spine is the containment every route runs through, in the
// single-process server and the fleet router alike: metrics accounting
// around admission control (503 + Retry-After under overload), the
// route's deadline (504 with context cancellation) and a per-request
// panic barrier (500 + panics_total instead of a dead process).
// Handlers never touch the ResponseWriter — they return a materialized
// Response and only the spine writes, so a late handler can never race
// a timeout answer on the wire.
type Spine struct {
	mux     *http.ServeMux
	metrics *Metrics
	limiter *Limiter
	after   After
	// timeout is the FullBudget deadline (0 = no deadlines).
	timeout time.Duration
}

// NewSpine builds a spine with latency accounting on clock (nil =
// WallClock), admission control when admission is non-nil, per-request
// deadlines when timeout > 0, and every wait on after (nil =
// time.After). It answers liveness (/healthz) and unknown paths
// (OtherRoute) itself.
func NewSpine(clock Clock, admission *AdmissionConfig, timeout time.Duration, after After) *Spine {
	if after == nil {
		after = time.After
	}
	sp := &Spine{mux: http.NewServeMux(), metrics: NewMetrics(clock), after: after, timeout: timeout}
	if admission != nil {
		sp.limiter = NewLimiter(*admission, after)
	}
	sp.Handle(HealthzRoute, func(*http.Request) Response {
		return JSONResponse(http.StatusOK, map[string]string{"status": "ok"})
	})
	sp.Handle(OtherRoute, func(*http.Request) Response {
		return ErrorResponse(http.StatusNotFound, "unknown endpoint")
	})
	return sp
}

// Handle registers fn for route.
func (sp *Spine) Handle(route *Route, fn func(*http.Request) Response) {
	sp.mux.HandleFunc(route.Pattern, func(w http.ResponseWriter, r *http.Request) {
		start := sp.metrics.Begin()
		resp := sp.dispatch(route, fn, r)
		Write(w, resp)
		sp.metrics.End(route.Endpoint, resp.Status, start)
	})
}

// ServeHTTP dispatches to the registered routes.
func (sp *Spine) ServeHTTP(w http.ResponseWriter, r *http.Request) { sp.mux.ServeHTTP(w, r) }

// Metrics exposes the registry (snapshots drive /metrics and tests).
func (sp *Spine) Metrics() *Metrics { return sp.metrics }

// AdmissionStats exposes the limiter accounting (zeroes when admission
// control is off).
func (sp *Spine) AdmissionStats() AdmissionStats { return sp.limiter.Stats() }

// deadline is a load class's handler budget (0 = none).
func (sp *Spine) deadline(b Budget) time.Duration {
	switch b {
	case FullBudget:
		return sp.timeout
	case HalfBudget:
		return sp.timeout / 2
	}
	return 0
}

// dispatch applies the overload policy to one request. The decision
// ladder: (1) admission — no free slot and no queue room, or the queue
// wait expires → 503 + Retry-After, the request never runs; (2)
// deadline — the handler runs but overshoots its route's budget → its
// context is canceled (partial-work cancellation) and the answer is
// 504; (3) the handler's materialized response. An admitted slot is
// held until the handler actually finishes — even past its deadline —
// so abandoned-but-running work still counts against MaxInFlight and a
// flood of timeouts cannot stack unbounded concurrency.
func (sp *Spine) dispatch(route *Route, fn func(*http.Request) Response, r *http.Request) Response {
	release := func() {}
	if route.Budget != Ops && sp.limiter != nil {
		rel, verdict := sp.limiter.Acquire(r.Context().Done())
		if verdict != Admitted {
			sp.metrics.Shed(route.Endpoint)
			resp := ErrorResponse(http.StatusServiceUnavailable, "overloaded: admission queue full or wait expired; retry later")
			resp.RetryAfter = sp.limiter.RetryAfterSeconds()
			return resp
		}
		release = rel
	}
	budget := sp.deadline(route.Budget)
	if budget <= 0 {
		defer release()
		return sp.invoke(route, fn, r)
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	done := make(chan Response, 1)
	go func() {
		defer release() // the slot is freed when the work truly ends
		done <- sp.invoke(route, fn, r.WithContext(ctx))
	}()
	select {
	case resp := <-done:
		return resp
	case <-sp.after(budget):
		cancel() // stop context-aware partial work
		sp.metrics.DeadlineExceeded(route.Endpoint)
		return ErrorResponse(http.StatusGatewayTimeout,
			fmt.Sprintf("request exceeded its %s budget", budget))
	}
}

// invoke runs one handler behind the panic barrier: a panicking handler
// becomes a 500 and a panics_total tick instead of a dead process. The
// recover lives here — inside whatever goroutine runs the handler —
// because a deferred recover in the caller cannot catch a panic on the
// deadline path's worker goroutine.
func (sp *Spine) invoke(route *Route, fn func(*http.Request) Response, r *http.Request) (resp Response) {
	defer func() {
		if p := recover(); p != nil {
			sp.metrics.Panicked(route.Endpoint)
			resp = ErrorResponse(http.StatusInternalServerError, "internal error (handler panic contained)")
		}
	}()
	return fn(r)
}
