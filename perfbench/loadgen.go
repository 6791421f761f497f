package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stateowned/internal/serve"
)

// reqHeader carries the benchmark's request ID, so the traced run can
// tie the server-side span of a request to its client-side span.
const reqHeader = "X-Bench-Request"

// reqIDKey carries the request ID in a request's context on the server
// side. The fleet router derives its legs' contexts from the incoming
// request's, so the traced leg transport finds the ID there.
type reqIDKey struct{}

// outcome is one completed (or failed) request. Times are offsets from
// the load's epoch; due is when the request was scheduled (open loop)
// or started (closed loop), so end-due is the latency a user saw.
type outcome struct {
	seq    int
	ep     int
	status int
	gen    int // X-Generation, -1 when absent
	err    bool
	due    time.Duration
	end    time.Duration
	bytes  int
}

func (o outcome) latency() time.Duration { return o.end - o.due }

// captured is a response kept for the correctness check.
type captured struct {
	seq    int
	status int
	gen    int
	body   []byte
}

// loadResult is what one load phase observed.
type loadResult struct {
	outcomes []outcome
	captured []captured
	// missed counts open-loop sends the generator could not hand to a
	// connection (queue full); lagMS is each send's dispatch lateness.
	missed  int
	lagMS   []float64
	epoch   time.Time
	elapsed time.Duration
}

// loader drives requests at one base URL over at most conns keep-alive
// connections.
type loader struct {
	client    *http.Client
	base      string
	reqs      []request
	conns     int
	keepEvery int // capture every keepEvery-th response (0 = none)
	// sink, when set, receives the captured responses as they arrive
	// instead of keeping them for the end of the load.
	sink chan<- captured
	// started, when set, receives the open loop's epoch once it starts.
	started chan<- time.Time
	tr      *tracer
	ids     *atomic.Int64
}

func newClient(conns int) *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = conns
	t.MaxConnsPerHost = conns
	t.DisableCompression = true
	return &http.Client{Transport: t}
}

// get issues one request and reads the whole body into buf.
func (l *loader) get(ctx context.Context, seq int, buf *bytes.Buffer) (status, gen int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, l.base+l.reqs[seq%len(l.reqs)].path, nil)
	if err != nil {
		return 0, -1, err
	}
	var id int64
	if l.tr != nil {
		id = l.ids.Add(1)
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	start := time.Now()
	resp, err := l.client.Do(req)
	if err != nil {
		return 0, -1, err
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	l.tr.add(0, "net", "net.GET "+endpointNames[l.reqs[seq%len(l.reqs)].ep], start, time.Now(), id)
	gen = -1
	if g := resp.Header.Get(serve.GenerationHeader); g != "" {
		if n, perr := strconv.Atoi(g); perr == nil {
			gen = n
		}
	}
	return resp.StatusCode, gen, err
}

// worker state shared by both loops: one goroutine per connection, each
// appending to its own slices.
type workerOut struct {
	outcomes []outcome
	captured []captured
}

func (l *loader) run(ctx context.Context, epoch time.Time, seq int, due time.Duration, buf *bytes.Buffer, out *workerOut) {
	status, gen, err := l.get(ctx, seq, buf)
	o := outcome{seq: seq, ep: l.reqs[seq%len(l.reqs)].ep, status: status, gen: gen,
		err: err != nil, due: due, end: time.Since(epoch), bytes: buf.Len()}
	out.outcomes = append(out.outcomes, o)
	if l.keepEvery > 0 && seq%l.keepEvery == 0 && err == nil {
		c := captured{seq: seq, status: status, gen: gen, body: append([]byte(nil), buf.Bytes()...)}
		if l.sink != nil {
			l.sink <- c
		} else {
			out.captured = append(out.captured, c)
		}
	}
}

func merge(outs []workerOut, res *loadResult) {
	for _, o := range outs {
		res.outcomes = append(res.outcomes, o.outcomes...)
		res.captured = append(res.captured, o.captured...)
	}
}

// closedLoop runs conns clients, each sending its next request only
// after the previous answer arrived, for dur. Requests are taken in
// sequence order from the shared list (cycling if it runs out).
func (l *loader) closedLoop(ctx context.Context, dur time.Duration) loadResult {
	var next atomic.Int64
	epoch := time.Now()
	outs := make([]workerOut, l.conns)
	var wg sync.WaitGroup
	for w := 0; w < l.conns; w++ {
		wg.Add(1)
		go func(out *workerOut) {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Since(epoch) < dur && ctx.Err() == nil {
				seq := int(next.Add(1) - 1)
				l.run(ctx, epoch, seq, time.Since(epoch), &buf, out)
			}
		}(&outs[w])
	}
	wg.Wait()
	res := loadResult{epoch: epoch, elapsed: time.Since(epoch)}
	merge(outs, &res)
	return res
}

// openLoop sends requests on a fixed schedule, rate per second, until
// ctx ends or dur has passed, regardless of how fast answers come back. Each request's latency is
// measured from its due time, so a stall also charges the requests
// queued behind it. A send that finds the queue full is missed.
func (l *loader) openLoop(ctx context.Context, rate float64, dur time.Duration) loadResult {
	type job struct {
		seq int
		due time.Duration
	}
	// The queue holds one second of sends: a backlog deeper than that
	// means the server has stalled, and further sends count as missed.
	queue := make(chan job, int(rate))
	epoch := time.Now()
	outs := make([]workerOut, l.conns)
	var wg sync.WaitGroup
	for w := 0; w < l.conns; w++ {
		wg.Add(1)
		go func(out *workerOut) {
			defer wg.Done()
			var buf bytes.Buffer
			// Queued sends still go out after the schedule ends: ctx
			// stops the schedule, not the requests already due.
			for j := range queue {
				l.run(context.Background(), epoch, j.seq, j.due, &buf, out)
			}
		}(&outs[w])
	}
	res := loadResult{epoch: epoch}
	if l.started != nil {
		l.started <- epoch
	}
	interval := time.Duration(float64(time.Second) / rate)
	for seq := 0; ; seq++ {
		due := time.Duration(seq) * interval
		if due >= dur || ctx.Err() != nil {
			break
		}
		if wait := due - time.Since(epoch); wait > 0 {
			select {
			case <-ctx.Done():
				continue // the loop's condition ends the schedule
			case <-time.After(wait):
			}
		}
		res.lagMS = append(res.lagMS, float64(time.Since(epoch)-due)/float64(time.Millisecond))
		select {
		case queue <- job{seq, due}:
		default:
			res.missed++
		}
	}
	close(queue)
	wg.Wait()
	res.elapsed = time.Since(epoch)
	merge(outs, &res)
	return res
}

// tracedHandler records a span around each ServeHTTP call of h, tagged
// with the request ID the client sent, and passes the ID on in the
// request context.
func tracedHandler(h http.Handler, tr *tracer, layer, name string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		if id == 0 {
			id, _ = r.Context().Value(reqIDKey{}).(int64)
		}
		r = r.WithContext(context.WithValue(r.Context(), reqIDKey{}, id))
		start := time.Now()
		h.ServeHTTP(w, r)
		tr.add(0, layer, name, start, time.Now(), id)
	})
}

// tracedTransport records a span around each round trip, tagged with
// the request ID found in the request's context, and forwards the ID
// to the next hop.
type tracedTransport struct {
	base  http.RoundTripper
	tr    *tracer
	layer string
	name  string
}

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, _ := req.Context().Value(reqIDKey{}).(int64)
	if id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err == nil {
		// The leg ends when the router has read the body; time the read.
		resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
			t.tr.add(0, t.layer, t.name, start, time.Now(), id)
		}}
	}
	return resp, err
}

// timedBody calls done once, when the body is closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}
