package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Start and End
// are offsets from the tracer's epoch; Parent is the causing span's ID
// (0 for a root); Req ties the spans of one request or operation
// together (0 when the span belongs to none).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Req    int64         `json:"req,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so call sites need no guard.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span over [start, end] and returns its ID (0 when
// untraced).
func (t *tracer) add(parent int, layer, name string, start, end time.Time, req int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Layer: layer, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch), Req: req,
	})
	return id
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// linkByRequest gives parents to the root spans that share a request
// ID: the client's span, the server handler's, and any hop in between
// are recorded independently, on different goroutines. Each span's
// parent becomes the innermost span of another layer, of the same
// request, whose interval contains it.
func linkByRequest(spans []span) {
	byReq := map[int64][]int{}
	for i, s := range spans {
		if s.Req != 0 && s.Parent == 0 {
			byReq[s.Req] = append(byReq[s.Req], i)
		}
	}
	for _, idx := range byReq {
		for _, c := range idx {
			child := &spans[c]
			best := -1
			for _, p := range idx {
				par := spans[p]
				if p == c || par.Layer == child.Layer || par.Start > child.Start || par.End < child.End {
					continue
				}
				if par.Start == child.Start && par.End == child.End && p > c {
					continue // identical intervals: the earlier span is the parent, never both ways
				}
				if best < 0 || par.End-par.Start < spans[best].End-spans[best].Start {
					best = p
				}
			}
			if best >= 0 {
				child.Parent = spans[best].ID
			}
		}
	}
}

// selfTimes returns each layer's self time: the summed duration of its
// spans minus, for every span, the part of its interval that its child
// spans cover. Children may overlap one another (parallel build nodes),
// so coverage is the length of the union of their intervals, clipped to
// the parent's.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals
// within [lo, hi].
func covered(lo, hi time.Duration, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a < end {
			v.a = end
		}
		total += v.b - v.a
		end = v.b
	}
	return total
}

// traceFile is what a traced run writes when it ends.
type traceFile struct {
	Meta      runMeta            `json:"meta"`
	EndToEnd  map[string]metric  `json:"end_to_end"`
	SelfMS    map[string]float64 `json:"layer_self_ms"`
	SpanCount int                `json:"span_count"`
	Spans     []span             `json:"spans"`
}

// writeTrace writes the spans with per-layer self times to path.
func writeTrace(path string, meta runMeta, e2e map[string]metric, spans []span) error {
	self := map[string]float64{}
	for layer, d := range selfTimes(spans) {
		self[layer] = float64(d) / float64(time.Millisecond)
	}
	b, err := json.Marshal(traceFile{Meta: meta, EndToEnd: e2e, SelfMS: self, SpanCount: len(spans), Spans: spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
