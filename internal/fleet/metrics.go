package fleet

import (
	"sync/atomic"

	"stateowned/internal/serve"
)

// Metrics is the router's fleet-level accounting: how much traffic is
// fanning out, how it degrades (failed legs, hedges, partial answers)
// and how the router defends itself (shed requests, breaker denials).
// Request and shed totals come from the serve spine the router runs on,
// so Requests counts every answered request, the ops plane included.
type Metrics struct {
	spine          *serve.Metrics
	fanouts        atomic.Uint64
	legs           atomic.Uint64
	legFailures    atomic.Uint64
	hedges         atomic.Uint64
	partials       atomic.Uint64
	breakerDenials atomic.Uint64
}

// MetricsSnapshot is the /metrics JSON shape.
type MetricsSnapshot struct {
	Requests       uint64 `json:"requests_total"`
	Shed           uint64 `json:"shed_total"`
	Fanouts        uint64 `json:"fanouts_total"`
	Legs           uint64 `json:"legs_total"`
	LegFailures    uint64 `json:"leg_failures_total"`
	Hedges         uint64 `json:"hedges_total"`
	Partials       uint64 `json:"partial_responses_total"`
	BreakerDenials uint64 `json:"breaker_denials_total"`
}

// Snapshot reads the counters.
func (m *Metrics) Snapshot() MetricsSnapshot {
	spine := m.spine.Snapshot()
	return MetricsSnapshot{
		Requests:       spine.Requests,
		Shed:           spine.ShedTotal,
		Fanouts:        m.fanouts.Load(),
		Legs:           m.legs.Load(),
		LegFailures:    m.legFailures.Load(),
		Hedges:         m.hedges.Load(),
		Partials:       m.partials.Load(),
		BreakerDenials: m.breakerDenials.Load(),
	}
}
