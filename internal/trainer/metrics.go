package trainer

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Metrics is the trainer's optional observability surface: the feed
// backlog gauge Run's poll loop maintains, per-phase duration
// histograms fed by every cycle, and the last cycle's outcome. Wire it
// through Config.Metrics and serve it with ServeHTTP (cmd/ocular-trainer
// mounts it under -metrics-addr). All methods are nil-safe, so the
// trainer threads it unconditionally.
type Metrics struct {
	start   time.Time
	backlog atomic.Int64

	// One histogram per cycle phase plus the whole cycle; a phase a
	// cycle skipped (e.g. train on the rollout-retry path) records
	// nothing. Every cycle, failed ones included, lands in cycle: its
	// count and errors are the cycle counters.
	replay, train, save, rollout, warm, cycle obs.Histogram

	mu           sync.Mutex
	lastOutcome  string // "ok" or "error"; "" before the first cycle
	lastError    string
	lastFinished time.Time
}

// NewMetrics builds an empty Metrics.
func NewMetrics() *Metrics { return &Metrics{start: time.Now()} }

// SetBacklog records the current feed backlog (feed.Count units since
// the last completed cycle).
func (m *Metrics) SetBacklog(n int64) {
	if m == nil {
		return
	}
	m.backlog.Store(n)
}

// ObserveCycle records one RunOnce outcome: the cycle, whether it
// succeeded, and the duration of every phase it ran (none for a nil cy).
func (m *Metrics) ObserveCycle(cy *Cycle, err error) {
	if m == nil {
		return
	}
	if cy == nil {
		cy = &Cycle{}
	}
	m.cycle.Observe(cy.Duration, err != nil)
	for _, ph := range []struct {
		h *obs.Histogram
		d time.Duration
	}{
		{&m.replay, cy.ReplayDur},
		{&m.train, cy.TrainDur},
		{&m.save, cy.SaveDur},
		{&m.rollout, cy.RolloutDur},
		{&m.warm, cy.WarmDur},
	} {
		if ph.d > 0 {
			ph.h.Observe(ph.d, err != nil)
		}
	}
	m.mu.Lock()
	if err != nil {
		m.lastOutcome, m.lastError = "error", err.Error()
	} else {
		m.lastOutcome, m.lastError = "ok", ""
	}
	m.lastFinished = time.Now()
	m.mu.Unlock()
}

// snapshot builds the metrics tree served in both formats.
func (m *Metrics) snapshot() map[string]any {
	phases := map[string]map[string]any{
		"replay":  obs.EndpointSnapshot(&m.replay),
		"train":   obs.EndpointSnapshot(&m.train),
		"save":    obs.EndpointSnapshot(&m.save),
		"rollout": obs.EndpointSnapshot(&m.rollout),
		"warm":    obs.EndpointSnapshot(&m.warm),
		"cycle":   obs.EndpointSnapshot(&m.cycle),
	}
	out := map[string]any{
		"uptime_seconds": time.Since(m.start).Seconds(),
		"feed_backlog":   m.backlog.Load(),
		"cycles":         phases["cycle"]["requests"],
		"cycle_errors":   phases["cycle"]["errors"],
		"phases":         obs.Labeled{Label: "phase", Rows: phases},
	}
	m.mu.Lock()
	if m.lastOutcome != "" {
		last := map[string]any{
			"outcome":      m.lastOutcome,
			"finished_ago": time.Since(m.lastFinished).Seconds(),
		}
		if m.lastError != "" {
			last["error"] = m.lastError
		}
		out["last_cycle"] = last
	}
	m.mu.Unlock()
	return out
}

// ServeHTTP answers GET /metrics: JSON by default,
// ?format=prometheus for text exposition — both from one snapshot.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	obs.WriteMetrics(w, r, m.snapshot())
}
