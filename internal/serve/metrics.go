package serve

import (
	"expvar"
	"time"

	"repro/internal/obs"
	"repro/internal/rank"
)

// Metrics aggregates serving statistics across all endpoints of a Server.
// Cache and coalescing counters live in the shared rank.Stats, fed by the
// snapshots' ranking engines; sharing one Stats across reloads keeps them
// cumulative. Per-endpoint latency, failed writes and the frame transport
// counters live in the Edge.
type Metrics struct {
	start   time.Time
	edge    *Edge
	rank    *rank.Stats
	reloads expvar.Int
	// deadlineAborts counts shard requests aborted because their
	// propagated deadline budget (see DeadlineHeader) had already expired
	// before scoring started — wasted work the deadline check saved.
	deadlineAborts expvar.Int
}

// CacheHitRate returns hits / (hits + misses), or 0 before any lookup.
// Coalesced waiters count as neither: they are misses that borrowed
// another request's computation.
func (m *Metrics) CacheHitRate() float64 {
	h, miss := m.rank.Hits(), m.rank.Misses()
	if h+miss == 0 {
		return 0
	}
	return float64(h) / float64(h+miss)
}

// snapshot renders the full metrics tree for the /metrics endpoint.
// gate may be nil (admission control disabled). The same tree feeds
// both the JSON and the Prometheus views.
func (m *Metrics) snapshot(version uint64, cacheEntries int, gate *Gate) map[string]any {
	out := map[string]any{
		"uptime_seconds":  time.Since(m.start).Seconds(),
		"model_version":   version,
		"model_reloads":   m.reloads.Value(),
		"in_flight":       m.edge.InFlight(),
		"deadline_aborts": m.deadlineAborts.Value(),
		"cache": map[string]any{
			"hits": m.rank.Hits(),
			// misses counts requests not answered from the cache;
			// coalesced is the subset of concurrent duplicates that shared
			// another miss's computation, ranked the score→filter→select
			// computations actually performed, and swept those of them
			// that scored the whole range instead of the user's support.
			"misses":    m.rank.Misses(),
			"coalesced": m.rank.Coalesced(),
			"ranked":    m.rank.Ranked(),
			"swept":     m.rank.Swept(),
			"hit_rate":  m.CacheHitRate(),
			"entries":   cacheEntries,
		},
	}
	m.edge.Snapshot(out)
	if adm := gate.Snapshot(); adm != nil {
		out["admission"] = adm
	}
	return out
}

// recordRankSpans translates one rank call's Timings into trace spans:
// a hit is a single "rank" span noted cache_hit or coalesced; a miss
// becomes sequential "score", "filter_select" and (if staged) "rerank"
// spans laid out from start by the stage durations. Nil-safe via the
// recorder: callers only pay for the clock reads when tracing.
func recordRankSpans(act *obs.Active, start time.Time, tm *rank.Timings) {
	if act == nil {
		return
	}
	if tm.Cached {
		note := "cache_hit"
		if tm.Coalesced {
			note = "coalesced"
		}
		act.Record("rank", start, time.Since(start), note)
		return
	}
	act.Record("score", start, tm.Score, "")
	t := start.Add(tm.Score)
	act.Record("filter_select", t, tm.Select, "")
	if tm.Stages > 0 {
		act.Record("rerank", t.Add(tm.Select), tm.Stages, "")
	}
}
