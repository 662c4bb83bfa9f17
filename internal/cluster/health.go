package cluster

import (
	"cmp"
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// shard is what the router knows about one configured shard URL beyond
// any route table: its circuit breaker, the latency of the calls made to
// it, and the prober's up/down verdict. New builds one per URL and every
// table's routes point at them, so a table flip keeps a tripped breaker
// tripped, a down shard down and its latency history whole.
type shard struct {
	url     string
	breaker *breaker // nil when Config.BreakerThreshold < 0
	// lat observes whole callShard calls, hedges and retries included.
	lat obs.Histogram
	// down is the prober's verdict: a down shard is skipped by the scatter
	// (degraded merge or fail-closed, per policy) without burning a
	// timeout or a breaker trial. downSince and lastErr are operator
	// context for /healthz, written only by the prober goroutine.
	down      atomic.Bool
	downSince atomic.Int64 // unix nanos; 0 when up
	lastErr   atomic.Pointer[string]
}

// StartProber launches the background health prober: every
// Config.ProbeInterval it hits each shard's /readyz and flips its up/down
// verdict — an unready (or unreachable, or version-skewed) shard is
// marked down, and a recovered shard whose version history still covers
// the route table's pin is returned to rotation automatically. The
// prober stops when ctx is cancelled. It never touches the circuit
// breakers: a breaker heals through its own half-open trial on the data
// path, so a shard whose /readyz answers but whose scoring path hangs
// stays tripped.
func (rt *Router) StartProber(ctx context.Context) {
	go func() {
		rt.probeAll(ctx)
		ticker := time.NewTicker(rt.cfg.ProbeInterval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				rt.probeAll(ctx)
			}
		}
	}()
}

// probeAll probes the current table's routes under their version pins,
// or every shard unpinned before the first table.
func (rt *Router) probeAll(ctx context.Context) {
	if tbl := rt.table.Load(); tbl != nil {
		for _, r := range tbl.shards {
			rt.probeOne(ctx, r.shard, r.version)
		}
		return
	}
	for _, sh := range rt.shards {
		rt.probeOne(ctx, sh, 0)
	}
}

// probeOne probes one shard and updates its up/down verdict. pin is the
// model version the current route table expects from it (0 when no
// table yet — then plain readiness decides).
func (rt *Router) probeOne(ctx context.Context, sh *shard, pin uint64) {
	rt.m.probes.Add(1)
	// A 503 with a parseable body is a successful probe of an unready
	// shard, not a probe error.
	var st serve.Ready
	err := rt.readShard(ctx, sh.url, "/readyz", &st, http.StatusServiceUnavailable)
	healthy := err == nil && st.Ready
	if healthy && pin != 0 && st.ModelVersion != pin && st.PrevVersion != pin {
		// Ready but unable to serve the pinned version: every data call
		// would 409. Out of rotation until the next table flip (or until
		// the shard's history covers the pin again).
		healthy = false
		err = fmt.Errorf("version skew: shard serves %d (prev %d), table pins %d",
			st.ModelVersion, st.PrevVersion, pin)
	}
	if healthy {
		if sh.down.CompareAndSwap(true, false) {
			sh.downSince.Store(0)
			rt.m.repairs.Add(1)
			rt.cfg.Logf("prober: shard %s recovered, back in rotation", sh.url)
		}
		return
	}
	rt.m.probeFailures.Add(1)
	reason := cmp.Or(st.Reason, "not ready")
	if err != nil {
		reason = err.Error()
	}
	sh.lastErr.Store(&reason)
	if sh.down.CompareAndSwap(false, true) {
		sh.downSince.Store(time.Now().UnixNano())
		rt.m.marksDown.Add(1)
		rt.cfg.Logf("prober: shard %s marked down: %s", sh.url, reason)
	}
}

// healthRows renders each shard's verdict and breaker, in configured
// order, for /healthz and /metrics.
func (rt *Router) healthRows() []map[string]any {
	rows := make([]map[string]any, 0, len(rt.shards))
	for _, sh := range rt.shards {
		down := sh.down.Load()
		row := map[string]any{"url": sh.url, "down": down}
		if down {
			if ns := sh.downSince.Load(); ns != 0 {
				row["down_since"] = time.Unix(0, ns).UTC().Format(time.RFC3339)
			}
			if msg := sh.lastErr.Load(); msg != nil {
				row["last_error"] = *msg
			}
		}
		if sh.breaker != nil {
			row["breaker"] = sh.breaker.snapshot()
		}
		rows = append(rows, row)
	}
	return rows
}
