package cluster

import (
	"cmp"
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// shardHealthState is one shard's slot in the mutable health overlay the
// prober maintains over the immutable route table: route tables flip
// wholesale on rollout, but a shard's up/down state changes on its own
// clock. A down shard is skipped by the scatter (degraded merge or
// fail-closed, per policy) without burning a timeout or a breaker trial.
type shardHealthState struct {
	down atomic.Bool
	// downSince/lastErr are best-effort operator context for /healthz,
	// written only by the prober goroutine.
	downSince atomic.Int64 // unix nanos; 0 when up
	lastErr   atomic.Pointer[string]
}

// healthFor returns the overlay slot of a shard URL; the map is built at
// construction — one slot per configured shard — and never mutated, so
// lookups are lock-free.
func (rt *Router) healthFor(url string) *shardHealthState {
	return rt.health[url]
}

// StartProber launches the background health prober: every
// Config.ProbeInterval it hits each shard's /readyz and flips the health
// overlay — an unready (or unreachable, or version-skewed) shard is
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

func (rt *Router) probeAll(ctx context.Context) {
	pins := map[string]uint64{} // stays empty without a table: plain readiness decides
	if tbl := rt.table.Load(); tbl != nil {
		for _, s := range tbl.shards {
			pins[s.url] = s.version
		}
	}
	for _, u := range rt.cfg.Shards {
		rt.probeOne(ctx, u, pins[u])
	}
}

// probeOne probes one shard and updates its overlay slot. pin is the
// model version the current route table expects from it (0 when no
// table yet — then plain readiness decides).
func (rt *Router) probeOne(ctx context.Context, url string, pin uint64) {
	hs := rt.healthFor(url)
	rt.m.probes.Add(1)
	// A 503 with a parseable body is a successful probe of an unready
	// shard, not a probe error.
	var st serve.Ready
	err := rt.readShard(ctx, url, "/readyz", &st, http.StatusServiceUnavailable)
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
		if hs.down.CompareAndSwap(true, false) {
			hs.downSince.Store(0)
			rt.m.repairs.Add(1)
			rt.cfg.Logf("prober: shard %s recovered, back in rotation", url)
		}
		return
	}
	rt.m.probeFailures.Add(1)
	reason := cmp.Or(st.Reason, "not ready")
	if err != nil {
		reason = err.Error()
	}
	hs.lastErr.Store(&reason)
	if hs.down.CompareAndSwap(false, true) {
		hs.downSince.Store(time.Now().UnixNano())
		rt.m.marksDown.Add(1)
		rt.cfg.Logf("prober: shard %s marked down: %s", url, reason)
	}
}

// healthRows renders the overlay (and breakers) per shard for /healthz
// and /metrics.
func (rt *Router) healthRows() []map[string]any {
	rows := make([]map[string]any, 0, len(rt.cfg.Shards))
	for _, u := range rt.cfg.Shards {
		hs := rt.healthFor(u)
		down := hs.down.Load()
		row := map[string]any{"url": u, "down": down}
		if down {
			if ns := hs.downSince.Load(); ns != 0 {
				row["down_since"] = time.Unix(0, ns).UTC().Format(time.RFC3339)
			}
			if msg := hs.lastErr.Load(); msg != nil {
				row["last_error"] = *msg
			}
		}
		if b := rt.breakers[u]; b != nil {
			row["breaker"] = b.snapshot()
		}
		rows = append(rows, row)
	}
	return rows
}
