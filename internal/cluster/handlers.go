package cluster

import (
	"context"
	"expvar"
	"fmt"
	"io"
	"net/http"

	"repro/internal/obs"
	"repro/internal/serve"
)

// routerEndpointNames registers the router's instrumented endpoints.
var routerEndpointNames = []string{
	"recommend", "batch", "batch_binary", "flip", "healthz", "readyz", "metrics", "debug_traces",
}

// metrics counts the router's scatter-side activity. Per-endpoint request,
// error and latency counters live in the serve.Edge both binaries share
// (the router's request and error totals are their sums), shard call
// failures in shard_latency's per-shard error counts; cache
// counters in the shared rank.Stats (the ListCache feeds them).
type metrics struct {
	degraded   expvar.Int
	scatters   expvar.Int
	shardCalls expvar.Int
	hedges     expvar.Int
	flips      expvar.Int
	// Resilience counters (PR 7): the prober's activity — probes run,
	// probes failed, shards marked down, shards repaired back into
	// rotation. Requests answered 504 on deadline exhaustion are the
	// edge's; hedges the retry budget refused are counted by the budget.
	probes        expvar.Int
	probeFailures expvar.Int
	marksDown     expvar.Int
	repairs       expvar.Int
}

// Handler returns the HTTP handler serving the router API: the
// single-process /v1/recommend and /v1/batch surface, plus
// /v1/admin/flip for the trainer's post-rollout table flip.
func (rt *Router) Handler() http.Handler { return rt.mux }

// BeginDrain marks the router draining (see serve.Edge.BeginDrain).
func (rt *Router) BeginDrain() { rt.edge.BeginDrain() }

func (rt *Router) buildMux() *http.ServeMux {
	// The data path sits behind the admission gate (nil gate = no-op);
	// flip, health, readiness and metrics are never shed.
	mux := http.NewServeMux()
	serve.NewFront(rt.edge, rt.batch).Mount(mux)
	mux.HandleFunc("POST /v1/admin/flip", rt.edge.Instrument("flip", rt.handleFlip))
	rt.edge.MountOps(mux, rt.handleHealthz, rt.handleReadyz, rt.handleMetrics)
	return mux
}

// loadTable returns the current route table, or a 503 before the first
// successful Refresh.
func (rt *Router) loadTable() (*routeTable, error) {
	tbl := rt.table.Load()
	if tbl == nil {
		return nil, &serve.Error{Status: http.StatusServiceUnavailable,
			Msg: "no route table yet (waiting for the first successful shard refresh)"}
	}
	return tbl, nil
}

// validateUser and validateExclude check ids against the route table's
// catalogue, mirroring the single-process server's rejections.
func (tbl *routeTable) validateUser(user int) error {
	if user < 0 || user >= tbl.users {
		return serve.BadRequest(fmt.Errorf("user %d out of range (%d users)", user, tbl.users))
	}
	return nil
}

func (tbl *routeTable) validateExclude(exclude []int) error {
	for _, i := range exclude {
		if i < 0 || i >= tbl.items {
			return serve.BadRequest(fmt.Errorf("exclude item %d out of range (%d items)", i, tbl.items))
		}
	}
	return nil
}

// requestContext derives the scatter context for one router request:
// the client's context, bounded by Config.RequestTimeout when set — the
// end-to-end deadline every shard attempt (and its propagated budget
// header) inherits.
func (rt *Router) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if rt.cfg.RequestTimeout > 0 {
		return context.WithTimeout(r.Context(), rt.cfg.RequestTimeout)
	}
	return r.Context(), func() {}
}

// ShardStatus is one shard's row in flip and health responses.
type ShardStatus struct {
	URL     string `json:"url"`
	Version uint64 `json:"model_version"`
	Lo      int    `json:"shard_lo"`
	Hi      int    `json:"shard_hi"`
}

// FlipResponse reports the route table installed by /v1/admin/flip.
type FlipResponse struct {
	Epoch  uint64        `json:"epoch"`
	Users  int           `json:"users"`
	Items  int           `json:"items"`
	Shards []ShardStatus `json:"shards"`
}

func (rt *Router) handleFlip(w http.ResponseWriter, r *http.Request) int {
	// No parameters, but the body is still drained under the cap (see the
	// same guard on serve's /v1/reload).
	if _, err := io.Copy(io.Discard, http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes)); err != nil {
		return serve.WriteError(w, http.StatusBadRequest,
			fmt.Sprintf("request body exceeds %d bytes", rt.cfg.MaxBodyBytes))
	}
	tbl, err := rt.flip(r.Context())
	if err != nil {
		// The old table — if any — keeps serving; a failed flip changes
		// nothing.
		return serve.WriteError(w, http.StatusBadGateway, err.Error())
	}
	return serve.WriteJSON(w, http.StatusOK, tbl.flipResponse())
}

// flipResponse describes tbl — in a flip's answer the table that flip
// installed, not whatever is current by the time the answer is shaped.
func (tbl *routeTable) flipResponse() FlipResponse {
	resp := FlipResponse{Epoch: tbl.epoch, Users: tbl.users, Items: tbl.items, Shards: make([]ShardStatus, len(tbl.shards))}
	for n, s := range tbl.shards {
		resp.Shards[n] = ShardStatus{URL: s.url, Version: s.version, Lo: s.lo, Hi: s.hi}
	}
	return resp
}

// Health is the body of the router's GET /healthz: the current route
// table, or — 503, Status "no_route_table" — that there is none yet. The
// keys only a table has are absent without one.
type Health struct {
	Status string `json:"status"`
	Epoch  uint64 `json:"epoch,omitempty"`
	Users  int    `json:"users,omitempty"`
	Items  int    `json:"items,omitempty"`
	// Shards is the table's []ShardStatus; before the first table, the
	// configured URLs, a []string.
	Shards any `json:"shards"`
	// ShardsHealth are the prober's and the breakers' per-shard rows, the
	// very rows of /metrics: operator context no program reads.
	ShardsHealth  []map[string]any `json:"shards_health"`
	AllowDegraded *bool            `json:"allow_degraded,omitempty"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) int {
	tbl := rt.table.Load()
	if tbl == nil {
		return serve.WriteJSON(w, http.StatusServiceUnavailable,
			Health{Status: "no_route_table", Shards: rt.cfg.Shards, ShardsHealth: rt.healthRows()})
	}
	table := tbl.flipResponse()
	return serve.WriteJSON(w, http.StatusOK, Health{
		Status: "ok", Epoch: table.Epoch, Users: table.Users, Items: table.Items, Shards: table.Shards,
		ShardsHealth: rt.healthRows(), AllowDegraded: &rt.cfg.AllowDegraded,
	})
}

// handleReadyz is the router's readiness probe: 503 until the first
// successful refresh installs a route table (and, from the edge, during
// graceful drain) — distinct from /healthz, which reports state without
// gating traffic.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) int {
	tbl := rt.table.Load()
	if tbl == nil {
		return serve.WriteJSON(w, http.StatusServiceUnavailable, serve.Ready{Reason: "no route table yet"})
	}
	return serve.WriteJSON(w, http.StatusOK, serve.Ready{Ready: true, Epoch: tbl.epoch})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) int {
	shardLat := make(map[string]map[string]any, len(rt.shards))
	for _, sh := range rt.shards {
		shardLat[sh.url] = obs.EndpointSnapshot(&sh.lat)
	}
	out := map[string]any{
		"degraded":      rt.m.degraded.Value(),
		"scatters":      rt.m.scatters.Value(),
		"shard_calls":   rt.m.shardCalls.Value(),
		"hedges":        rt.m.hedges.Value(),
		"hedges_denied": int64(0),
		"deadline_504s": rt.edge.Deadline504s(),
		"table_flips":   rt.m.flips.Value(),
		// shard_latency observes whole callShard calls (hedges included)
		// per shard URL — the per-shard view that pinpoints a slow or
		// flapping partition.
		"shard_latency": obs.Labeled{Label: "shard", Rows: shardLat},
		"prober": map[string]any{
			"probes":     rt.m.probes.Value(),
			"failures":   rt.m.probeFailures.Value(),
			"marks_down": rt.m.marksDown.Value(),
			"repairs":    rt.m.repairs.Value(),
		},
		"shards_health": obs.LabeledList{Label: "shard", Key: "url", Rows: rt.healthRows()},
		"cache": map[string]any{
			"hits":      rt.stats.Hits(),
			"misses":    rt.stats.Misses(),
			"coalesced": rt.stats.Coalesced(),
			"merged":    rt.stats.Ranked(),
			"entries":   rt.cache.Len(),
		},
	}
	out["requests"], out["errors"] = rt.edge.Snapshot(out)
	if st, ok := rt.cfg.HTTPClient.Transport.(*ShardTransport); ok {
		// Streams opened: flat while the pools hold what the scatters need.
		out["shard_dials"] = st.Dials()
	}
	if rb := rt.budget; rb != nil {
		// One event under two keys: every hedge refused is the budget's.
		denied := rb.deniedTotal()
		out["hedges_denied"], out["retry_budget_denied"] = denied, denied
	}
	if tbl := rt.table.Load(); tbl != nil {
		out["epoch"] = tbl.epoch
	}
	return obs.WriteMetrics(w, r, out)
}
