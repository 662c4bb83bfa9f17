package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"repro/internal/explain"
	"repro/internal/feed"
	"repro/internal/obs"
	"repro/internal/rank"
)

// endpointNames registers every instrumented endpoint with Metrics.
var endpointNames = []string{
	"recommend", "foldin", "explain", "batch", "batch_binary", "ingest", "reload", "healthz", "readyz", "metrics",
	"shard_topm", "shard_topm_binary", "debug_traces",
}

// buildMux mounts the route set of the server's role: the partial top-M
// pair on a shard, the full API otherwise — a full server has no shard
// endpoint and a shard nothing of the full API.
func (s *Server) buildMux() *http.ServeMux {
	// Query endpoints sit behind the admission gate (nil gate = no-op);
	// control-plane endpoints (ingest, reload, health, metrics) are never
	// shed — an overloaded server must stay observable and reloadable.
	mux := http.NewServeMux()
	if s.cfg.shardMode() {
		mux.HandleFunc("POST /v1/shard/topm", s.edge.Instrument("shard_topm", s.gate.Wrap(s.handleShardTopM)))
		mux.HandleFunc("POST /v2/shard/topm", s.edge.Instrument("shard_topm_binary", s.gate.Wrap(s.handleShardTopMFrame)))
	} else {
		NewFront(s.edge, s.batch, s.cfg.Workers).Mount(mux, s.gate)
		mux.HandleFunc("POST /v1/foldin", s.edge.Instrument("foldin", s.gate.Wrap(s.handleFoldIn)))
		mux.HandleFunc("POST /v1/explain", s.edge.Instrument("explain", s.gate.Wrap(s.handleExplain)))
		mux.HandleFunc("POST /v1/ingest", s.edge.Instrument("ingest", s.handleIngest))
	}
	mux.HandleFunc("POST /v1/reload", s.edge.Instrument("reload", s.handleReload))
	mux.HandleFunc("GET /healthz", s.edge.Instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /readyz", s.edge.Instrument("readyz", s.handleReadyz))
	mux.HandleFunc("GET /metrics", s.edge.Instrument("metrics", s.handleMetrics))
	mux.HandleFunc("GET /debug/traces", s.edge.Instrument("debug_traces", s.edge.HandleDebugTraces))
	return mux
}

// ScoredItem is one ranked recommendation.
type ScoredItem struct {
	Item  int     `json:"item"`
	Score float64 `json:"score"`
}

// ZipScored pairs a ranked list's parallel item and score slices.
func ZipScored(items []int, scores []float64) []ScoredItem {
	out := make([]ScoredItem, len(items))
	for n := range items {
		out[n] = ScoredItem{Item: items[n], Score: scores[n]}
	}
	return out
}

// FilterSpec selects item-metadata filters by tag, against the server's
// item tag table (Config.ItemTags / ocular-serve -items-meta). Allow and
// deny compose: an item must carry at least one allow tag (when any are
// given) and none of the deny tags.
type FilterSpec struct {
	AllowTags []string `json:"allow_tags,omitempty"`
	DenyTags  []string `json:"deny_tags,omitempty"`
}

// requestFilters translates the per-request exclusion list and tag filter
// spec into engine filters — on a partition, rebased into its local index
// space. Validation and rebasing happen here, once per request — a batch
// shares the result across its users (filters are immutable and safe for
// concurrent use), and each user's training row is its engine's own.
func (s *Server) requestFilters(sn *snapshot, exclude []int, spec *FilterSpec) ([]rank.Filter, error) {
	var filters []rank.Filter
	if len(exclude) > 0 {
		for _, i := range exclude {
			if i < 0 || i >= sn.rng.NumItems() {
				return nil, fmt.Errorf("exclude item %d out of range (%d items)", i, sn.rng.NumItems())
			}
		}
		filters = append(filters, rank.ExcludeItems(exclude))
	}
	if spec != nil && (len(spec.AllowTags) > 0 || len(spec.DenyTags) > 0) {
		tags := s.cfg.ItemTags
		if tags == nil {
			return nil, errors.New("no item tag table configured (start the server with -items-meta)")
		}
		if len(spec.AllowTags) > 0 {
			f, err := tags.Allow(spec.AllowTags...)
			if err != nil {
				return nil, err
			}
			filters = append(filters, f)
		}
		if len(spec.DenyTags) > 0 {
			f, err := tags.Deny(spec.DenyTags...)
			if err != nil {
				return nil, err
			}
			filters = append(filters, f)
		}
	}
	if sn.model == nil {
		for n, f := range filters {
			filters[n] = rank.OffsetRange(f, sn.rng.ItemLo(), sn.rng.ItemHi())
		}
	}
	return filters, nil
}

// FoldInRequest asks for cold-start recommendations: the item history of a
// user unseen at training time goes in, a fold-in factor and ranked list
// come out (Section IV-D's new-client onboarding path). ExcludeItems and
// Filter behave as in RecommendRequest; the history items are always
// excluded from the list.
type FoldInRequest struct {
	Items        []int       `json:"items"`
	M            int         `json:"m,omitempty"`
	ExcludeItems []int       `json:"exclude_items,omitempty"`
	Filter       *FilterSpec `json:"filter,omitempty"`
}

// FoldInResponse carries the fold-in factor, bias and recommendations (the
// history items themselves are excluded from the list).
type FoldInResponse struct {
	Factor       []float64    `json:"factor"`
	Bias         float64      `json:"bias,omitempty"`
	Items        []ScoredItem `json:"items"`
	ModelVersion uint64       `json:"model_version"`
}

// canonicalHistory validates and canonicalizes a fold-in item history:
// negative items are rejected up front (malformed in any catalogue,
// before any solver work), items at or beyond the served model's
// catalogue are dropped (with the continuous-training pipeline a client
// may replay a history containing items ingested but not yet rolled out
// in a retrained model — those carry no signal for the model being
// served), and the result is sorted and duplicate-free. Canonicalizing
// makes the response independent of the client's item order and
// multiplicity — the fold-in solver sums float contributions in history
// order, so two orderings of the same set would otherwise return factors
// differing in their low bits — and hands the engine's history-exclusion
// filter its sorted, deduplicated list directly. Callers must check for
// an empty result: folding in an empty history would silently solve a
// pure-shrinkage zero factor and score every item identically.
func canonicalHistory(items []int, numItems int) ([]int, error) {
	hist := make([]int, len(items))
	copy(hist, items)
	sort.Ints(hist)
	uniq := hist[:0]
	for _, i := range hist {
		if i < 0 {
			return nil, fmt.Errorf("item %d is negative", i)
		}
		if i >= numItems {
			break // sorted: everything from here is beyond the catalogue
		}
		if len(uniq) > 0 && uniq[len(uniq)-1] == i {
			continue
		}
		uniq = append(uniq, i)
	}
	return uniq, nil
}

func (s *Server) handleFoldIn(w http.ResponseWriter, r *http.Request) int {
	var req FoldInRequest
	if err := s.edge.decodeJSON(w, r, &req); err != nil {
		return WriteError(w, http.StatusBadRequest, err.Error())
	}
	m, err := s.edge.clampM(req.M)
	if err != nil {
		return WriteError(w, http.StatusBadRequest, err.Error())
	}
	if len(req.Items) == 0 {
		return WriteError(w, http.StatusBadRequest, "items must be a non-empty item history")
	}
	sn := s.snap.Load()
	history, err := canonicalHistory(req.Items, sn.model.NumItems())
	if err != nil {
		return WriteError(w, http.StatusBadRequest, err.Error())
	}
	if len(history) == 0 {
		return WriteError(w, http.StatusBadRequest, fmt.Sprintf(
			"no history item is within the served catalogue of %d items (a zero-signal fold-in would score every item identically)",
			sn.model.NumItems()))
	}
	filters, err := s.requestFilters(sn, req.ExcludeItems, req.Filter)
	if err != nil {
		return WriteError(w, http.StatusBadRequest, err.Error())
	}
	factor, bias, err := sn.model.FoldInUser(history, s.cfg.FoldIn)
	if err != nil {
		return WriteError(w, http.StatusBadRequest, err.Error())
	}
	// The history is excluded through an engine filter (its sorted walk),
	// not a one-row sparse matrix built per request.
	filters = append(filters, rank.ExcludeItems(history))
	items, scores := sn.engine.Rank(func(dst []float64) {
		sn.model.ScoreWithFactor(factor, bias, dst)
	}, m, filters...)
	return WriteJSON(w, http.StatusOK, FoldInResponse{
		Factor:       factor,
		Bias:         bias,
		Items:        ZipScored(items, scores),
		ModelVersion: sn.version,
	})
}

// ExplainRequest asks for the co-cluster rationale of one (user, item)
// pair.
type ExplainRequest struct {
	User int `json:"user"`
	Item int `json:"item"`
	// MaxPeers caps the similar-user / shared-item lists (default 5).
	MaxPeers int `json:"max_peers,omitempty"`
}

// ExplainReason is one co-cluster's contribution to the recommendation.
type ExplainReason struct {
	Cluster      int     `json:"cluster"`
	Contribution float64 `json:"contribution"`
	SimilarUsers []int   `json:"similar_users,omitempty"`
	SharedItems  []int   `json:"shared_items,omitempty"`
}

// ExplainResponse is the JSON form of an explain.Explanation.
type ExplainResponse struct {
	User         int             `json:"user"`
	Item         int             `json:"item"`
	Probability  float64         `json:"probability"`
	Reasons      []ExplainReason `json:"reasons"`
	ModelVersion uint64          `json:"model_version"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) int {
	var req ExplainRequest
	if err := s.edge.decodeJSON(w, r, &req); err != nil {
		return WriteError(w, http.StatusBadRequest, err.Error())
	}
	sn := s.snap.Load()
	if req.User < 0 || req.User >= sn.model.NumUsers() {
		return WriteError(w, http.StatusBadRequest,
			fmt.Sprintf("user %d out of range (%d users)", req.User, sn.model.NumUsers()))
	}
	if req.Item < 0 || req.Item >= sn.model.NumItems() {
		return WriteError(w, http.StatusBadRequest,
			fmt.Sprintf("item %d out of range (%d items)", req.Item, sn.model.NumItems()))
	}
	if req.MaxPeers < 0 {
		return WriteError(w, http.StatusBadRequest, "max_peers must be non-negative")
	}
	ex := explain.Explain(sn.model, sn.train, req.User, req.Item,
		explain.Options{MaxPeers: req.MaxPeers})
	resp := ExplainResponse{
		User:         ex.User,
		Item:         ex.Item,
		Probability:  ex.Probability,
		Reasons:      make([]ExplainReason, len(ex.Reasons)),
		ModelVersion: sn.version,
	}
	for n, reason := range ex.Reasons {
		resp.Reasons[n] = ExplainReason{
			Cluster:      reason.ClusterID,
			Contribution: reason.Contribution,
			SimilarUsers: reason.SimilarUsers,
			SharedItems:  reason.SharedItems,
		}
	}
	return WriteJSON(w, http.StatusOK, resp)
}

// IngestEvent is one new positive example to append to the interaction
// feed. Both fields are pointers for the same reason IngestRequest.User
// is: an event with a forgotten field must be rejected, not silently
// logged against user (or item) 0.
type IngestEvent struct {
	User *int `json:"user"`
	Item *int `json:"item"`
}

// IngestRequest appends new positives to the server's interaction feed —
// the entry point of the continuous-training pipeline. Either shape (or
// both) may be used: User+Items logs one user's new interactions, Events
// logs arbitrary (user, item) pairs. Ids beyond the served model's
// current catalogue are accepted (they name users and items a future
// retrained model will cover); negatives and ids at or above feed.MaxID
// are rejected. User is a pointer so that items sent with the user field
// forgotten are rejected instead of silently logged against user 0 —
// misattributed positives would poison every future retrain.
type IngestRequest struct {
	User   *int          `json:"user,omitempty"`
	Items  []int         `json:"items,omitempty"`
	Events []IngestEvent `json:"events,omitempty"`
	// Tenant routes the events into the tenant's own feed partition
	// (registry feed_dir), so the trainer replays exactly that tenant's
	// interactions. Empty appends to the default Config.Feed log. An
	// unregistered tenant is a 404 {code:"unknown_tenant"} — events are
	// never silently attributed to the default feed.
	Tenant string `json:"tenant,omitempty"`
}

// IngestResponse reports the append and the feed's cumulative state, so
// operators can watch the backlog the trainer's triggers act on.
type IngestResponse struct {
	Appended      int   `json:"appended"`
	FeedPositives int64 `json:"feed_positives"`
	FeedSegments  int   `json:"feed_segments"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) int {
	var req IngestRequest
	if err := s.edge.decodeJSON(w, r, &req); err != nil {
		return WriteError(w, http.StatusBadRequest, err.Error())
	}
	// Resolve the target feed first: the default log, or the tenant's own
	// partition. Tagging events with the tenant happens by construction —
	// each tenant's positives land in its own segmented log, which is the
	// partition the trainer replays.
	fl := s.cfg.Feed
	if req.Tenant != "" {
		if s.registry == nil || s.registry.tenants[req.Tenant] == nil {
			return WriteErrorCode(w, http.StatusNotFound, "unknown_tenant",
				unknownTenantError{tenant: req.Tenant}.Error())
		}
		fl = s.registry.tenants[req.Tenant].feed
		if fl == nil {
			return WriteError(w, http.StatusServiceUnavailable,
				fmt.Sprintf("tenant %q has no feed partition (set feed_dir in the registry)", req.Tenant))
		}
	}
	if fl == nil {
		return WriteError(w, http.StatusServiceUnavailable,
			"no interaction feed configured (start the server with -feed)")
	}
	if len(req.Items) > 0 && req.User == nil {
		return WriteError(w, http.StatusBadRequest, "items given without a user to attribute them to")
	}
	// New ids may exceed the served catalogue — they name users and items
	// the next retrained model will cover — but only within the growth
	// headroom: an absurd id would make the trainer size its matrix (and
	// factor arrays) up to it.
	sn := s.snap.Load()
	maxUser := sn.model.NumUsers() + s.cfg.MaxIngestGrowth
	maxItem := sn.model.NumItems() + s.cfg.MaxIngestGrowth
	events := make([]feed.Event, 0, len(req.Items)+len(req.Events))
	add := func(user, item int) error {
		switch {
		case user < 0 || item < 0:
			return fmt.Errorf("pair (%d,%d) has a negative id", user, item)
		case user >= maxUser || item >= maxItem:
			return fmt.Errorf("pair (%d,%d) exceeds the served catalogue (%dx%d) plus the growth headroom of %d",
				user, item, sn.model.NumUsers(), sn.model.NumItems(), s.cfg.MaxIngestGrowth)
		case user >= feed.MaxID || item >= feed.MaxID:
			return fmt.Errorf("pair (%d,%d) outside [0,%d)", user, item, feed.MaxID)
		}
		events = append(events, feed.Event{User: uint32(user), Item: uint32(item)})
		return nil
	}
	for _, i := range req.Items {
		if err := add(*req.User, i); err != nil {
			return WriteError(w, http.StatusBadRequest, err.Error())
		}
	}
	for _, e := range req.Events {
		if e.User == nil || e.Item == nil {
			return WriteError(w, http.StatusBadRequest, "event missing user or item")
		}
		if err := add(*e.User, *e.Item); err != nil {
			return WriteError(w, http.StatusBadRequest, err.Error())
		}
	}
	if len(events) == 0 {
		return WriteError(w, http.StatusBadRequest, "no positives: pass items (with user) and/or events")
	}
	if err := fl.Append(events...); err != nil {
		return WriteError(w, http.StatusInternalServerError, err.Error())
	}
	return WriteJSON(w, http.StatusOK, IngestResponse{
		Appended:      len(events),
		FeedPositives: fl.Count(),
		FeedSegments:  fl.Segments(),
	})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) int {
	// The body is optional ({"model": name} targets a registry model;
	// empty reloads the default path) but always read under the cap — an
	// unread body is still received by the kernel, and without the cap a
	// client could stream an unbounded payload.
	var req ReloadRequest
	if err := s.edge.decodeJSON(w, r, &req); err != nil && !errors.Is(err, io.EOF) {
		return WriteError(w, http.StatusBadRequest, err.Error())
	}
	sn, err := s.reloadNamed(req.Model)
	if err != nil {
		var unknown unknownModelError
		if errors.As(err, &unknown) {
			return WriteErrorCode(w, http.StatusNotFound, "unknown_model", err.Error())
		}
		return WriteError(w, http.StatusInternalServerError, err.Error())
	}
	return WriteJSON(w, http.StatusOK, reloadResponse(sn, req.Model))
}

// reloadResponse describes sn, the snapshot one reload installed — not
// whatever is current by the time the response is shaped: an overlapping
// reload (SIGHUP, another trainer) must not leak its version into this
// caller's rollout record.
func reloadResponse(sn *snapshot, name string) ReloadResponse {
	resp := ReloadResponse{ModelVersion: sn.version, Name: name}
	resp.Model, resp.Mapped, resp.Float32 = sn.servingMode()
	return resp
}

// servingMode describes how a snapshot is served: the shape string of the
// model (of the range, on a partition), that it is scored straight out of
// an mmap — every snapshot is — and whether through the float32 section.
func (sn *snapshot) servingMode() (model string, mapped, float32Scoring bool) {
	model = sn.rng.String()
	if sn.model != nil {
		model = sn.model.String()
	}
	return model, true, sn.rng.HasFloat32()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) int {
	sn := s.snap.Load()
	h := Health{Status: "ok", ModelVersion: sn.version, LoadedAt: sn.loadedAt.UTC().Format(time.RFC3339)}
	h.Model, h.Mapped, h.Float32 = sn.servingMode()
	if rng, prev := s.shardState(sn); rng != nil {
		h.ShardHealth = &ShardHealth{Users: sn.rng.NumUsers(), Items: sn.rng.NumItems(), ShardRange: *rng}
		h.PrevVersion = prev
	}
	if s.cfg.Feed != nil {
		n := s.cfg.Feed.Count()
		h.FeedPositives = &n
	}
	if s.registry != nil {
		h.Models, h.Tenants = s.registry.health()
	}
	return WriteJSON(w, http.StatusOK, h)
}

// shardState reports what a shard adds to its health and readiness: the
// partition sn serves and, after the first reload, the version its
// two-deep history still answers. A full server has neither.
func (s *Server) shardState(sn *snapshot) (rng *ShardRange, prevVersion uint64) {
	if !s.cfg.shardMode() {
		return nil, 0
	}
	if prev := s.prev.Load(); prev != nil {
		prevVersion = prev.version
	}
	return &ShardRange{ShardLo: sn.rng.ItemLo(), ShardHi: sn.rng.ItemHi()}, prevVersion
}

// handleReadyz is the readiness probe, distinct from /healthz liveness:
// it answers 503 before a model is installed and during graceful drain,
// so load balancers and the router's prober stop routing traffic here
// while the process itself is still alive (and, when draining, still
// finishing in-flight work).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) int {
	if s.draining.Load() {
		return WriteJSON(w, http.StatusServiceUnavailable, Ready{Reason: "draining"})
	}
	sn := s.snap.Load()
	if sn == nil {
		return WriteJSON(w, http.StatusServiceUnavailable, Ready{Reason: "no model installed yet"})
	}
	rng, prev := s.shardState(sn)
	return WriteJSON(w, http.StatusOK, Ready{Ready: true, ModelVersion: sn.version, PrevVersion: prev, ShardRange: rng})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) int {
	sn := s.snap.Load()
	out := s.metrics.snapshot(sn.version, sn.engine.CacheLen(), s.gate)
	if s.registry != nil {
		out["tenants"] = s.registry.metricsTree()
	}
	return obs.WriteMetrics(w, r, out)
}
