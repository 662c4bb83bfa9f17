package serve

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// Shard mode: one serve process owning an item partition of the catalogue.
//
// A shard is the same server over a narrower range: it mmaps only its
// item-range slice of the v2 model file (full user sections, item rows
// [lo, hi)) and answers POST /v1/shard/topm (JSON, one user) and POST
// /v2/shard/topm (frames, one or more users: a whole router batch in one
// call) — one pipeline, shardPartial, under two codecs — with, per user,
// its partition's top-min(m, partition size) items under the engine's tie
// rule, item ids translated back to global. Because every item's score
// depends only on that item's factor row and the user's factor, partition
// scores are bit-identical to the corresponding entries of a
// full-catalogue scoring pass — so a router merging shard partials with
// rank.MergeTopM reproduces single-process serving exactly (same items,
// same float64 bits). See internal/cluster for the router.
//
// Partitions are deliberately cacheless and stateless: the router owns
// the fingerprint cache and the singleflight, so a shard ranks every
// request it sees. Shards serve /v1/reload and /healthz for the trainer's
// quorum rollout, and nothing else of the full API — a partition cannot
// fold in, explain, or ingest.

// NewShardFromFile builds a shard-mode server serving the item range
// [cfg.ShardLo, cfg.ShardHi) of the v2 model at cfg.ModelPath.
// cfg.ShardHi == -1 means "through the end of the catalogue", re-resolved
// at every reload. Shard mode refuses a Feed: ingest belongs on a full
// server or the router, not on a partition.
func NewShardFromFile(cfg Config) (*Server, error) {
	if !cfg.shardMode() {
		return nil, fmt.Errorf("serve: NewShardFromFile needs a shard range (ShardHi != 0)")
	}
	if cfg.Feed != nil {
		return nil, fmt.Errorf("serve: shard mode takes no Feed (run ingest on a full server)")
	}
	if len(cfg.Stages) > 0 {
		return nil, fmt.Errorf("serve: shard mode takes no Stages (shards serve raw partials; the router applies stages once after the merge)")
	}
	if cfg.Registry != nil {
		return nil, fmt.Errorf("serve: shard mode takes no Registry (run the multi-model platform on full servers)")
	}
	return newServer(cfg)
}

// DeadlineHeader carries the caller's remaining deadline budget in
// integer milliseconds — the router stamps it on every shard call from
// the attempt context's deadline. A shard receiving it aborts work whose
// budget has already expired (504) instead of scoring for a caller that
// stopped listening. Absent, malformed or above an hour, no deadline
// applies.
const DeadlineHeader = "X-Ocular-Deadline-Ms"

// StampShardCall sets the headers every outgoing shard call carries: the
// remaining deadline budget of ctx (min(per-attempt timeout, overall
// request deadline), so the shard can shed scoring work whose caller will
// have given up) and the request's trace ID (so the shard's span records
// join the caller's timeline under one ID).
func StampShardCall(ctx context.Context, h http.Header) {
	if dl, ok := ctx.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			h.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
		}
	}
	if id := obs.ActiveFrom(ctx).ID(); id != "" {
		h.Set(obs.TraceHeader, id)
	}
}

// deadlineFromHeader resolves the propagated budget to an absolute local
// deadline at arrival time; the zero time means none applies. Network
// transit already spent part of the budget the router computed, so the
// resolved deadline errs late — the check is a work-shedding
// optimization, never a correctness gate. A budget above an hour is no
// deadline at all, like a malformed one: unchecked, anything from about
// 9.2e12 ms up wraps time.Duration negative and would shed the request of
// a caller that granted an effectively unlimited budget.
func deadlineFromHeader(r *http.Request) time.Time {
	ms, err := strconv.ParseInt(r.Header.Get(DeadlineHeader), 10, 64)
	if err != nil || ms > int64(time.Hour/time.Millisecond) {
		return time.Time{}
	}
	return time.Now().Add(time.Duration(ms) * time.Millisecond)
}

// expired refuses with 504 (and counts the abort) once deadline has passed.
func (s *Server) expired(deadline time.Time) error {
	if deadline.IsZero() || time.Now().Before(deadline) {
		return nil
	}
	s.metrics.deadlineAborts.Add(1)
	return &Error{Status: http.StatusGatewayTimeout, Msg: "deadline budget expired before scoring"}
}

// ShardTopMRequest asks a shard for its partition's contribution to one
// user's top-M — the JSON codec's request; a frame carries the same fields
// for n users. ExpectVersion pins the model version the partial must be
// computed against: a shard serving neither that version currently nor as
// its immediate predecessor answers 409, so a router can never merge
// partials from different model versions. 0 disables the pin (debugging).
type ShardTopMRequest struct {
	User          int         `json:"user"`
	M             int         `json:"m,omitempty"`
	ExcludeItems  []int       `json:"exclude_items,omitempty"`
	Filter        *FilterSpec `json:"filter,omitempty"`
	ExpectVersion uint64      `json:"expect_version,omitempty"`
}

// ShardTopMResponse is one partition's top-min(m, partition size) items,
// global ids, ordered by the engine's tie rule (descending score, ties by
// ascending item).
type ShardTopMResponse struct {
	User         int          `json:"user"`
	ShardLo      int          `json:"shard_lo"`
	ShardHi      int          `json:"shard_hi"`
	ModelVersion uint64       `json:"model_version"`
	Items        []ScoredItem `json:"items"`
}

// shardPartial is the one partition-partial pipeline, for the n >= 1 users
// of one request: deadline → the edge's limits and clamp → pin-or-409 →
// rank (rankBatch: shared filters validated once, the columnar engine entry
// on the pinned snapshot) → ids rebased to global in a.Cols. deadline was
// resolved at arrival, before the body read. A user out of range refuses
// the whole request: the router validates users against its route table
// before it scatters, so a bad one here is a caller bug, not a slot to fail.
func (s *Server) shardPartial(act *obs.Active, deadline time.Time, req *BatchRequest, pin uint64, workers int, a *Answer) (sn *snapshot, m int, err error) {
	// The budget check sits after the body read, on the brink of the
	// scoring passes: a slow client (or a router whose attempt budget was
	// nearly gone when it sent) should not get work it can no longer use.
	if err := s.expired(deadline); err != nil {
		return nil, 0, err
	}
	if m, err = s.edge.check(req); err != nil {
		return nil, 0, err
	}
	sn = s.snap.Load()
	if pin != 0 && sn.version != pin {
		// Mid-rollout window: this shard already reloaded but the router
		// still pins the old version until the whole quorum confirmed.
		// Serve the pinned version from the two-deep history; refuse
		// anything else — a 409 here is what makes merging partials of
		// mixed model versions impossible rather than merely unlikely.
		prev := s.prev.Load()
		if prev == nil || prev.version != pin {
			return nil, 0, &Error{Status: http.StatusConflict, Msg: fmt.Sprintf(
				"shard serves model version %d, not the requested %d", sn.version, pin)}
		}
		sn = prev
	}
	if err := s.rankBatch(act, route{sn: sn}, req, m, workers, a); err != nil {
		return nil, 0, err
	}
	for i := range a.Slots {
		if err := a.Slots[i].Err; err != nil {
			return nil, 0, err
		}
	}
	// Partition-local ids back to global, in place; the scores column is
	// the engine's as ranked.
	lo := uint32(sn.rng.ItemLo())
	for i := range a.Cols.Items {
		a.Cols.Items[i] += lo
	}
	return sn, m, nil
}

// handleShardTopM is the JSON codec: one user per request.
func (s *Server) handleShardTopM(w http.ResponseWriter, r *http.Request) int {
	deadline := deadlineFromHeader(r)
	var req ShardTopMRequest
	if err := s.edge.decodeJSON(w, r, &req); err != nil {
		return WriteError(w, http.StatusBadRequest, err.Error())
	}
	a := answerPool.Get().(*Answer)
	defer a.release()
	breq := BatchRequest{Users: []int{req.User}, M: req.M, ExcludeItems: req.ExcludeItems, Filter: req.Filter}
	sn, _, err := s.shardPartial(obs.ActiveFrom(r.Context()), deadline, &breq, req.ExpectVersion, 1, a)
	if err != nil {
		return s.edge.fail(w, err)
	}
	items := make([]ScoredItem, len(a.Cols.Items))
	for j := range items {
		items[j] = ScoredItem{Item: int(a.Cols.Items[j]), Score: a.Cols.Scores[j]}
	}
	return WriteJSON(w, http.StatusOK, ShardTopMResponse{
		User:         req.User,
		ShardLo:      sn.rng.ItemLo(),
		ShardHi:      sn.rng.ItemHi(),
		ModelVersion: sn.version,
		Items:        items,
	})
}

// handleShardTopMFrame is the frame codec, the one the router speaks: the
// users of a whole router batch in one request, ranked with
// Config.Workers exactly as /v2/batch ranks (serial at 0). expect_version
// rides the request header; the answer is marked FlagShardPartial and
// carries the range and the model version every list was ranked under.
func (s *Server) handleShardTopMFrame(w http.ResponseWriter, r *http.Request) int {
	deadline := deadlineFromHeader(r)
	a := answerPool.Get().(*Answer)
	defer a.release()
	if status, ok := s.edge.readFrame(w, r, a); !ok {
		return status
	}
	if a.frame.Tenant != "" {
		return s.edge.badFrame(w, "shard frames carry no tenant")
	}
	sn, m, err := s.shardPartial(obs.ActiveFrom(r.Context()), deadline, a.frameRequest(), a.frame.ExpectVersion, s.cfg.Workers, a)
	if err != nil {
		return s.edge.fail(w, err)
	}
	a.status = grown(a.status, len(a.Slots))
	clear(a.status)
	return s.edge.writeFrame(w, a, &wire.BatchResponse{
		Flags:        wire.FlagShardPartial,
		M:            uint32(m),
		ShardLo:      uint32(sn.rng.ItemLo()),
		ShardHi:      uint32(sn.rng.ItemHi()),
		ModelVersion: sn.version,
		Status:       a.status,
		Counts:       a.Cols.Counts,
		Items:        a.Cols.Items,
		Scores:       a.Cols.Scores,
	})
}
