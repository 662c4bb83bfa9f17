package serve

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/rank"
)

// batch is the full server's Pipeline, under every codec of the front:
// resolve the tenant → filters → rank into a's columns, with each user's
// error and arm in a's slots.
func (s *Server) batch(r *http.Request, req *BatchRequest, m int, a *Answer) error {
	// Tenant validity is user-independent; reject an unknown tenant once,
	// before ranking (per-user resolve in rankBatch then cannot fail).
	rt, err := s.resolve(req.Tenant, 0)
	if err != nil {
		return &Error{Status: http.StatusNotFound, Code: "unknown_tenant", Msg: err.Error()}
	}
	return s.rankBatch(obs.ActiveFrom(r.Context()), rt, req, m, a)
}

// rankBatch is batch's ranking half, against an already resolved route
// and a clamped m, ranking on the caller's goroutine. The default path
// ranks every user against rt.sn — loaded once, so a reload landing
// mid-batch changes neither the lists nor the version they are labelled
// with. A traced request records one aggregate span, or, when
// a.Cols.Timings asks for them, its one user's rank stages.
func (s *Server) rankBatch(act *obs.Active, rt route, req *BatchRequest, m int, a *Answer) error {
	a.Reset(len(req.Users))
	slots, cols := a.Slots, &a.Cols
	var start time.Time
	if act != nil {
		start = time.Now()
	}
	if req.Tenant == "" {
		// Default path: the request's filters are validated once and shared
		// by every user — the engine excludes each user's training row
		// itself — then the columnar engine entry point ranks the whole
		// batch.
		sn := rt.sn
		extra, err := s.requestFilters(sn, req.ExcludeItems, req.Filter)
		if err != nil {
			return BadRequest(err)
		}
		sn.engine.TopMBatch(req.Users, m, 1, sn.stages, func(i int) ([]rank.Filter, bool) {
			if u := req.Users[i]; u < 0 || u >= sn.rng.NumUsers() {
				slots[i].Err = userOutOfRange(u, sn)
				return nil, false
			}
			return extra, true
		}, cols)
		a.ModelVersion = sn.version
	} else {
		// Tenant path: each user resolves to its own arm. Arms may serve
		// different catalogues, so the filter set is validated against
		// each user's own arm snapshot.
		for i := range slots {
			s.rankArm(req, i, m, &slots[i], cols)
		}
		if sh := rt.tenant.shadow; sh != nil {
			sh.observe(req.Users, m, slots, cols)
		}
		// Arms carry their own versions per slot; the answer's top-level
		// version stays the default model's.
		a.ModelVersion = s.snap.Load().version
	}
	switch tm := cols.Timings; {
	case act == nil:
	case tm == nil:
		// Per-user spans would drown a trace (and the ring's span cap) at
		// batch sizes; the whole batch is one aggregate span instead.
		act.Record("batch_rank", start, time.Since(start), fmt.Sprintf("users=%d", len(req.Users)))
	case slots[0].Err == nil:
		recordRankSpans(act, start, tm)
	}
	return nil
}

// rankArm ranks user i of a tenant's request through the arm the user
// resolves to: a one-user batch appended to cols, or an empty list there
// and, in its slot, why, or the filters it ranked under (the shadow
// re-ranks under them). It feeds the arm's counters — here, so every
// codec feeds the same observability.
func (s *Server) rankArm(req *BatchRequest, i, m int, sl *Slot, cols *rank.BatchCols) {
	user := req.Users[i]
	rt, _ := s.resolve(req.Tenant, user)
	sn, a := rt.sn, rt.arm
	sl.arm, sl.armVersion = a, sn.version
	extra, err := s.requestFilters(sn, req.ExcludeItems, req.Filter)
	if err != nil {
		sl.Err = BadRequest(err)
		cols.AppendEmpty()
		return
	}
	if user < 0 || user >= sn.rng.NumUsers() {
		a.errors.Add(1)
		sl.Err = userOutOfRange(user, sn)
		cols.AppendEmpty()
		return
	}
	sn.engine.TopMBatch(req.Users[i:i+1], m, 1, sn.stages, func(int) ([]rank.Filter, bool) { return extra, true }, cols)
	a.requests.Add(1)
	sl.extra = extra
}

// userOutOfRange refuses a user beyond sn's catalogue.
func userOutOfRange(user int, sn *snapshot) error {
	return &Error{Status: http.StatusBadRequest, Msg: fmt.Sprintf("user %d out of range (%d users)", user, sn.rng.NumUsers())}
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
