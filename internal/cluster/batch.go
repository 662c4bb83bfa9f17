package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rank"
	"repro/internal/serve"
	"repro/internal/wire"
)

// Batch routing: one pipeline (Router.batch) under /v1/recommend (one
// user) and the two codecs of the serve tier's batch API. POST /v1/batch
// speaks JSON; POST /v2/batch decodes an internal/wire frame into the same
// serve.BatchRequest and answers a frame flagged FlagRouterMerge, the
// route epoch in its modelVersion field. Error responses stay JSON on all.

// BatchResult is one user's slot in a router batch response.
type BatchResult struct {
	User     int                `json:"user"`
	Items    []serve.ScoredItem `json:"items,omitempty"`
	Cached   bool               `json:"cached,omitempty"`
	Degraded bool               `json:"degraded,omitempty"`
	Error    string             `json:"error,omitempty"`
}

// BatchResponse carries one result per requested user, in request order.
type BatchResponse struct {
	Results    []BatchResult `json:"results"`
	RouteEpoch uint64        `json:"route_epoch"`
}

// batchScratch pools the per-request workspace of the data endpoints.
type batchScratch struct {
	serve.FrameScratch // frame codec: body, decoded frame, encoded response
	// res is the pipeline's outcome: one slot per requested user, its
	// merged list (cache-shared, read-only) or why there is none; NoShare
	// marks a degraded merge.
	res    []rank.ListEntry
	wreq   wire.BatchRequest // scatter: the shard request's columns...
	frame  []byte            // ...encoded once per scatter
	parts  []rank.Partial    // merge: one user's partials, shard by shard
	status []uint8           // frame codec
	cols   rank.BatchCols    // frame codec
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// release returns sc to the pool; the pool must not pin cache entries.
func (sc *batchScratch) release() {
	clear(sc.res)
	batchScratchPool.Put(sc)
}

// batch is the one request pipeline: validate the shared request surface
// once, answer what the fingerprint cache holds, and gather everything
// else in one scatter — one frame per shard carrying every distinct user
// that missed (see gather) — leaving one entry per requested user, in
// request order, in sc.res. Hits are served even when the scatter fails;
// a failed shard fails, or with AllowDegraded degrades, every user that
// needed it.
func (rt *Router) batch(r *http.Request, req *serve.BatchRequest, sc *batchScratch) (m int, tbl *routeTable, err error) {
	if req.Tenant != "" {
		return 0, nil, badRequest(errors.New("the router serves the default path only: tenant must be empty"))
	}
	if len(req.Users) == 0 {
		return 0, nil, badRequest(errors.New("users must be non-empty"))
	}
	if len(req.Users) > rt.cfg.MaxBatch {
		return 0, nil, badRequest(fmt.Errorf("batch of %d users exceeds the router cap of %d", len(req.Users), rt.cfg.MaxBatch))
	}
	if m, err = rt.edge.ClampM(req.M); err != nil {
		return 0, nil, badRequest(err)
	}
	if tbl, err = rt.loadTable(); err != nil {
		return 0, nil, err
	}
	if err := tbl.validateExclude(req.ExcludeItems); err != nil {
		return 0, nil, err
	}
	ctx, cancel := rt.requestContext(r)
	defer cancel()
	if cap(sc.res) < len(req.Users) {
		sc.res = make([]rank.ListEntry, len(req.Users))
	}
	sc.res = sc.res[:len(req.Users)]
	clear(sc.res)
	for n, u := range req.Users {
		sc.res[n].Err = tbl.validateUser(u)
	}
	act := obs.ActiveFrom(ctx)
	start := time.Now()
	var lookedUp time.Time // when the cache had answered what it could
	fp, cacheable := fingerprintFor(tbl.epoch, req.ExcludeItems, req.Filter, rt.cfg.Stages)
	rt.cache.GetOrComputeBatch(req.Users, m, fp, cacheable, sc.res, func(idx []int) {
		if lookedUp.IsZero() {
			lookedUp = time.Now()
		}
		rt.gather(ctx, tbl, req, m, idx, sc)
	})
	if act != nil {
		if lookedUp.IsZero() {
			lookedUp = time.Now()
		}
		hits := 0
		for n := range sc.res {
			if sc.res[n].Cached {
				hits++
			}
		}
		if hits > 0 {
			act.Record("cache", start, lookedUp.Sub(start), fmt.Sprintf("hits=%d", hits))
		}
	}
	return m, tbl, nil
}

// gather ranks the users req.Users[idx...] — cache misses, each distinct
// user once — with one scatter: a single frame carrying all of them, the
// over-fetched m and the shared filters goes to every shard, and each
// user's partials merge under the request's stages into sc.res.
//
// With Config.Stages set, each shard is asked for the over-fetched length
// rank.StagesOverFetch(m, stages) and the pipeline runs exactly once per
// user, on the merged list — the same candidate pool and the same
// arithmetic as a single staged process, so the staged tier stays
// bit-identical to single-process staged serving.
func (rt *Router) gather(ctx context.Context, tbl *routeTable, req *serve.BatchRequest, m int, idx []int, sc *batchScratch) {
	fail := func(err error) {
		for _, i := range idx {
			sc.res[i].Err = err
		}
	}
	stages := rt.cfg.Stages
	fetch := rank.StagesOverFetch(m, stages)
	wreq := &sc.wreq
	wreq.M, wreq.Users, wreq.Exclude = uint32(fetch), wreq.Users[:0], wreq.Exclude[:0]
	for _, i := range idx {
		wreq.Users = append(wreq.Users, uint32(req.Users[i]))
	}
	for _, e := range req.ExcludeItems {
		wreq.Exclude = append(wreq.Exclude, uint32(e))
	}
	wreq.AllowTags, wreq.DenyTags = nil, nil
	if req.Filter != nil {
		wreq.AllowTags, wreq.DenyTags = req.Filter.AllowTags, req.Filter.DenyTags
	}
	var err error
	if sc.frame, err = wire.AppendBatchRequest(sc.frame[:0], wreq); err != nil {
		fail(badRequest(err))
		return
	}
	replies, err := rt.scatter(ctx, tbl, sc.frame, len(idx), fetch)
	defer func() {
		for _, rp := range replies {
			if rp != nil {
				shardReplyPool.Put(rp)
			}
		}
	}()
	if err != nil {
		var reqErr *requestError
		survivors := 0
		for _, rp := range replies {
			if rp != nil {
				survivors++
			}
		}
		if errors.As(err, &reqErr) || !rt.cfg.AllowDegraded || survivors == 0 {
			fail(err)
			return
		}
		// Degraded merges: serve what survived, mark it, and keep it out of
		// the cache and away from coalesced waiters — a truncated list must
		// never outlive the outage that caused it.
		rt.m.degraded.Add(int64(len(idx)))
	}
	mstart := time.Now()
	for n, i := range idx {
		sc.parts = sc.parts[:0]
		for _, rp := range replies {
			if rp != nil {
				sc.parts = append(sc.parts, rp.next(n))
			}
		}
		items, scores := rank.MergeTopMStaged(m, stages, sc.parts...)
		sc.res[i] = rank.ListEntry{Items: items, Scores: scores, NoShare: err != nil}
	}
	if act := obs.ActiveFrom(ctx); act != nil {
		note := fmt.Sprintf("users=%d", len(idx))
		if err != nil {
			note = "degraded " + note
		}
		act.Record("merge", mstart, time.Since(mstart), note)
	}
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) int {
	var req serve.BatchRequest
	if err := rt.edge.DecodeJSON(w, r, &req); err != nil {
		return serve.WriteError(w, http.StatusBadRequest, err.Error())
	}
	sc := batchScratchPool.Get().(*batchScratch)
	defer sc.release()
	_, tbl, err := rt.batch(r, &req, sc)
	if err != nil {
		return rt.writeFailure(w, err)
	}
	results := make([]BatchResult, len(sc.res))
	for n := range sc.res {
		res := &sc.res[n]
		results[n] = BatchResult{User: req.Users[n], Cached: res.Cached, Degraded: res.NoShare}
		if res.Err != nil {
			results[n].Error = res.Err.Error()
		} else {
			results[n].Items = serve.ZipScored(res.Items, res.Scores)
		}
	}
	return serve.WriteJSON(w, http.StatusOK, BatchResponse{Results: results, RouteEpoch: tbl.epoch})
}

func (rt *Router) handleBatchFrame(w http.ResponseWriter, r *http.Request) int {
	sc := batchScratchPool.Get().(*batchScratch)
	defer sc.release()
	if status, ok := rt.edge.ReadFrame(w, r, &sc.FrameScratch); !ok {
		return status
	}
	if sc.Req.ExpectVersion != 0 {
		return rt.edge.BadFrame(w, "expect_version is a shard-path field; it must be 0 on /v2/batch")
	}
	m, tbl, err := rt.batch(r, sc.BatchRequest(), sc)
	if err != nil {
		return rt.writeFailure(w, err)
	}
	status := sc.status[:0]
	cols := &sc.cols
	cols.Reset()
	for n := range sc.res {
		res := &sc.res[n]
		b := uint8(0)
		if res.Err != nil {
			b = wire.StatusError
			cols.AppendEmpty()
		} else {
			if res.Cached {
				b |= wire.StatusCached
			}
			if res.NoShare {
				b |= wire.StatusDegraded
			}
			cols.Append(res.Items, res.Scores, res.Cached)
		}
		status = append(status, b)
	}
	sc.status = status
	return rt.edge.WriteFrame(w, &sc.FrameScratch, &wire.BatchResponse{
		Flags:        wire.FlagRouterMerge,
		M:            uint32(m),
		ModelVersion: tbl.epoch,
		Status:       status,
		Counts:       cols.Counts,
		Items:        cols.Items,
		Scores:       cols.Scores,
	})
}
