package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rank"
	"repro/internal/serve"
	"repro/internal/wire"
)

// batchScratch pools the per-request workspace of the router's pipeline.
type batchScratch struct {
	// res is the pipeline's outcome: one slot per requested user, its
	// merged list in the slot's own buffers (copied there from the cache on
	// a hit) or why there is none; NoShare marks a degraded merge.
	res   []rank.ListEntry
	wreq  wire.BatchRequest // scatter: the shard request's columns...
	frame []byte            // ...encoded once per scatter
	parts []rank.Partial    // merge: one user's partials, shard by shard...
	merge rank.Merger       // ...merged into its slot of res
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// batch is the router's Pipeline, under every codec of the front: validate
// the shared request surface once, answer what the fingerprint cache
// holds, and gather everything else in one scatter — one frame per shard
// carrying every distinct user that missed (see gather) — then copy one
// list per requested user, in request order, into a. Hits are served even
// when the scatter fails; a failed shard fails, or with AllowDegraded
// degrades, every user that needed it.
func (rt *Router) batch(r *http.Request, req *serve.BatchRequest, m int, a *serve.Answer) error {
	if req.Tenant != "" {
		return serve.BadRequest(errors.New("the router serves the default path only: tenant must be empty"))
	}
	tbl, err := rt.loadTable()
	if err != nil {
		return err
	}
	if err := tbl.validateExclude(req.ExcludeItems); err != nil {
		return err
	}
	ctx, cancel := rt.requestContext(r)
	defer cancel()
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	sc.res = slices.Grow(sc.res[:0], len(req.Users))[:len(req.Users)]
	for n, u := range req.Users {
		res := &sc.res[n]
		*res = rank.ListEntry{Items: res.Items[:0], Scores: res.Scores[:0], Err: tbl.validateUser(u)}
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
	a.Reset(len(req.Users))
	for n := range sc.res {
		res, sl := &sc.res[n], &a.Slots[n]
		if sl.Err = res.Err; res.Err != nil {
			a.Cols.AppendEmpty()
			continue
		}
		sl.Degraded = res.NoShare
		a.Cols.Append(res.Items, res.Scores, res.Cached)
	}
	a.RouteEpoch = tbl.epoch
	return nil
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
		fail(serve.BadRequest(err))
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
		var refusal *serve.Error
		survivors := 0
		for _, rp := range replies {
			if rp != nil {
				survivors++
			}
		}
		if errors.As(err, &refusal) || !rt.cfg.AllowDegraded || survivors == 0 {
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
		res := &sc.res[i]
		res.Items, res.Scores = sc.merge.Merge(res.Items[:0], res.Scores[:0], m, stages, sc.parts...)
		res.NoShare = err != nil
	}
	if act := obs.ActiveFrom(ctx); act != nil {
		note := fmt.Sprintf("users=%d", len(idx))
		if err != nil {
			note = "degraded " + note
		}
		act.Record("merge", mstart, time.Since(mstart), note)
	}
}
