package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/parallel"
	"repro/internal/rank"
	"repro/internal/serve"
	"repro/internal/wire"
)

// Batch routing: one pipeline (Router.batch) under the two codecs of the
// serve tier's batch API. POST /v1/batch speaks JSON; POST /v2/batch
// decodes an internal/wire frame into the same serve.BatchRequest and
// answers a frame flagged FlagRouterMerge, the route epoch in its
// modelVersion field. Error responses stay JSON on both.

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

// batchScratch pools the per-request workspace of the batch endpoints.
type batchScratch struct {
	serve.FrameScratch                // frame codec: body, decoded frame, encoded response
	res                []routedRes    // pipeline: one merged list per user
	status             []uint8        // frame codec
	cols               rank.BatchCols // frame codec
}

// routedRes is one user's outcome: the merged list (cache-shared,
// read-only) or why there is none.
type routedRes struct {
	items    []int
	scores   []float64
	cached   bool
	degraded bool
	err      string
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// batch is the one batch pipeline: validate the shared request surface
// once, then scatter-gather each user through the same fingerprint cache
// and singleflight as /v1/recommend, leaving one routedRes per user in
// sc.res. A degraded merge is marked per user (and never cached).
func (rt *Router) batch(r *http.Request, req *serve.BatchRequest, sc *batchScratch) (m int, tbl *routeTable, err error) {
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
		sc.res = make([]routedRes, len(req.Users))
	}
	res := sc.res[:len(req.Users)]
	parallel.For(len(res), rt.cfg.Workers, func(n int, _ *parallel.Scratch) {
		u := req.Users[n]
		if err := tbl.validateUser(u); err != nil {
			res[n] = routedRes{err: err.Error()}
			return
		}
		items, scores, cached, degraded, err := rt.recommendOne(ctx, tbl, u, m, req.ExcludeItems, req.Filter)
		if err != nil {
			res[n] = routedRes{err: err.Error()}
			return
		}
		res[n] = routedRes{items: items, scores: scores, cached: cached, degraded: degraded}
	})
	sc.res = res
	return m, tbl, nil
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) int {
	var req serve.BatchRequest
	if err := rt.edge.DecodeJSON(w, r, &req); err != nil {
		return serve.WriteError(w, http.StatusBadRequest, err.Error())
	}
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	_, tbl, err := rt.batch(r, &req, sc)
	if err != nil {
		return rt.writeFailure(w, err)
	}
	results := make([]BatchResult, len(sc.res))
	for n := range sc.res {
		res := &sc.res[n]
		results[n] = BatchResult{User: req.Users[n], Error: res.err, Cached: res.cached, Degraded: res.degraded}
		if res.err == "" {
			results[n].Items = serve.ZipScored(res.items, res.scores)
		}
		*res = routedRes{} // the pool must not pin cache entries
	}
	return serve.WriteJSON(w, http.StatusOK, BatchResponse{Results: results, RouteEpoch: tbl.epoch})
}

func (rt *Router) handleBatchFrame(w http.ResponseWriter, r *http.Request) int {
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	if status, ok := rt.edge.ReadFrame(w, r, &sc.FrameScratch); !ok {
		return status
	}
	if sc.Req.Tenant != "" || sc.Req.ExpectVersion != 0 {
		return rt.edge.BadFrame(w, "the router serves the default path only: tenant and expect_version must be empty")
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
		if res.err != "" {
			b = wire.StatusError
			cols.AppendEmpty()
		} else {
			if res.cached {
				b |= wire.StatusCached
			}
			if res.degraded {
				b |= wire.StatusDegraded
			}
			cols.Append(res.items, res.scores, res.cached)
		}
		status = append(status, b)
		*res = routedRes{}
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
