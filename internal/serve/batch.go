package serve

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rank"
	"repro/internal/wire"
)

// Batch serving: one pipeline (Server.batch) under two codecs. POST
// /v1/batch decodes a JSON BatchRequest and encodes a BatchResponse; POST
// /v2/batch decodes a length-prefixed frame of internal/wire into the
// same BatchRequest and encodes the ranked columns as a frame in a single
// Write. Clamping, tenant routing, filter validation and the
// cache/fingerprint/coalescing behaviour are the pipeline's, so the two
// transports cannot drift apart.

// BatchRequest asks for top-M lists of many users in one round trip.
// ExcludeItems and Filter apply to every user in the batch. Tenant routes
// the whole batch through the registry; each user still resolves to its
// own arm (deterministic per-user hashing splits a batch across arms
// exactly like single requests).
type BatchRequest struct {
	Users        []int       `json:"users"`
	M            int         `json:"m,omitempty"`
	ExcludeItems []int       `json:"exclude_items,omitempty"`
	Filter       *FilterSpec `json:"filter,omitempty"`
	Tenant       string      `json:"tenant,omitempty"`
}

// BatchResponse carries one result per requested user, in request order.
// A user that fails validation gets an Error and an empty list; the other
// users are still served.
type BatchResponse struct {
	Results      []BatchResult `json:"results"`
	ModelVersion uint64        `json:"model_version"`
}

// BatchResult is one user's slot in a batch response. Arm and
// ArmModelVersion appear only on tenant-routed batches, where different
// users of one batch may land on different arms (so the top-level
// ModelVersion — the default model's — does not describe them).
type BatchResult struct {
	User            int          `json:"user"`
	Items           []ScoredItem `json:"items,omitempty"`
	Cached          bool         `json:"cached,omitempty"`
	Error           string       `json:"error,omitempty"`
	Arm             string       `json:"arm,omitempty"`
	ArmModelVersion uint64       `json:"arm_model_version,omitempty"`
}

// batchScratch is the pooled per-request workspace of a batch: the
// pipeline's ranked columns and per-user slots, plus each codec's
// response buffers, so the steady-state batch path allocates neither
// results nor item slices on either transport. Returned to the pool only
// after the response has been written.
type batchScratch struct {
	FrameScratch                // frame codec: body, decoded frame, encoded response
	cols         rank.BatchCols // pipeline: the users' ranked lists, end to end
	slots        []batchSlot    // pipeline: per-user error and arm
	filters      []rank.Filter  // pipeline: the users' filter stacks, end to end
	status       []uint8        // frame codec: per-user status bits
	res          []BatchResult  // JSON codec: result structs...
	flat         []ScoredItem   // ...whose item slices are windows of this
}

// batchSlot is what the pipeline records per user beside the columns.
type batchSlot struct {
	err        string // why the user was not served; "" = served
	arm        *arm   // the arm that served the user; nil on the default path
	armVersion uint64
	// Tenant path only: the arm engine's cache-shared list, parked between
	// the parallel fan-out and the ordered append into the columns.
	items  []int
	scores []float64
	cached bool
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// grown returns s resized to n elements, reusing its capacity. Contents
// are whatever an earlier request left; callers overwrite every element.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// batch is the one batch pipeline: validate → resolve → filters → rank
// into sc.cols, with each user's error and arm in sc.slots, ranking on
// workers goroutines (<= 1: the caller's). It returns the clamped m and
// the model version the response reports.
func (s *Server) batch(act *obs.Active, req *BatchRequest, workers int, sc *batchScratch) (m int, version uint64, aerr *apiError) {
	if m, aerr = s.batchLimits(req); aerr != nil {
		return 0, 0, aerr
	}
	// Tenant validity is user-independent; reject an unknown tenant once,
	// before fanning out (per-user resolve in rankBatch then cannot fail).
	rt, err := s.resolve(req.Tenant, 0)
	if err != nil {
		return 0, 0, &apiError{status: http.StatusNotFound, code: "unknown_tenant", msg: err.Error()}
	}
	version, aerr = s.rankBatch(act, rt, req, m, workers, sc)
	return m, version, aerr
}

// batchLimits holds an n-user request (a batch, or a shard's partial
// request) to the server's caps and returns the clamped m.
func (s *Server) batchLimits(req *BatchRequest) (m int, aerr *apiError) {
	if len(req.Users) == 0 {
		return 0, badRequest(errors.New("users must be non-empty"))
	}
	if len(req.Users) > s.cfg.MaxBatch {
		return 0, badRequest(fmt.Errorf("batch of %d users exceeds the server cap of %d", len(req.Users), s.cfg.MaxBatch))
	}
	m, err := s.edge.ClampM(req.M)
	if err != nil {
		return 0, badRequest(err)
	}
	return m, nil
}

// rankBatch is batch's ranking half, against an already resolved route
// and a clamped m. The default path ranks every user against rt.sn —
// loaded once, so a reload landing mid-batch changes neither the lists
// nor the version they are labelled with.
func (s *Server) rankBatch(act *obs.Active, rt route, req *BatchRequest, m, workers int, sc *batchScratch) (version uint64, aerr *apiError) {
	sc.slots = grown(sc.slots, len(req.Users))
	slots := sc.slots
	clear(slots)
	cols := &sc.cols
	cols.Reset()
	// Per-user spans would drown a trace (and the ring's span cap) at
	// batch sizes; the whole fan-out becomes one aggregate span instead,
	// and the per-user rank calls get no recorder.
	var bstart time.Time
	if act != nil {
		bstart = time.Now()
	}
	if req.Tenant == "" {
		// Default path: the shared filters are validated once (they are
		// immutable and safe for concurrent use), then the columnar engine
		// entry point ranks the whole batch.
		sn := rt.sn
		extra, err := s.requestFilters(sn, req.ExcludeItems, req.Filter)
		if err != nil {
			return 0, badRequest(err)
		}
		// Each user's stack is its own window of one pooled slice: stacks
		// may be built concurrently, and each must last its user's ranking.
		k := len(extra) + 1
		sc.filters = grown(sc.filters, len(req.Users)*k)
		sn.engine.TopMBatch(req.Users, m, workers, sn.stages, func(i int) ([]rank.Filter, bool) {
			u := req.Users[i]
			if u < 0 || u >= sn.rng.NumUsers() {
				slots[i].err = fmt.Sprintf("user %d out of range (%d users)", u, sn.rng.NumUsers())
				return nil, false
			}
			return userFilters(sc.filters[i*k:i*k:(i+1)*k], sn, u, extra), true
		}, cols)
		clear(sc.filters) // the pool must not pin a snapshot's training rows
		version = sn.version
	} else {
		// Tenant path: each user resolves to its own arm. Arms may serve
		// different catalogues, so the filter set is validated against
		// each user's own arm snapshot.
		parallel.For(len(slots), max(workers, 1), func(i int, _ *parallel.Scratch) {
			u, sl := req.Users[i], &slots[i]
			urt, _ := s.resolve(req.Tenant, u)
			sl.arm, sl.armVersion = urt.arm, urt.sn.version
			filters, err := s.requestFilters(urt.sn, req.ExcludeItems, req.Filter)
			if err == nil {
				sl.items, sl.scores, sl.cached, err = s.rankOne(nil, urt, u, m, filters)
			}
			if err != nil {
				sl.err = err.Error()
			}
		})
		for i := range slots {
			sl := &slots[i]
			if sl.err != "" {
				cols.AppendEmpty()
				continue
			}
			cols.Append(sl.items, sl.scores, sl.cached)
			sl.items, sl.scores = nil, nil // the pool must not pin cache entries
		}
		// Arms carry their own versions per slot; the response's top-level
		// version stays the default model's.
		version = s.snap.Load().version
	}
	if act != nil {
		act.Record("batch_rank", bstart, time.Since(bstart), fmt.Sprintf("users=%d", len(req.Users)))
	}
	return version, nil
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) int {
	var req BatchRequest
	if err := s.edge.DecodeJSON(w, r, &req); err != nil {
		return WriteError(w, http.StatusBadRequest, err.Error())
	}
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	// Config.Workers keeps its /v1/batch contract: 0 fans out over every core.
	workers := s.cfg.Workers
	if workers == 0 {
		workers = parallel.DefaultWorkers()
	}
	_, version, aerr := s.batch(obs.ActiveFrom(r.Context()), &req, workers, sc)
	if aerr != nil {
		return aerr.write(w)
	}
	// One flat ScoredItem buffer carved into per-user windows.
	cols := &sc.cols
	sc.res = grown(sc.res, len(req.Users))
	sc.flat = grown(sc.flat, len(cols.Items))
	off := 0
	for i, u := range req.Users {
		sl := &sc.slots[i]
		res := BatchResult{User: u, Error: sl.err}
		if sl.err == "" {
			res.Items, res.Cached = sc.flat[off:off+int(cols.Counts[i])], cols.Cached[i]
			for j := range res.Items {
				res.Items[j] = ScoredItem{Item: int(cols.Items[off+j]), Score: cols.Scores[off+j]}
			}
			off += len(res.Items)
		}
		if sl.arm != nil {
			res.Arm = sl.arm.name
			if sl.err == "" {
				res.ArmModelVersion = sl.armVersion
			}
		}
		sc.res[i] = res
	}
	return WriteJSON(w, http.StatusOK, BatchResponse{Results: sc.res, ModelVersion: version})
}

func (s *Server) handleBatchFrame(w http.ResponseWriter, r *http.Request) int {
	sc := batchScratchPool.Get().(*batchScratch)
	defer batchScratchPool.Put(sc)
	if status, ok := s.edge.ReadFrame(w, r, &sc.FrameScratch); !ok {
		return status
	}
	if sc.Req.ExpectVersion != 0 {
		return s.edge.BadFrame(w, "expect_version is a shard-path field; it must be 0 on /v2/batch")
	}
	// Frames fan out only on request (Config.Workers > 1): their batches are
	// small and mostly cache hits, which goroutines would only slow down.
	m, version, aerr := s.batch(obs.ActiveFrom(r.Context()), sc.BatchRequest(), s.cfg.Workers, sc)
	if aerr != nil {
		return aerr.write(w)
	}
	cols := &sc.cols
	sc.status = grown(sc.status, len(sc.slots))
	for i := range sc.slots {
		sl := &sc.slots[i]
		switch {
		case sl.err != "":
			sc.status[i] = wire.StatusError
		case cols.Cached[i]:
			sc.status[i] = wire.StatusCached
		default:
			sc.status[i] = 0
		}
		if sl.arm != nil && sl.err == "" {
			// The arm's binary-transport counter: the JSON/binary split is
			// observable per arm, not just per server.
			sl.arm.binary.Add(1)
		}
	}
	return s.edge.WriteFrame(w, &sc.FrameScratch, &wire.BatchResponse{
		M:            uint32(m),
		ModelVersion: version,
		Status:       sc.status,
		Counts:       cols.Counts,
		Items:        cols.Items,
		Scores:       cols.Scores,
	})
}
