package serve

import (
	"net/http"
	"sync"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/rank"
	"repro/internal/wire"
)

// The front: the public data path, POST /v1/recommend, /v1/batch and
// /v2/batch, written once and mounted by both binaries over the one
// Pipeline each supplies — Server.batch on a full server, the router's
// scatter-merge on a router. A codec decodes its request into a
// BatchRequest (a recommend is the batch of one user), the edge holds it
// to the binary's limits, the pipeline ranks it into a pooled Answer, and
// the codec encodes the Answer. The limits, the refusals' statuses and
// every answer's shape are the front's, so the binaries and the codecs
// cannot drift apart.

// RecommendRequest asks for the top-M list of a known user. ExcludeItems
// removes explicit items from the candidates on top of the user's training
// positives; Filter applies item-tag allow/deny lists. Filtered requests
// are cached like unfiltered ones — the cache key fingerprints the filter
// set.
type RecommendRequest struct {
	User         int         `json:"user"`
	M            int         `json:"m,omitempty"`
	ExcludeItems []int       `json:"exclude_items,omitempty"`
	Filter       *FilterSpec `json:"filter,omitempty"`
	// Tenant routes the request through the model registry (tenant →
	// experiment → arm). Empty is the default single-model path, wire
	// format unchanged; an unregistered tenant is a 404
	// {code:"unknown_tenant"}, never a silent fall-through. A router serves
	// the default path only.
	Tenant string `json:"tenant,omitempty"`
}

// RecommendResponse carries one user's ranked recommendations. A server
// labels them with the model version — on a tenant-routed request the
// arm's, with the tenant/experiment/arm/model fields beside it; the
// default path's wire format is exactly the pre-registry one. A router
// labels them with the route epoch they were merged under, and Degraded
// marks a merge of the surviving shards only (never cached).
type RecommendResponse struct {
	User         int          `json:"user"`
	Items        []ScoredItem `json:"items"`
	Cached       bool         `json:"cached"`
	ModelVersion uint64       `json:"model_version,omitempty"`
	RouteEpoch   uint64       `json:"route_epoch,omitempty"`
	Degraded     bool         `json:"degraded,omitempty"`
	Tenant       string       `json:"tenant,omitempty"`
	Experiment   string       `json:"experiment,omitempty"`
	Arm          string       `json:"arm,omitempty"`
	Model        string       `json:"model,omitempty"`
}

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

// BatchResponse carries one result per requested user, in request order,
// labelled as RecommendResponse is: a server's with its model version, a
// router's with its route epoch. A user that fails gets an Error and an
// empty list; the other users are still served.
type BatchResponse struct {
	Results      []BatchResult `json:"results"`
	ModelVersion uint64        `json:"model_version,omitempty"`
	RouteEpoch   uint64        `json:"route_epoch,omitempty"`
}

// BatchResult is one user's slot in a batch response. Arm and
// ArmModelVersion appear only on tenant-routed batches, where different
// users of one batch may land on different arms (so the top-level
// ModelVersion — the default model's — does not describe them); Degraded
// only on a router's merge of the surviving shards.
type BatchResult struct {
	User            int          `json:"user"`
	Items           []ScoredItem `json:"items,omitempty"`
	Cached          bool         `json:"cached,omitempty"`
	Degraded        bool         `json:"degraded,omitempty"`
	Error           string       `json:"error,omitempty"`
	Arm             string       `json:"arm,omitempty"`
	ArmModelVersion uint64       `json:"arm_model_version,omitempty"`
}

// A Pipeline is a binary's data path behind the front: it ranks the users
// of req — held to the binary's limits already, m clamped — into a, on up
// to workers goroutines where the binary fans out. It starts with a.Reset,
// appends one list per user to a.Cols in request order (an empty one for a
// user that failed, its Slot saying why) and labels the answer with
// ModelVersion or RouteEpoch. An error refuses the whole request; the
// edge answers it by its kind (see Error).
type Pipeline func(r *http.Request, req *BatchRequest, m, workers int, a *Answer) error

// Answer is the pooled workspace of one data request: what the pipeline
// ranked and, beside it, the codecs' buffers, so the steady-state path
// allocates neither request slices nor result structs on any codec: a
// request decodes into users / exclude, an answer encodes from the columns
// into out.
type Answer struct {
	Cols         rank.BatchCols // the users' ranked lists, end to end
	Slots        []Slot         // one per user, in request order
	ModelVersion uint64         // a server's answer: the version that ranked it
	RouteEpoch   uint64         // a router's answer: the epoch it was merged under

	// A server's tenant path ranks user i into armCols[i], before the
	// ordered append into Cols.
	armCols []rank.BatchCols
	req     BatchRequest      // the request the pipeline ranks
	rec     RecommendRequest  // a recommend's body, decoded
	one     [1]int            // a recommend's one user
	timings rank.Timings      // a traced recommend's stage times
	body    []byte            // frame codec: the request body...
	frame   wire.BatchRequest // ...decoded (aliasing body)
	users   []int             // the request's users and exclusions
	exclude []int
	spec    FilterSpec
	out     []byte  // the encoded answer, on either codec
	status  []uint8 // frame codec: per-user status bits
}

// Slot is what a pipeline records per user beside the columns.
type Slot struct {
	Err      error // why the user has no list; nil = served
	Degraded bool  // merged from the surviving shards only
	// A server's tenant path: the arm that served the user and its model
	// version.
	arm        *arm
	armVersion uint64
}

var answerPool = sync.Pool{New: func() any { return new(Answer) }}

// Reset empties a for a request of n users: empty columns (Cols.Timings
// kept), n cleared slots, no version.
func (a *Answer) Reset(n int) {
	a.Cols.Reset()
	a.Slots = grown(a.Slots, n)
	clear(a.Slots)
	a.ModelVersion, a.RouteEpoch = 0, 0
}

// release returns a to the pool; the pool must not pin snapshots or errors.
func (a *Answer) release() {
	clear(a.Slots)
	a.Cols.Timings = nil
	answerPool.Put(a)
}

// grown returns s resized to n elements, reusing its capacity. Contents
// are whatever an earlier request left; callers overwrite every element.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// frameRequest translates the decoded frame into the request shape the
// JSON codec decodes into — the one type the pipelines take — reusing a's
// buffers. ExpectVersion has no place in it: /v2/batch refuses a frame that
// sets it, /v2/shard/topm passes it beside the request.
func (a *Answer) frameRequest() *BatchRequest {
	a.users = a.users[:0]
	for _, u := range a.frame.Users {
		a.users = append(a.users, int(u))
	}
	a.exclude = a.exclude[:0]
	for _, x := range a.frame.Exclude {
		a.exclude = append(a.exclude, int(x))
	}
	a.req = BatchRequest{Users: a.users, M: int(a.frame.M), ExcludeItems: a.exclude, Tenant: a.frame.Tenant}
	if len(a.frame.AllowTags) > 0 || len(a.frame.DenyTags) > 0 {
		a.spec = FilterSpec{AllowTags: a.frame.AllowTags, DenyTags: a.frame.DenyTags}
		a.req.Filter = &a.spec
	}
	return &a.req
}

// Front is the public data path of one binary: the three codecs over its
// Pipeline, behind its edge.
type Front struct {
	edge    *Edge
	rank    Pipeline
	workers int
}

// NewFront builds the front of a binary ranking through rank. workers is a
// server's Config.Workers: /v1/batch ranks on that many goroutines (0:
// every core), /v2/batch — small batches, mostly cache hits, which
// goroutines only slow down — only when it is above 1. A router passes 0.
func NewFront(edge *Edge, rank Pipeline, workers int) *Front {
	return &Front{edge: edge, rank: rank, workers: workers}
}

// Mount registers the three routes on mux, instrumented and behind gate.
func (f *Front) Mount(mux *http.ServeMux, gate *Gate) {
	mux.HandleFunc("POST /v1/recommend", f.edge.Instrument("recommend", gate.Wrap(f.recommend)))
	mux.HandleFunc("POST /v1/batch", f.edge.Instrument("batch", gate.Wrap(f.batch)))
	mux.HandleFunc("POST /v2/batch", f.edge.Instrument("batch_binary", gate.Wrap(f.batchFrame)))
}

// run holds req to the limits and ranks it into a.
func (f *Front) run(r *http.Request, req *BatchRequest, workers int, a *Answer) (m int, err error) {
	if m, err = f.edge.check(req); err != nil {
		return 0, err
	}
	return m, f.rank(r, req, m, workers, a)
}

func (f *Front) recommend(w http.ResponseWriter, r *http.Request) int {
	a := answerPool.Get().(*Answer)
	defer a.release()
	req := &a.rec
	*req = RecommendRequest{ExcludeItems: a.exclude[:0]}
	if err := f.edge.decodeJSON(w, r, req); err != nil {
		return WriteError(w, http.StatusBadRequest, err.Error())
	}
	a.exclude, a.one[0] = req.ExcludeItems, req.User
	a.req = BatchRequest{Users: a.one[:], M: req.M, ExcludeItems: req.ExcludeItems, Filter: req.Filter, Tenant: req.Tenant}
	if obs.ActiveFrom(r.Context()) != nil {
		// A traced recommend is timed stage by stage, a batch as one span.
		a.timings, a.Cols.Timings = rank.Timings{}, &a.timings
	}
	_, err := f.run(r, &a.req, 1, a)
	if err == nil {
		err = a.Slots[0].Err
	}
	if err != nil {
		return f.edge.fail(w, err)
	}
	out, err := a.appendRecommend(a.out[:0], req.User)
	return a.reply(w, out, err)
}

func (f *Front) batch(w http.ResponseWriter, r *http.Request) int {
	a := answerPool.Get().(*Answer)
	defer a.release()
	req := &a.req
	*req = BatchRequest{Users: a.users[:0], ExcludeItems: a.exclude[:0]}
	if err := f.edge.decodeJSON(w, r, req); err != nil {
		return WriteError(w, http.StatusBadRequest, err.Error())
	}
	a.users, a.exclude = req.Users, req.ExcludeItems
	workers := f.workers
	if workers == 0 {
		workers = parallel.DefaultWorkers()
	}
	if _, err := f.run(r, req, workers, a); err != nil {
		return f.edge.fail(w, err)
	}
	out, err := a.appendBatch(a.out[:0], req.Users)
	return a.reply(w, out, err)
}

func (f *Front) batchFrame(w http.ResponseWriter, r *http.Request) int {
	a := answerPool.Get().(*Answer)
	defer a.release()
	if status, ok := f.edge.readFrame(w, r, a); !ok {
		return status
	}
	if a.frame.ExpectVersion != 0 {
		return f.edge.badFrame(w, "expect_version is a shard-path field; it must be 0 on /v2/batch")
	}
	m, err := f.run(r, a.frameRequest(), f.workers, a)
	if err != nil {
		return f.edge.fail(w, err)
	}
	a.status = grown(a.status, len(a.Slots))
	for i := range a.Slots {
		sl, b := &a.Slots[i], uint8(0)
		if sl.Err != nil {
			b = wire.StatusError
		} else if sl.arm != nil {
			// The arm's binary-transport counter: the JSON/binary split is
			// observable per arm, not just per server.
			sl.arm.binary.Add(1)
		}
		if a.Cols.Cached[i] {
			b |= wire.StatusCached
		}
		if sl.Degraded {
			b |= wire.StatusDegraded
		}
		a.status[i] = b
	}
	resp := &wire.BatchResponse{M: uint32(m), ModelVersion: a.ModelVersion, Status: a.status,
		Counts: a.Cols.Counts, Items: a.Cols.Items, Scores: a.Cols.Scores}
	if a.RouteEpoch != 0 {
		resp.Flags, resp.ModelVersion = wire.FlagRouterMerge, a.RouteEpoch
	}
	return f.edge.writeFrame(w, a, resp)
}
