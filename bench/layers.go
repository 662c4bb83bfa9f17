package main

// layers.go is the only file of the benchmark that imports the program
// under test. Everything else sees the small handles declared here, so
// an API change inside repro/internal is a one-file fix. End-to-end
// phases never call into these packages: they speak HTTP to what the
// tier handles expose.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/feed"
	"repro/internal/rank"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/trainer"
	"repro/internal/wire"
)

// size fixes a generated catalogue. Cluster sizes are ranges [n/2, n].
type size struct {
	Users, Items, K            int
	ClusterUsers, ClusterItems int
	NoisePerUser               int
}

type event struct{ User, Item int }

// inputs is the generated catalogue the program under test is given:
// the planted matrix split into the trainer's base matrix (70% of the
// positives), ingest slices (10%) and the hold-out (20%), plus the item
// tag table behind deny-tag filters.
//
// The catalogue comes from catalogSeed, not from the run's seed: how many
// iterations a training takes to converge depends on the matrix and the
// factor initialisation, so a per-run matrix would make cold_train_s and
// cycle_s differ between seeds by more than any code change. The run's
// seed drives the traffic — who asks, in which order, excluding what.
type inputs struct {
	Size   size
	Slices [][]event

	base *sparse.Matrix
	seen *sparse.Matrix // base + every slice: what the last model trained on
	test *sparse.Matrix
	tags *rank.TagTable
}

const (
	ingestSlices = 2
	catalogSeed  = 20170419
)

func makeInputs(sz size) (*inputs, error) {
	p, err := dataset.GeneratePlanted(dataset.PlantedConfig{
		Name:  "bench",
		Users: sz.Users, Items: sz.Items, Clusters: sz.K,
		MinClusterUsers: sz.ClusterUsers / 2, MaxClusterUsers: sz.ClusterUsers,
		MinClusterItems: sz.ClusterItems / 2, MaxClusterItems: sz.ClusterItems,
		WithinProb:     0.4,
		NoisePositives: sz.NoisePerUser * sz.Users,
		PopularitySkew: 1.0,
	}, rng.New(catalogSeed))
	if err != nil {
		return nil, err
	}
	n := p.R.NNZ()
	perm := rng.New(catalogSeed + 1).Perm(n)
	nBase, nStream := n*7/10, n/10
	in := &inputs{Size: sz}
	in.base = p.R.SelectEntries(perm[:nBase])
	in.seen = p.R.SelectEntries(perm[:nBase+nStream])
	in.test = p.R.SelectEntries(perm[nBase+nStream:])
	stream := p.R.SelectEntries(perm[nBase : nBase+nStream])
	var evs []event
	stream.Each(func(u, i int) { evs = append(evs, event{u, i}) })
	per := (len(evs) + ingestSlices - 1) / ingestSlices
	for lo := 0; lo < len(evs); lo += per {
		in.Slices = append(in.Slices, evs[lo:min(lo+per, len(evs))])
	}
	var tb strings.Builder
	for i := 0; i < sz.Items; i += 10 {
		fmt.Fprintf(&tb, "%d,,%s\n", i, denyTag)
	}
	if in.tags, err = rank.LoadTagTable(strings.NewReader(tb.String()), sz.Items); err != nil {
		return nil, err
	}
	return in, nil
}

// ---- trainer ----

// target names where a trainer rolls its models out to; the zero value
// means nowhere (train and save only).
type target struct {
	ServerURL string
	ShardURLs []string
	RouterURL string
}

// cycle is what one trainer cycle reported, plus the gaps between the
// solver's per-iteration callbacks.
type cycle struct {
	Total, Replay, Train, Save, Rollout, Warm time.Duration
	Iters, NNZ                                int
	WarmStarted                               bool
	Version                                   uint64 // server version or router epoch confirmed
	IterGaps                                  []time.Duration
}

type trainerHandle struct {
	t    *trainer.Trainer
	gaps []time.Duration
	last time.Time
}

// newTrainer builds the trainer the way cmd/ocular-trainer does with its
// flag defaults (lambda 5, 150 iterations, serial solver, float32
// section saved); K comes from the catalogue size and the cache warm
// list is the issue's 256 users.
func (in *inputs) newTrainer(modelPath, feedDir string, tg target) (*trainerHandle, error) {
	h := &trainerHandle{}
	t, err := trainer.New(trainer.Config{
		FeedDir:   feedDir,
		ModelPath: modelPath,
		Base:      in.base,
		Train: core.Config{
			K: in.Size.K, Lambda: 5, MaxIter: 150, Seed: catalogSeed,
			OnIteration: func(int, float64) {
				now := time.Now()
				h.gaps = append(h.gaps, now.Sub(h.last))
				h.last = now
			},
		},
		Save:           core.SaveOptions{Float32: true},
		ServerURL:      tg.ServerURL,
		ShardURLs:      tg.ShardURLs,
		RouterURL:      tg.RouterURL,
		WarmCacheUsers: 256,
	})
	if err != nil {
		return nil, err
	}
	h.t = t
	return h, nil
}

func (h *trainerHandle) runOnce() (cycle, error) {
	h.gaps = h.gaps[:0]
	h.last = time.Now()
	cy, err := h.t.RunOnce(context.Background())
	if err != nil {
		return cycle{}, err
	}
	c := cycle{
		Total: cy.Duration, Replay: cy.ReplayDur, Train: cy.TrainDur, Save: cy.SaveDur,
		Rollout: cy.RolloutDur, Warm: cy.WarmDur,
		Iters: cy.Iterations, NNZ: cy.NNZ, WarmStarted: cy.WarmStarted,
		Version: max(cy.ServerVersion, cy.RouterEpoch),
	}
	// The first gap runs from RunOnce's start through the replay to the
	// end of iteration 0; only the later gaps are pure solver iterations.
	if len(h.gaps) > 1 {
		c.IterGaps = append([]time.Duration(nil), h.gaps[1:]...)
	}
	return c, nil
}

// ---- tiers ----

// tier is a serving deployment on loopback TCP, built from the same
// constructors the cmd/ mains call with zero-value configs: a single
// ocular-serve process, or an ocular-router over item-range shards.
type tier struct {
	URL       string
	Front     http.Handler
	ShardURLs []string
	Shards    []http.Handler
	Routed    bool

	feedDir string
	stops   []func()
}

// listen serves h on a free loopback port, as the mains' http.Server does.
func (t *tier) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() { _ = srv.Serve(ln); close(done) }()
	t.stops = append(t.stops, func() { _ = srv.Close(); <-done })
	return "http://" + ln.Addr().String(), nil
}

func (in *inputs) startSingle(modelPath, feedDir string) (*tier, error) {
	t := &tier{feedDir: feedDir}
	fl, err := feed.Open(feedDir, feed.Options{})
	if err != nil {
		return nil, err
	}
	t.stops = append(t.stops, func() { _ = fl.Close() })
	srv, err := serve.NewFromFile(serve.Config{ModelPath: modelPath, Train: in.base, Feed: fl, ItemTags: in.tags})
	if err != nil {
		t.close()
		return nil, err
	}
	t.stops = append(t.stops, func() { _ = srv.Close() })
	t.Front = srv.Handler()
	if t.URL, err = t.listen(t.Front); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (in *inputs) startRouter(modelPath, feedDir string, nShards int) (*tier, error) {
	t := &tier{feedDir: feedDir, Routed: true}
	for s := 0; s < nShards; s++ {
		lo, hi := in.Size.Items*s/nShards, in.Size.Items*(s+1)/nShards
		if s == nShards-1 {
			hi = -1 // the tail shard follows catalogue growth
		}
		srv, err := serve.NewShardFromFile(serve.Config{
			ModelPath: modelPath, Train: in.base, ItemTags: in.tags, ShardLo: lo, ShardHi: hi,
		})
		if err != nil {
			t.close()
			return nil, err
		}
		t.stops = append(t.stops, func() { _ = srv.Close() })
		u, err := t.listen(srv.Handler())
		if err != nil {
			t.close()
			return nil, err
		}
		t.Shards = append(t.Shards, srv.Handler())
		t.ShardURLs = append(t.ShardURLs, u)
	}
	rt, err := cluster.New(cluster.Config{Shards: t.ShardURLs})
	if err != nil {
		t.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.stops = append(t.stops, cancel)
	if _, err := rt.Refresh(ctx); err != nil {
		t.close()
		return nil, err
	}
	rt.StartProber(ctx)
	t.Front = rt.Handler()
	if t.URL, err = t.listen(t.Front); err != nil {
		t.close()
		return nil, err
	}
	return t, nil
}

func (t *tier) target() target {
	if t.Routed {
		return target{ShardURLs: t.ShardURLs, RouterURL: t.URL}
	}
	return target{ServerURL: t.URL}
}

// ingest delivers new positives to the feed the trainer replays: through
// POST /v1/ingest on a single server; straight into the feed directory
// on a routed tier, whose shards are stateless and take no feed.
func (t *tier) ingest(c *http.Client, evs []event) error {
	if t.Routed {
		fl, err := feed.Open(t.feedDir, feed.Options{})
		if err != nil {
			return err
		}
		fe := make([]feed.Event, len(evs))
		for i, e := range evs {
			fe[i] = feed.Event{User: uint32(e.User), Item: uint32(e.Item)}
		}
		if err := fl.Append(fe...); err != nil {
			_ = fl.Close()
			return err
		}
		return fl.Close()
	}
	type ev struct {
		User int `json:"user"`
		Item int `json:"item"`
	}
	body := struct {
		Events []ev `json:"events"`
	}{Events: make([]ev, len(evs))}
	for i, e := range evs {
		body.Events[i] = ev{e.User, e.Item}
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.Post(t.URL+"/v1/ingest", "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ingest: HTTP %d: %s", resp.StatusCode, msg)
	}
	return nil
}

func (t *tier) close() {
	for i := len(t.stops) - 1; i >= 0; i-- {
		t.stops[i]()
	}
	t.stops = nil
}

// ---- reference answers and quality ----

// oracle recomputes a request's answer without the serving stack: the
// artifact's own scorer, then rank.Select under the same filters. Served
// lists must match it bit for bit.
type oracle struct {
	mm   *core.MappedModel
	in   *inputs
	buf  []float64
	deny rank.Filter
}

func (in *inputs) openOracle(modelPath string) (*oracle, error) {
	mm, err := core.OpenMappedModel(modelPath)
	if err != nil {
		return nil, err
	}
	deny, err := in.tags.Deny(denyTag)
	if err != nil {
		_ = mm.Close()
		return nil, err
	}
	return &oracle{mm: mm, in: in, buf: make([]float64, mm.NumItems()), deny: deny}, nil
}

func (in *inputs) filters(user int, c call, deny rank.Filter) []rank.Filter {
	fs := []rank.Filter{rank.TrainRow(in.base, user)}
	if len(c.Exclude) > 0 {
		fs = append(fs, rank.ExcludeItems(c.Exclude))
	}
	if c.Deny {
		fs = append(fs, deny)
	}
	return fs
}

// topM returns the expected items and the float64 bits of their scores.
func (o *oracle) topM(user int, c call) ([]int, []uint64) {
	o.mm.ScoreUser(user, o.buf)
	items := rank.Select(o.buf, listLen, o.in.filters(user, c, o.deny)...)
	bits := make([]uint64, len(items))
	for n, i := range items {
		bits[n] = math.Float64bits(o.buf[i])
	}
	return items, bits
}

func (o *oracle) close() { _ = o.mm.Close() }

// evaluate scores the artifact against the hold-out with the paper's
// protocol: rank the unknowns of everything the model trained on.
func (in *inputs) evaluate(modelPath string) (recall, mapAt float64, err error) {
	m, err := core.LoadModelFile(modelPath)
	if err != nil {
		return 0, 0, err
	}
	r := eval.Evaluate(m, in.seen, in.test, listLen)
	return r.RecallAtM, r.MAPAtM, nil
}

// ---- frames ----

// frameResponse is a decoded /v2/batch response.
type frameResponse struct {
	Status []uint8
	Counts []uint32
	Items  []uint32
	Scores []float64
}

const (
	frameContentType = serve.FrameContentType
	frameStatusError = wire.StatusError
	frameDegraded    = wire.StatusDegraded
)

func wireRequest(c call) *wire.BatchRequest {
	req := &wire.BatchRequest{M: listLen}
	for _, u := range c.Users {
		req.Users = append(req.Users, uint32(u))
	}
	for _, e := range c.Exclude {
		req.Exclude = append(req.Exclude, uint32(e))
	}
	if c.Deny {
		req.DenyTags = []string{denyTag}
	}
	return req
}

func (c call) frameBody(dst []byte) ([]byte, error) {
	return wire.AppendBatchRequest(dst, wireRequest(c))
}

func decodeFrame(data []byte, fr *frameResponse) error {
	var resp wire.BatchResponse
	if err := wire.DecodeBatchResponse(data, &resp); err != nil {
		return err
	}
	fr.Status, fr.Counts, fr.Items, fr.Scores = resp.Status, resp.Counts, resp.Items, resp.Scores
	return nil
}

// ---- direct layer calls (traced run only) ----

// ranker is a rank.Engine over the artifact (or one item range of it)
// configured like the serving snapshot's: default 4096-entry cache for
// the full catalogue, no cache for a shard range.
type ranker struct {
	in     *inputs
	eng    *rank.Engine
	scorer rank.Scorer
	buf    []float64
	lo, hi int
	deny   rank.Filter
	closer io.Closer
}

type rangeScorer struct{ rr *core.MappedModelRange }

func (r rangeScorer) ScoreUser(u int, dst []float64) { r.rr.ScoreItems(u, dst) }
func (r rangeScorer) NumItems() int                  { return r.rr.Len() }

// newRanker opens the full catalogue when hi == 0, else items [lo, hi).
func (in *inputs) newRanker(modelPath string, lo, hi int) (*ranker, error) {
	deny, err := in.tags.Deny(denyTag)
	if err != nil {
		return nil, err
	}
	r := &ranker{in: in, lo: lo, hi: hi, deny: deny}
	cfg := rank.Config{CacheSize: 4096}
	if hi == 0 {
		mm, err := core.OpenMappedModel(modelPath)
		if err != nil {
			return nil, err
		}
		r.scorer, r.closer = mm, mm
	} else {
		rr, err := core.OpenMappedModelRange(modelPath, lo, hi)
		if err != nil {
			return nil, err
		}
		r.scorer, r.closer = rangeScorer{rr}, rr
		cfg.CacheSize = -1
	}
	r.eng = rank.NewEngine(r.scorer, cfg)
	r.buf = make([]float64, r.scorer.NumItems())
	return r, nil
}

func (r *ranker) filters(user int, c call) []rank.Filter {
	fs := r.in.filters(user, c, r.deny)
	if r.hi != 0 {
		for i, f := range fs {
			fs[i] = rank.OffsetRange(f, r.lo, r.hi)
		}
	}
	return fs
}

// rankTimes is one TopMTimed call: its wall time, the engine's own
// score / filter+select split, and whether the cache answered.
type rankTimes struct {
	Total, Score, Select time.Duration
	Cached               bool
	Items                []int
	Scores               []float64
}

func (r *ranker) topM(c call) rankTimes {
	var tm rank.Timings
	fs := r.filters(c.Users[0], c)
	t0 := time.Now()
	items, scores, cached := r.eng.TopMTimed(c.Users[0], listLen, &tm, fs...)
	return rankTimes{Total: time.Since(t0), Score: tm.Score, Select: tm.Select, Cached: cached, Items: items, Scores: scores}
}

func (r *ranker) score(user int) time.Duration {
	t0 := time.Now()
	r.scorer.ScoreUser(user, r.buf)
	return time.Since(t0)
}

func (r *ranker) close() { _ = r.closer.Close() }

// timeEach runs fn n times and returns each call's duration in µs.
func timeEach(n int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = timeUs(func() { fn(i) })
	}
	return out
}

// measureLayers times the public functions of core, rank, wire and feed
// on the run's artifact, one call per sample. reps scales the sample
// counts (the quick profile passes a small one).
func (in *inputs) measureLayers(modelPath, scratch string, reps int, res *results) error {
	users, items, k := in.Size.Users, in.Size.Items, in.Size.K
	mm, err := core.OpenMappedModel(modelPath)
	if err != nil {
		return err
	}
	defer mm.Close()
	buf := make([]float64, items)
	view := mm.Model()
	res.add("core.score_us", "us", timeEach(reps, func(i int) { view.ScoreUser(i%users, buf) })...)
	res.add("core.score_f32_us", "us", timeEach(reps, func(i int) { mm.ScoreUser(i%users, buf) })...)
	// Computed, not measured: the float32 sweep reads every item factor
	// once and writes one float64 score per item.
	res.add("core.score_bytes_per_user", "count", float64(items*k*4+items*8))

	qhi := items / 4
	rr, err := core.OpenMappedModelRange(modelPath, 0, qhi)
	if err != nil {
		return err
	}
	rbuf := make([]float64, rr.Len())
	res.add("core.score_range_us", "us", timeEach(reps, func(i int) { rr.ScoreItems(i%users, rbuf) })...)
	_ = rr.Close()

	model, err := core.LoadModelFile(modelPath)
	if err != nil {
		return err
	}
	savePath := filepath.Join(scratch, "save-probe.bin")
	var saveErr error
	saves := timeEach(max(reps/40, 3), func(int) {
		if err := model.SaveModelFileOpts(savePath, core.SaveOptions{Float32: true}); err != nil {
			saveErr = err
		}
	})
	if saveErr != nil {
		return saveErr
	}
	for i := range saves {
		saves[i] /= 1e3
	}
	res.add("core.save_ms", "ms", saves...)
	var openErr error
	res.add("core.open_mmap_us", "us", timeEach(max(reps/4, 5), func(int) {
		m2, err := core.OpenMappedModel(savePath)
		if err != nil {
			openErr = err
			return
		}
		_ = m2.Close()
	})...)
	if openErr != nil {
		return openErr
	}

	// rank: a fresh engine per question so cache state is known.
	full, err := in.newRanker(modelPath, 0, 0)
	if err != nil {
		return err
	}
	defer full.close()
	var miss, sc, sel, hit []float64
	for i := 0; i < reps; i++ {
		rt := full.topM(call{Users: []int{i % users}})
		miss = append(miss, float64(rt.Total.Nanoseconds())/1e3)
		sc = append(sc, float64(rt.Score.Nanoseconds())/1e3)
		sel = append(sel, float64(rt.Select.Nanoseconds())/1e3)
	}
	for i := 0; i < reps; i++ {
		rt := full.topM(call{Users: []int{i % users}})
		if rt.Cached {
			hit = append(hit, float64(rt.Total.Nanoseconds())/1e3)
		}
	}
	res.add("rank.topm_miss_us", "us", miss...)
	res.add("rank.score_us", "us", sc...)
	res.add("rank.filter_select_us", "us", sel...)
	res.add("rank.topm_hit_us", "us", hit...)

	// The shipped default pipeline has no re-rank stage; a score floor
	// is the cheapest one, timed through the same Timings field.
	staged := rank.NewEngine(mm, rank.Config{})
	stages := []rank.Stage{rank.ScoreFloor(0)}
	var rerank []float64
	for i := 0; i < reps; i++ {
		var tm rank.Timings
		u := i % users
		staged.TopMStagedTimed(u, listLen, stages, &tm, rank.TrainRow(in.base, u))
		rerank = append(rerank, float64(tm.Stages.Nanoseconds())/1e3)
	}
	res.add("rank.rerank_us", "us", rerank...)

	batchEng := rank.NewEngine(mm, rank.Config{})
	var cols rank.BatchCols
	workers := runtime.GOMAXPROCS(0)
	nb := max(reps/batchUsers, 3)
	res.add("rank.batch32_us", "us", timeEach(nb, func(i int) {
		us := make([]int, batchUsers)
		for j := range us {
			us[j] = (i*batchUsers + j) % users
		}
		cols.Reset()
		batchEng.TopMBatch(us, listLen, workers, nil, func(j int) ([]rank.Filter, bool) {
			return []rank.Filter{rank.TrainRow(in.base, us[j])}, true
		}, &cols)
	})...)

	const nParts = 4
	parts := make([][]rank.Partial, reps)
	for s := 0; s < nParts; s++ {
		lo, hi := items*s/nParts, items*(s+1)/nParts
		pr, err := in.newRanker(modelPath, lo, hi)
		if err != nil {
			return err
		}
		for i := range parts {
			rt := pr.topM(call{Users: []int{i % users}})
			global := make([]int, len(rt.Items))
			for n, it := range rt.Items {
				global[n] = it + lo
			}
			parts[i] = append(parts[i], rank.Partial{Items: global, Scores: rt.Scores})
		}
		pr.close()
	}
	res.add("rank.merge_us", "us", timeEach(reps, func(i int) { rank.MergeTopM(listLen, parts[i]...) })...)

	in.measureWire(reps, res)
	return in.measureFeed(scratch, reps, res)
}

// measureWire times frame encode/decode of one 32-user × 20-item batch.
// One sample is the mean of 64 calls: a single call is below the clock's
// useful resolution.
func (in *inputs) measureWire(reps int, res *results) {
	c := call{Users: make([]int, batchUsers)}
	for i := range c.Users {
		c.Users[i] = i % in.Size.Users
	}
	req := wireRequest(c)
	resp := &wire.BatchResponse{M: listLen, ModelVersion: 1}
	for u := 0; u < batchUsers; u++ {
		resp.Status = append(resp.Status, 0)
		resp.Counts = append(resp.Counts, listLen)
		for j := 0; j < listLen; j++ {
			resp.Items = append(resp.Items, uint32((u*listLen+j)%in.Size.Items))
			resp.Scores = append(resp.Scores, 1/float64(j+2))
		}
	}
	const inner = 64
	var reqBuf, respBuf []byte
	var dreq wire.BatchRequest
	var dresp wire.BatchResponse
	perCallNs := func(fn func()) []float64 {
		s := timeEach(max(reps/8, 5), func(int) {
			for j := 0; j < inner; j++ {
				fn()
			}
		})
		for i := range s {
			s[i] = s[i] * 1e3 / inner
		}
		return s
	}
	res.add("wire.req_encode_ns", "ns", perCallNs(func() { reqBuf, _ = wire.AppendBatchRequest(reqBuf[:0], req) })...)
	res.add("wire.req_decode_ns", "ns", perCallNs(func() { _ = wire.DecodeBatchRequest(reqBuf, &dreq) })...)
	res.add("wire.resp_encode_ns", "ns", perCallNs(func() { respBuf = wire.AppendBatchResponse(respBuf[:0], resp) })...)
	res.add("wire.resp_decode_ns", "ns", perCallNs(func() { _ = wire.DecodeBatchResponse(respBuf, &dresp) })...)
	res.add("wire.resp_bytes_per_user", "count", float64(len(respBuf))/batchUsers)
}

func (in *inputs) measureFeed(scratch string, reps int, res *results) error {
	dir := filepath.Join(scratch, "feed-probe")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	fl, err := feed.Open(dir, feed.Options{})
	if err != nil {
		return err
	}
	const perAppend = 256
	evs := make([]feed.Event, perAppend)
	var appendErr error
	app := timeEach(max(reps/4, 5), func(i int) {
		for j := range evs {
			evs[j] = feed.Event{User: uint32((i + j) % in.Size.Users), Item: uint32(j % in.Size.Items)}
		}
		if err := fl.Append(evs...); err != nil {
			appendErr = err
		}
	})
	if err := fl.Close(); err != nil {
		return err
	}
	if appendErr != nil {
		return appendErr
	}
	for i := range app {
		app[i] /= perAppend
	}
	res.add("feed.append_us_per_event", "us", app...)
	var replayErr error
	var n int
	rep := timeEach(5, func(int) {
		got, err := feed.Events(dir)
		if err != nil {
			replayErr = err
		}
		n = len(got)
	})
	if replayErr != nil {
		return replayErr
	}
	for i := range rep {
		rep[i] = float64(n) / rep[i] // events per µs = million events per second
	}
	res.add("feed.replay_mevents_per_s", "Mevents/s", rep...)
	return nil
}
