package cluster

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/rank"
	"repro/internal/ranktest"
	"repro/internal/serve"
)

// tier is a sharded deployment on httptest listeners over the conformance
// fixture: nParts shard servers partitioning its catalogue and a Router in
// front of them. The fixture's reference ranks the whole model in one
// process, so the router's merges must be bit-identical to it.
type tier struct {
	fx       *ranktest.Fixture
	shardTS  []*httptest.Server
	shards   []*serve.Server
	router   *Router
	routerTS *httptest.Server
}

// down takes shard i out: its listener and, since they outlive it, its
// frame streams.
func (tr *tier) down(i int) {
	tr.shardTS[i].Close()
	_ = tr.shards[i].Close()
}

// newTier builds a tier whose router runs under cfg (Config.Stages
// included: the shards stay stage-less either way, they serve raw
// partials) over shards with default limits, which cover any the router
// is given.
func newTier(t testing.TB, nParts int, cfg Config) *tier {
	t.Helper()
	return newTierOver(t, ranktest.New(t, ranktest.Variant{F32: true}), nParts, cfg)
}

func newTierOver(t testing.TB, fx *ranktest.Fixture, nParts int, cfg Config) *tier {
	t.Helper()
	tr := &tier{fx: fx}
	tr.shardTS = fx.Shards(t, nParts, func(lo, hi int) http.Handler {
		srv, err := serve.NewShardFromFile(serve.Config{
			ModelPath: fx.Path, Train: fx.Train, ItemTags: fx.Tags, ShardLo: lo, ShardHi: hi})
		if err != nil {
			t.Fatalf("shard [%d,%d): %v", lo, hi, err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		tr.shards = append(tr.shards, srv)
		return srv.Handler()
	})
	cfg.Shards = ranktest.URLs(tr.shardTS)
	tr.router, tr.routerTS = startRouter(t, cfg)
	return tr
}

// startRouter builds a router under cfg, installs its first route table
// and serves it until t ends.
func startRouter(t testing.TB, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

// ranker is the router behind one public codec, as the suite sees it.
func (tr *tier) ranker(codec ranktest.Codec) *ranktest.Ranker {
	r := &ranktest.Ranker{Rank: codec.Client(tr.routerTS.URL), Roll: tr.roll, Single: codec.Single, Cache: true,
		Stages: tr.router.cfg.Stages, Who: "router", Refusals: []ranktest.Refusal{{
			// The router serves the default path only, on every codec.
			Case:   ranktest.Case{Name: "tenant named", Users: []int{1}, Tenant: "acme"},
			Status: 400, Message: "tenant must be empty"}, ranktest.ExcludeOutOfRange}}
	if codec.Single {
		// The tag table is the shards'; their 400 is the router's for one
		// user, and fails every slot of a batch.
		r.Refusals = append(r.Refusals, ranktest.UnknownTag)
	}
	return r
}

// roll is the quorum rollout of the file the fixture installed: every
// shard reloads while the route table still pins version 1 — the router
// keeps serving the OLD model from the shards' snapshot history — then the
// flip re-pins every shard under a new epoch.
func (tr *tier) roll(t testing.TB, flip bool) {
	t.Helper()
	if !flip {
		for _, ts := range tr.shardTS {
			if st := ranktest.PostJSON(t, ts.URL+"/v1/reload", nil, nil); st != 200 {
				t.Fatalf("shard reload: status %d", st)
			}
		}
		return
	}
	var fl FlipResponse
	if st := ranktest.PostJSON(t, tr.routerTS.URL+"/v1/admin/flip", nil, &fl); st != 200 || fl.Epoch != 2 {
		t.Fatalf("flip: status %d epoch %d, want 200 at epoch 2", st, fl.Epoch)
	}
	for _, sh := range fl.Shards {
		if sh.Version != 2 {
			t.Fatalf("flipped table pins %s to version %d, want 2", sh.URL, sh.Version)
		}
	}
}

// conforms holds /v1/recommend to the reference on every single-user case
// — what a healed tier must be back to, nothing degraded.
func (tr *tier) conforms(t testing.TB, label string) {
	t.Helper()
	r := tr.ranker(ranktest.Recommend)
	for i := range ranktest.Cases {
		if c := &ranktest.Cases[i]; len(c.Users) == 1 {
			tr.fx.Check(t, label+"/"+c.Name, r, tr.fx.Cur, c)
		}
	}
}

// conformRouter registers the router behind each codec with the
// conformance suite, over 2 and 3 shards, across a quorum rollout. Staged,
// the router re-ranks once after the merge over partials over-fetched to
// the stages' candidate pool, and must equal staged single-process ranking.
func conformRouter(t *testing.T, staged bool, codecs ...ranktest.Codec) {
	for _, nParts := range []int{2, 3} {
		t.Run(fmt.Sprintf("shards=%d", nParts), func(t *testing.T) {
			for _, codec := range codecs {
				t.Run(codec.Name, func(t *testing.T) {
					fx := ranktest.New(t, ranktest.Variant{F32: !staged})
					cfg := Config{EdgeConfig: serve.EdgeConfig{MaxM: ranktest.MaxM, MaxBatch: ranktest.MaxBatch, MaxBodyBytes: ranktest.MaxBody}}
					if staged {
						cfg.Stages = fx.Stages
					}
					tr := newTierOver(t, fx, nParts, cfg)
					ranktest.Conformance(t, fx, tr.ranker(codec))
				})
			}
		})
	}
}

// TestRouterBitIdenticalAcrossRollout is the subsystem's acceptance test:
// the router's merged lists are the reference's, items AND score bits,
// before a rollout, while the table still pins the old version, and after
// the flip.
func TestRouterBitIdenticalAcrossRollout(t *testing.T) { conformRouter(t, false, ranktest.Recommend) }

// TestRouterStagedBitIdenticalAcrossRollout: the same with the staged
// pipeline, on every codec.
func TestRouterStagedBitIdenticalAcrossRollout(t *testing.T) {
	conformRouter(t, true, ranktest.Codecs...)
}

// TestRouterBatchMatchesRecommend: /v1/batch merges through the same path
// and cache as /v1/recommend.
func TestRouterBatchMatchesRecommend(t *testing.T) { conformRouter(t, false, ranktest.BatchJSON) }

// TestRouterStagedCacheAndValidation: New rejects stages whose empty
// CacheKey would poison the shared cache. (That a staged router applies its
// stages is conformRouter's; that they key its cache, TestFingerprintFor's.)
func TestRouterStagedCacheAndValidation(t *testing.T) {
	if _, err := New(Config{Shards: []string{"http://x"}, Stages: []rank.Stage{badStage{}}}); err == nil {
		t.Fatal("New accepted a stage with an empty CacheKey")
	}
}

// badStage declares no cache key — uncacheable per-request stages are a
// serve-layer concept; the router's static pipeline must stay cacheable.
type badStage struct{}

func (badStage) CacheKey() string { return "" }
func (badStage) OverFetch(m int) int {
	return m
}
func (badStage) Apply(m int, items []int, scores []float64) ([]int, []float64) {
	return items, scores
}

// TestMixedVersionMergeRejected pins the version-pin protocol end to
// end: when a shard no longer holds the route table's pinned version in
// its snapshot history (two reloads behind the pin), its 409 fails the
// whole request — a partial of another model version is never merged.
func TestMixedVersionMergeRejected(t *testing.T) {
	tr := newTier(t, 2, Config{})
	// Shard 0 reloads twice; its history is now {3, 2} while the route
	// table pins version 1.
	if err := tr.fx.Install(tr.fx.Next); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if st := ranktest.PostJSON(t, tr.shardTS[0].URL+"/v1/reload", nil, nil); st != 200 {
			t.Fatalf("reload %d: status %d", i, st)
		}
	}
	var errResp struct {
		Error string `json:"error"`
	}
	if st := ranktest.PostJSON(t, tr.routerTS.URL+"/v1/recommend",
		serve.RecommendRequest{User: 1, M: 5}, &errResp); st != http.StatusBadGateway {
		t.Fatalf("status %d, want 502 (fail closed on a version conflict)", st)
	}
	if !strings.Contains(errResp.Error, "version") {
		t.Errorf("error %q does not name the version conflict", errResp.Error)
	}
	// A flip re-pins to the shards' current versions and service resumes.
	if st := ranktest.PostJSON(t, tr.routerTS.URL+"/v1/admin/flip", nil, nil); st != 200 {
		t.Fatal("flip after re-reload failed")
	}
	// Shard 1 is two reloads behind shard 0 now; bring it level first.
	if st := ranktest.PostJSON(t, tr.routerTS.URL+"/v1/recommend",
		serve.RecommendRequest{User: 1, M: 5}, nil); st != 200 {
		// Shard 1 still serves version 1 == its pin, shard 0 version 3 ==
		// its pin: per-shard pins make the mixed-history tier servable.
		t.Fatalf("post-flip recommend: status %d, want 200", st)
	}
}

// TestDegradedMode: with a shard down, the default router fails closed
// (502 — a truncated catalogue is a wrong answer); with AllowDegraded it
// merges the survivors, marks the response degraded, confines the list
// to the surviving ranges, and never caches it.
func TestDegradedMode(t *testing.T) {
	tr := newTier(t, 2, Config{})
	// A second router over the same shards, refreshed while both live.
	deg, degTS := startRouter(t, Config{Shards: ranktest.URLs(tr.shardTS), AllowDegraded: true})
	hi := tr.fx.Train.Cols() / 2 // shard 1 owns [items/2, items)

	tr.down(1) // the outage

	if st := ranktest.PostJSON(t, tr.routerTS.URL+"/v1/recommend",
		serve.RecommendRequest{User: 4, M: 10}, nil); st != http.StatusBadGateway {
		t.Fatalf("fail-closed router: status %d, want 502", st)
	}

	for round := 0; round < 2; round++ {
		var got serve.RecommendResponse
		if st := ranktest.PostJSON(t, degTS.URL+"/v1/recommend",
			serve.RecommendRequest{User: 4, M: 10}, &got); st != 200 {
			t.Fatalf("degraded router round %d: status %d, want 200", round, st)
		}
		if !got.Degraded {
			t.Fatalf("round %d: response not marked degraded", round)
		}
		if got.Cached {
			t.Fatalf("round %d: degraded merge served from cache", round)
		}
		if len(got.Items) == 0 {
			t.Fatal("degraded merge is empty despite a surviving shard")
		}
		for _, it := range got.Items {
			if it.Item >= hi {
				t.Fatalf("degraded merge contains item %d from the dead shard's range [%d,...)", it.Item, hi)
			}
		}
	}
	if n := deg.cache.Len(); n != 0 {
		t.Errorf("cache holds %d entries after degraded merges, want 0", n)
	}
}

// TestRouterCacheAndEpochFingerprint: a repeated request hits the cache;
// a flip advances the epoch, which is folded into every fingerprint, so
// the first request after a flip is a miss by construction.
func TestRouterCacheAndEpochFingerprint(t *testing.T) {
	tr := newTier(t, 2, Config{})
	req := serve.RecommendRequest{User: 33, M: 9, ExcludeItems: []int{5, 2, 5}}
	var first, second serve.RecommendResponse
	ranktest.PostJSON(t, tr.routerTS.URL+"/v1/recommend", req, &first)
	ranktest.PostJSON(t, tr.routerTS.URL+"/v1/recommend", req, &second)
	if first.Cached || !second.Cached {
		t.Fatalf("cached flags %v/%v, want false/true", first.Cached, second.Cached)
	}
	if !reflect.DeepEqual(second.Items, first.Items) {
		t.Fatalf("the cache hit served %v, the miss %v", second.Items, first.Items)
	}

	// Same model, new epoch: the flip alone must invalidate.
	if st := ranktest.PostJSON(t, tr.routerTS.URL+"/v1/admin/flip", nil, nil); st != 200 {
		t.Fatal("flip failed")
	}
	var third serve.RecommendResponse
	ranktest.PostJSON(t, tr.routerTS.URL+"/v1/recommend", req, &third)
	if third.Cached {
		t.Fatal("request served from a stale-epoch cache entry after the flip")
	}
	if third.RouteEpoch != 2 {
		t.Fatalf("RouteEpoch %d after flip, want 2", third.RouteEpoch)
	}
}

// TestHedgedRetry: a shard whose first attempt fails is retried
// immediately (fast-failure hedge), and the request still succeeds.
func TestHedgedRetry(t *testing.T) {
	ct := chaos.NewTransport(NewShardTransport(256), 1)
	tr := newTier(t, 2, Config{HedgeDelay: time.Millisecond, HTTPClient: &http.Client{Transport: ct}})
	// The first shard call answers 500; everything else passes through.
	ct.Set(&chaos.Fault{Path: shardPath, Status: 500, Count: 1})
	// The hedge recovers the flaky shard: a full, undegraded, reference list.
	tr.fx.Check(t, "hedged", tr.ranker(ranktest.Recommend), tr.fx.Cur, &ranktest.Case{Users: []int{2}, M: 5})
	if tr.router.m.hedges.Value() < 1 {
		t.Error("no hedge launched for the failed first attempt")
	}
}

// TestRouterRequestValidation mirrors the single-process server's
// rejections at the router's front door.
func TestRouterRequestValidation(t *testing.T) {
	tr := newTier(t, 2, Config{EdgeConfig: serve.EdgeConfig{MaxM: 50, MaxBatch: 3, MaxBodyBytes: 512}})
	for name, c := range map[string]struct {
		path string
		body any
		want int
	}{
		"user out of range": {"/v1/recommend", map[string]any{"user": 100000, "m": 5}, 400},
		"negative m":        {"/v1/recommend", map[string]any{"user": 1, "m": -2}, 400},
		"m over cap":        {"/v1/recommend", map[string]any{"user": 1, "m": 51}, 400},
		"bad exclude":       {"/v1/recommend", map[string]any{"user": 1, "exclude_items": []int{-3}}, 400},
		"unknown field":     {"/v1/recommend", map[string]any{"user": 1, "wat": true}, 400},
		"empty batch":       {"/v1/batch", map[string]any{"users": []int{}}, 400},
		"batch over cap":    {"/v1/batch", map[string]any{"users": []int{1, 2, 3, 4}}, 400},
		"oversized body":    {"/v1/recommend", map[string]any{"user": 1, "exclude_items": make([]int, 400)}, 400},
	} {
		if st := ranktest.PostJSON(t, tr.routerTS.URL+c.path, c.body, nil); st != c.want {
			t.Errorf("%s: status %d, want %d", name, st, c.want)
		}
	}
}

// TestRefreshValidation: a route table only installs over a healthy,
// exactly-partitioned shard tier; anything else keeps the old table.
func TestRefreshValidation(t *testing.T) {
	fx := ranktest.New(t, ranktest.Variant{})
	train, modelPath, items := fx.Train, fx.Path, fx.Train.Cols()

	shardTS := func(lo, hi int) *httptest.Server {
		srv, err := serve.NewShardFromFile(serve.Config{ModelPath: modelPath, Train: train, ShardLo: lo, ShardHi: hi})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return ts
	}
	refresh := func(urls ...string) error {
		rt, err := New(Config{Shards: urls})
		if err != nil {
			t.Fatal(err)
		}
		_, err = rt.Refresh(context.Background())
		return err
	}

	full := httptest.NewServer(func() http.Handler {
		srv, err := serve.NewFromFile(serve.Config{ModelPath: modelPath, Train: train})
		if err != nil {
			t.Fatal(err)
		}
		return srv.Handler()
	}())
	t.Cleanup(full.Close)

	half := shardTS(0, items/2)
	if err := refresh(half.URL, full.URL); err == nil || !strings.Contains(err.Error(), "not a shard server") {
		t.Errorf("full server accepted into a route table: %v", err)
	}
	if err := refresh(half.URL); err == nil || !strings.Contains(err.Error(), "cover") {
		t.Errorf("gap at the catalogue tail accepted: %v", err)
	}
	overlap := shardTS(items/2-1, -1)
	if err := refresh(half.URL, overlap.URL); err == nil || !strings.Contains(err.Error(), "partition") {
		t.Errorf("overlapping ranges accepted: %v", err)
	}
	tail := shardTS(items/2, -1)
	if err := refresh(half.URL, tail.URL); err != nil {
		t.Errorf("exact partition rejected: %v", err)
	}

	// Before the first successful refresh the router answers 503.
	rt, err := New(Config{Shards: []string{half.URL, tail.URL}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	if st := ranktest.PostJSON(t, ts.URL+"/v1/recommend", map[string]any{"user": 1}, nil); st != http.StatusServiceUnavailable {
		t.Errorf("no-table request: status %d, want 503", st)
	}
}

func TestRouterConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"no shards":         {},
		"empty url":         {Shards: []string{""}},
		"duplicate url":     {Shards: []string{"http://a", "http://a"}},
		"negative maxm":     {Shards: []string{"http://a"}, EdgeConfig: serve.EdgeConfig{MaxM: -1}},
		"negative batch":    {Shards: []string{"http://a"}, EdgeConfig: serve.EdgeConfig{MaxBatch: -1}},
		"negative body":     {Shards: []string{"http://a"}, EdgeConfig: serve.EdgeConfig{MaxBodyBytes: -1}},
		"negative inflight": {Shards: []string{"http://a"}, EdgeConfig: serve.EdgeConfig{MaxInFlight: -1}},
		"negative wait":     {Shards: []string{"http://a"}, EdgeConfig: serve.EdgeConfig{QueueWait: -time.Millisecond}},
		"negative hedge":    {Shards: []string{"http://a"}, HedgeDelay: -time.Second},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := New(Config{Shards: []string{"http://a", "http://b"}}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestFingerprintFor pins the cache-key canonicalization: epoch always
// folded in, exclusion and tag lists order- and duplicate-insensitive,
// allow and deny kept distinct, oversized filter surfaces uncacheable,
// stage keys length-prefixed so adjacent keys can never alias.
func TestFingerprintFor(t *testing.T) {
	fp := func(epoch uint64, ex []int, spec *serve.FilterSpec, stages ...rank.Stage) string {
		s, ok := fingerprintFor(epoch, ex, spec, stages)
		if !ok {
			t.Fatalf("fingerprintFor(%d, %v, %v) uncacheable", epoch, ex, spec)
		}
		return s
	}
	if fp(1, nil, nil) == fp(2, nil, nil) {
		t.Error("epoch not folded into the fingerprint")
	}
	if fp(1, []int{3, 1, 3, 2}, nil) != fp(1, []int{1, 2, 3}, nil) {
		t.Error("exclusion canonicalization (sort+dedup) broken")
	}
	if fp(1, nil, nil) == fp(1, []int{0}, nil) {
		t.Error("exclusions ignored")
	}
	if fp(1, nil, &serve.FilterSpec{AllowTags: []string{"b", "a", "a"}}) !=
		fp(1, nil, &serve.FilterSpec{AllowTags: []string{"a", "b"}}) {
		t.Error("tag canonicalization broken")
	}
	if fp(1, nil, &serve.FilterSpec{AllowTags: []string{"x"}}) ==
		fp(1, nil, &serve.FilterSpec{DenyTags: []string{"x"}}) {
		t.Error("allow and deny collide")
	}
	if fp(1, nil, &serve.FilterSpec{}) != fp(1, nil, nil) {
		t.Error("empty spec differs from no spec")
	}
	floor := rank.ScoreFloor(0.25)
	if fp(1, nil, nil, floor) == fp(1, nil, nil) {
		t.Error("stages not folded into the fingerprint")
	}
	if fp(1, nil, nil, floor, rank.ScoreFloor(0.5)) == fp(1, nil, nil, rank.ScoreFloor(0.5), floor) {
		t.Error("stage order not folded into the fingerprint (stages are not commutative)")
	}
	huge := make([]int, 3000)
	for i := range huge {
		huge[i] = i * 7
	}
	if _, ok := fingerprintFor(1, huge, nil, nil); ok {
		t.Error("oversized fingerprint not marked uncacheable")
	}
}

// TestRouterScatterGatherDuringQuorumReloadRace hammers the router with
// concurrent scatters while a rollout loop keeps reloading every shard
// and flipping the table — the -race CI pass over the snapshot/route
// swap machinery. Requests must answer 200 (or 502 for the narrow
// window where a pinned version fell off a shard's two-deep history);
// anything else, or a torn merge, fails.
func TestRouterScatterGatherDuringQuorumReloadRace(t *testing.T) {
	tr := newTier(t, 2, Config{EdgeConfig: serve.EdgeConfig{CacheSize: 64}})
	stop := make(chan struct{})
	var clients, rollouts sync.WaitGroup
	rollouts.Add(1)
	go func() { // the rollout loop
		defer rollouts.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := tr.fx.Install([]*core.Model{tr.fx.Next, tr.fx.Cur}[i%2]); err != nil {
				t.Errorf("install: %v", err)
				return
			}
			for _, ts := range tr.shardTS {
				if st := ranktest.PostJSON(t, ts.URL+"/v1/reload", nil, nil); st != 200 {
					t.Errorf("reload: status %d", st)
					return
				}
			}
			if st := ranktest.PostJSON(t, tr.routerTS.URL+"/v1/admin/flip", nil, nil); st != 200 {
				t.Errorf("flip: status %d", st)
				return
			}
		}
	}()
	for g := 0; g < 4; g++ {
		clients.Add(1)
		go func(g int) {
			defer clients.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 7))
			for i := 0; i < 60; i++ {
				var got serve.RecommendResponse
				st := ranktest.PostJSON(t, tr.routerTS.URL+"/v1/recommend",
					serve.RecommendRequest{User: rng.IntN(120), M: 1 + rng.IntN(12)}, &got)
				switch st {
				case http.StatusOK:
					for n := 1; n < len(got.Items); n++ {
						prev, cur := got.Items[n-1], got.Items[n]
						if cur.Score > prev.Score || (cur.Score == prev.Score && cur.Item <= prev.Item) {
							t.Errorf("torn merge: rank %d (%d: %v) after (%d: %v)",
								n, cur.Item, cur.Score, prev.Item, prev.Score)
						}
					}
				case http.StatusBadGateway:
					// pinned version aged out between table load and scatter
				default:
					t.Errorf("status %d", st)
				}
			}
		}(g)
	}
	// Let the clients finish, then stop the rollout loop.
	clients.Wait()
	close(stop)
	rollouts.Wait()
}
