package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rank"
	"repro/internal/serve"
	"repro/internal/sparse"
)

var testTrainCfg = core.Config{K: 6, Lambda: 2, MaxIter: 40, Seed: 3}

// tier is a full sharded deployment on httptest listeners: a reference
// single-process server over the whole model, nParts shard servers
// partitioning its catalogue, and a Router in front of the shards. The
// reference and the shards serve the same model file, so the router's
// merges must be bit-identical to the reference's lists.
type tier struct {
	modelPath string
	train     *sparse.Matrix
	ref       *serve.Server
	refTS     *httptest.Server
	shards    []*serve.Server
	shardTS   []*httptest.Server
	router    *Router
	routerTS  *httptest.Server
}

// testItemTags tags the synthetic catalogue: "even" marks even items,
// "low" the first half, "rare" items 1 and numItems-1 — the same shape
// the serve-layer filter tests use.
func testItemTags(t testing.TB, numItems int) *rank.TagTable {
	t.Helper()
	var b strings.Builder
	for i := 0; i < numItems; i++ {
		fmt.Fprintf(&b, "%d,item-%d", i, i)
		if i%2 == 0 {
			b.WriteString(",even")
		}
		if i < numItems/2 {
			b.WriteString(",low")
		}
		if i == 1 || i == numItems-1 {
			b.WriteString(",rare")
		}
		b.WriteByte('\n')
	}
	tab, err := rank.LoadTagTable(strings.NewReader(b.String()), numItems)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func trainAndSave(t testing.TB, train *sparse.Matrix, seed uint64, path string) *core.Model {
	t.Helper()
	cfg := testTrainCfg
	cfg.Seed = seed
	res, err := core.Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Model.SaveModelFileOpts(path, core.SaveOptions{Float32: true}); err != nil {
		t.Fatal(err)
	}
	return res.Model
}

func newTier(t testing.TB, nParts int, cfg Config) *tier {
	return newStagedTier(t, nParts, cfg, nil)
}

// newStagedTier is newTier with a staged re-rank pipeline on both sides
// of the comparison: the reference server re-ranks through
// serve.Config.Stages, the router through Config.Stages built from the
// same specs, tag table and model artifact — exactly the wiring
// cmd/ocular-router's -stages/-model/-items-meta flags perform. The
// shards stay stage-less either way (they serve raw partials).
func newStagedTier(t testing.TB, nParts int, cfg Config, specs []serve.StageSpec) *tier {
	t.Helper()
	tr := &tier{train: dataset.SyntheticSmall(1).Dataset.R}
	tr.modelPath = filepath.Join(t.TempDir(), "model.bin")
	model := trainAndSave(t, tr.train, 3, tr.modelPath)
	tags := testItemTags(t, model.NumItems())
	if len(specs) > 0 {
		stages, err := serve.BuildStages(specs, tags, model)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Stages = stages
	}

	ref, err := serve.NewFromFile(serve.Config{
		ModelPath: tr.modelPath, Train: tr.train, ItemTags: tags, Stages: specs,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.ref = ref
	tr.refTS = httptest.NewServer(ref.Handler())
	t.Cleanup(tr.refTS.Close)

	items := model.NumItems()
	for p := 0; p < nParts; p++ {
		lo, hi := p*items/nParts, (p+1)*items/nParts
		if p == nParts-1 {
			hi = -1
		}
		srv, err := serve.NewShardFromFile(serve.Config{
			ModelPath: tr.modelPath, Train: tr.train, ItemTags: tags, ShardLo: lo, ShardHi: hi,
		})
		if err != nil {
			t.Fatalf("shard %d [%d,%d): %v", p, lo, hi, err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		tr.shards = append(tr.shards, srv)
		tr.shardTS = append(tr.shardTS, ts)
		cfg.Shards = append(cfg.Shards, ts.URL)
	}

	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	tr.router = rt
	tr.routerTS = httptest.NewServer(rt.Handler())
	t.Cleanup(tr.routerTS.Close)
	return tr
}

func postJSON(t testing.TB, url string, body, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decoding: %v", url, err)
		}
	}
	return resp.StatusCode
}

// sameLists fails unless the router's list equals the reference's —
// same items, same float64 score bits, same length.
func sameLists(t testing.TB, label string, got []serve.ScoredItem, want []serve.ScoredItem) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: router merged %d items, reference served %d", label, len(got), len(want))
	}
	for n := range want {
		if got[n].Item != want[n].Item {
			t.Errorf("%s rank %d: router item %d, reference %d", label, n, got[n].Item, want[n].Item)
		}
		if got[n].Score != want[n].Score {
			t.Errorf("%s rank %d: router score %v, reference %v (must be bit-identical)",
				label, n, got[n].Score, want[n].Score)
		}
	}
}

// compare runs one request against both the router and the reference and
// requires bit-identical answers.
func (tr *tier) compare(t testing.TB, label string, req serve.RecommendRequest) {
	t.Helper()
	var want serve.RecommendResponse
	if st := postJSON(t, tr.refTS.URL+"/v1/recommend", req, &want); st != 200 {
		t.Fatalf("%s: reference status %d", label, st)
	}
	var got RecommendResponse
	if st := postJSON(t, tr.routerTS.URL+"/v1/recommend", req, &got); st != 200 {
		t.Fatalf("%s: router status %d", label, st)
	}
	if got.Degraded {
		t.Fatalf("%s: healthy tier answered degraded", label)
	}
	sameLists(t, label, got.Items, want.Items)
}

var compareCases = []struct {
	name string
	req  serve.RecommendRequest
}{
	{"plain", serve.RecommendRequest{User: 0, M: 10}},
	{"m1", serve.RecommendRequest{User: 7, M: 1}},
	{"deep", serve.RecommendRequest{User: 42, M: 25}},
	{"exclude", serve.RecommendRequest{User: 119, M: 10, ExcludeItems: []int{0, 3, 17, 40, 41, 59}}},
	{"overlong", serve.RecommendRequest{User: 3, M: 1000}},
	{"filtered", serve.RecommendRequest{User: 11, M: 8,
		Filter: &serve.FilterSpec{AllowTags: []string{"low", "even"}, DenyTags: []string{"rare"}}}},
	{"exclude+filter", serve.RecommendRequest{User: 64, M: 12, ExcludeItems: []int{2, 4},
		Filter: &serve.FilterSpec{DenyTags: []string{"even"}}}},
}

// TestRouterBitIdenticalAcrossRollout is the subsystem's acceptance
// test: the router's merged lists are bit-identical (items AND scores)
// to a single process serving the full model — across shard counts,
// exclusion lists and tag filters, and across a mid-test quorum rollout:
// after the shards reload a new model the router still serves the OLD
// version bit-identically (pinned requests, snapshot history) until the
// table flips, after which it serves the NEW version bit-identically.
func TestRouterBitIdenticalAcrossRollout(t *testing.T) {
	for _, nParts := range []int{2, 3} {
		t.Run(fmt.Sprintf("shards=%d", nParts), func(t *testing.T) {
			tr := newTier(t, nParts, Config{})
			for _, c := range compareCases {
				tr.compare(t, c.name, c.req)
			}

			// Quorum rollout, step 1: a new model lands and every shard
			// reloads. The route table still pins version 1, so the router
			// must keep serving the OLD model — bit-identical to the
			// not-yet-reloaded reference — from the shards' snapshot history.
			trainAndSave(t, tr.train, 99, tr.modelPath)
			for _, ts := range tr.shardTS {
				if st := postJSON(t, ts.URL+"/v1/reload", nil, nil); st != 200 {
					t.Fatalf("shard reload: status %d", st)
				}
			}
			for _, c := range compareCases {
				tr.compare(t, c.name+"/pre-flip", c.req)
			}

			// Step 2: the flip. Now the router serves the NEW model —
			// bit-identical to the reloaded reference.
			var flip FlipResponse
			if st := postJSON(t, tr.routerTS.URL+"/v1/admin/flip", nil, &flip); st != 200 {
				t.Fatalf("flip: status %d", st)
			}
			if flip.Epoch != 2 {
				t.Fatalf("flip epoch %d, want 2", flip.Epoch)
			}
			for _, sh := range flip.Shards {
				if sh.Version != 2 {
					t.Fatalf("flipped table pins %s to version %d, want 2", sh.URL, sh.Version)
				}
			}
			if err := tr.ref.ReloadFromFile(); err != nil {
				t.Fatal(err)
			}
			for _, c := range compareCases {
				tr.compare(t, c.name+"/post-flip", c.req)
			}
		})
	}
}

// TestRouterStagedBitIdenticalAcrossRollout extends the rollout
// acceptance test to the staged pipeline: with the same floor+boost
// stage specs on the router and on the single-process reference, the
// router's post-merge re-ranking (over-fetched shard partials, stages
// applied exactly once after the merge) stays bit-identical to staged
// single-process serving — before a quorum rollout, while the route
// table still pins the old version, and after the flip. The stages here
// are deliberately model-independent (floor, tag boost): the router
// builds its pipeline once from the initial artifact, so a model-bound
// stage (diversify) would legitimately diverge from a reference that
// rebuilds stages per reload. Diversify's merge equivalence is covered
// single-process in rank's TestMergeTopMStagedMatchesSingleProcess.
func TestRouterStagedBitIdenticalAcrossRollout(t *testing.T) {
	specs := []serve.StageSpec{
		{Type: "floor", Min: 0.02},
		{Type: "boost", Delta: 0.25, Tags: []string{"rare"}, OverFetch: 2},
	}
	// compareCases minus "overlong": the boost stage over-fetches 2m from
	// each shard, and 2*1000 would trip the shards' own m cap — the same
	// reason ocular-router's -max-m must leave over-fetch headroom below
	// the shards' -max-m when stages are configured.
	var cases []struct {
		name string
		req  serve.RecommendRequest
	}
	for _, c := range compareCases {
		if c.req.M*2 <= 1000 {
			cases = append(cases, c)
		}
	}
	for _, nParts := range []int{2, 3} {
		t.Run(fmt.Sprintf("shards=%d", nParts), func(t *testing.T) {
			tr := newStagedTier(t, nParts, Config{}, specs)
			for _, c := range cases {
				tr.compare(t, c.name, c.req)
			}

			// Quorum rollout step 1: shards reload, table still pins the
			// old version — staged merges keep serving the OLD model.
			trainAndSave(t, tr.train, 99, tr.modelPath)
			for _, ts := range tr.shardTS {
				if st := postJSON(t, ts.URL+"/v1/reload", nil, nil); st != 200 {
					t.Fatalf("shard reload: status %d", st)
				}
			}
			for _, c := range cases {
				tr.compare(t, c.name+"/pre-flip", c.req)
			}

			// Step 2: flip, reload the reference, and the staged tier is
			// bit-identical on the NEW model.
			var flip FlipResponse
			if st := postJSON(t, tr.routerTS.URL+"/v1/admin/flip", nil, &flip); st != 200 {
				t.Fatalf("flip: status %d", st)
			}
			if flip.Epoch != 2 {
				t.Fatalf("flip epoch %d, want 2", flip.Epoch)
			}
			if err := tr.ref.ReloadFromFile(); err != nil {
				t.Fatal(err)
			}
			for _, c := range cases {
				tr.compare(t, c.name+"/post-flip", c.req)
			}
		})
	}
}

// TestRouterStagedCacheAndValidation: staged and unstaged routers must
// not share cache entries for the same request (the stage config is part
// of the fingerprint — checked here end to end through two routers over
// one shard tier), and New rejects stages whose empty CacheKey would
// poison the shared cache.
func TestRouterStagedCacheAndValidation(t *testing.T) {
	tr := newStagedTier(t, 2, Config{}, []serve.StageSpec{{Type: "floor", Min: 0.5}})
	// A second, unstaged router over the same shards.
	plain, err := New(Config{Shards: append([]string(nil), tr.router.cfg.Shards...)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	plainTS := httptest.NewServer(plain.Handler())
	defer plainTS.Close()

	req := serve.RecommendRequest{User: 5, M: 10}
	var staged, unstaged RecommendResponse
	if st := postJSON(t, tr.routerTS.URL+"/v1/recommend", req, &staged); st != 200 {
		t.Fatalf("staged router status %d", st)
	}
	if st := postJSON(t, plainTS.URL+"/v1/recommend", req, &unstaged); st != 200 {
		t.Fatalf("plain router status %d", st)
	}
	// floor=0.5 on synthetic probabilities truncates the list; the plain
	// router must serve the full one.
	if len(staged.Items) >= len(unstaged.Items) {
		t.Fatalf("floor stage kept %d of %d items — staged list should be shorter",
			len(staged.Items), len(unstaged.Items))
	}
	for _, it := range staged.Items {
		if it.Score < 0.5 {
			t.Errorf("staged router served item %d with score %v below the floor", it.Item, it.Score)
		}
	}

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

// TestRouterBatchMatchesRecommend: /v1/batch merges through the same
// path and cache as /v1/recommend, per-user results bit-identical to the
// reference, out-of-range users rejected per slot.
func TestRouterBatchMatchesRecommend(t *testing.T) {
	tr := newTier(t, 2, Config{})
	users := []int{0, 5, 9000, 42, 7}
	var batch BatchResponse
	if st := postJSON(t, tr.routerTS.URL+"/v1/batch",
		map[string]any{"users": users, "m": 6}, &batch); st != 200 {
		t.Fatalf("batch status %d", st)
	}
	if len(batch.Results) != len(users) {
		t.Fatalf("%d results for %d users", len(batch.Results), len(users))
	}
	for n, res := range batch.Results {
		if users[n] == 9000 {
			if res.Error == "" {
				t.Error("out-of-range user served")
			}
			continue
		}
		if res.Error != "" {
			t.Fatalf("user %d: %s", users[n], res.Error)
		}
		var want serve.RecommendResponse
		postJSON(t, tr.refTS.URL+"/v1/recommend", serve.RecommendRequest{User: users[n], M: 6}, &want)
		sameLists(t, fmt.Sprintf("batch user %d", users[n]), res.Items, want.Items)
	}
}

// TestMixedVersionMergeRejected pins the version-pin protocol end to
// end: when a shard no longer holds the route table's pinned version in
// its snapshot history (two reloads behind the pin), its 409 fails the
// whole request — a partial of another model version is never merged.
func TestMixedVersionMergeRejected(t *testing.T) {
	tr := newTier(t, 2, Config{})
	// Shard 0 reloads twice; its history is now {3, 2} while the route
	// table pins version 1.
	trainAndSave(t, tr.train, 99, tr.modelPath)
	for i := 0; i < 2; i++ {
		if st := postJSON(t, tr.shardTS[0].URL+"/v1/reload", nil, nil); st != 200 {
			t.Fatalf("reload %d: status %d", i, st)
		}
	}
	var errResp struct {
		Error string `json:"error"`
	}
	if st := postJSON(t, tr.routerTS.URL+"/v1/recommend",
		serve.RecommendRequest{User: 1, M: 5}, &errResp); st != http.StatusBadGateway {
		t.Fatalf("status %d, want 502 (fail closed on a version conflict)", st)
	}
	if !strings.Contains(errResp.Error, "version") {
		t.Errorf("error %q does not name the version conflict", errResp.Error)
	}
	// A flip re-pins to the shards' current versions and service resumes.
	if st := postJSON(t, tr.routerTS.URL+"/v1/admin/flip", nil, nil); st != 200 {
		t.Fatal("flip after re-reload failed")
	}
	// Shard 1 is two reloads behind shard 0 now; bring it level first.
	if st := postJSON(t, tr.routerTS.URL+"/v1/recommend",
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
	deg, err := New(Config{Shards: []string{tr.shardTS[0].URL, tr.shardTS[1].URL}, AllowDegraded: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := deg.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	degTS := httptest.NewServer(deg.Handler())
	defer degTS.Close()
	hi := tr.train.Cols() / 2 // shard 1 owns [items/2, items)

	tr.shardTS[1].Close() // the outage

	if st := postJSON(t, tr.routerTS.URL+"/v1/recommend",
		serve.RecommendRequest{User: 4, M: 10}, nil); st != http.StatusBadGateway {
		t.Fatalf("fail-closed router: status %d, want 502", st)
	}

	for round := 0; round < 2; round++ {
		var got RecommendResponse
		if st := postJSON(t, degTS.URL+"/v1/recommend",
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
	var first, second RecommendResponse
	postJSON(t, tr.routerTS.URL+"/v1/recommend", req, &first)
	postJSON(t, tr.routerTS.URL+"/v1/recommend", req, &second)
	if first.Cached || !second.Cached {
		t.Fatalf("cached flags %v/%v, want false/true", first.Cached, second.Cached)
	}
	sameLists(t, "cache hit", second.Items, first.Items)

	// Same model, new epoch: the flip alone must invalidate.
	if st := postJSON(t, tr.routerTS.URL+"/v1/admin/flip", nil, nil); st != 200 {
		t.Fatal("flip failed")
	}
	var third RecommendResponse
	postJSON(t, tr.routerTS.URL+"/v1/recommend", req, &third)
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
	tr := newTier(t, 2, Config{})
	// A flaky proxy in front of shard 0: the first /v2/shard/topm attempt
	// answers 500, everything else passes through.
	target, _ := url.Parse(tr.shardTS[0].URL)
	proxy := httputil.NewSingleHostReverseProxy(target)
	var failed atomic.Bool
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == shardPath && failed.CompareAndSwap(false, true) {
			http.Error(w, `{"error": "transient"}`, http.StatusInternalServerError)
			return
		}
		proxy.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	rt, err := New(Config{Shards: []string{flaky.URL, tr.shardTS[1].URL}, HedgeDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	var got RecommendResponse
	if st := postJSON(t, ts.URL+"/v1/recommend", serve.RecommendRequest{User: 2, M: 5}, &got); st != 200 {
		t.Fatalf("status %d, want 200 (hedge should have recovered the flaky shard)", st)
	}
	if rt.m.hedges.Value() < 1 {
		t.Error("no hedge launched for the failed first attempt")
	}
	var want serve.RecommendResponse
	postJSON(t, tr.refTS.URL+"/v1/recommend", serve.RecommendRequest{User: 2, M: 5}, &want)
	sameLists(t, "hedged", got.Items, want.Items)
}

// TestRouterRequestValidation mirrors the single-process server's
// rejections at the router's front door.
func TestRouterRequestValidation(t *testing.T) {
	tr := newTier(t, 2, Config{MaxM: 50, MaxBatch: 3, MaxBodyBytes: 512})
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
		if st := postJSON(t, tr.routerTS.URL+c.path, c.body, nil); st != c.want {
			t.Errorf("%s: status %d, want %d", name, st, c.want)
		}
	}
}

// TestRefreshValidation: a route table only installs over a healthy,
// exactly-partitioned shard tier; anything else keeps the old table.
func TestRefreshValidation(t *testing.T) {
	train := dataset.SyntheticSmall(1).Dataset.R
	modelPath := filepath.Join(t.TempDir(), "model.bin")
	model := trainAndSave(t, train, 3, modelPath)
	items := model.NumItems()

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
	if st := postJSON(t, ts.URL+"/v1/recommend", map[string]any{"user": 1}, nil); st != http.StatusServiceUnavailable {
		t.Errorf("no-table request: status %d, want 503", st)
	}
}

func TestRouterConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"no shards":      {},
		"empty url":      {Shards: []string{""}},
		"duplicate url":  {Shards: []string{"http://a", "http://a"}},
		"negative maxm":  {Shards: []string{"http://a"}, MaxM: -1},
		"negative body":  {Shards: []string{"http://a"}, MaxBodyBytes: -1},
		"negative fan":   {Shards: []string{"http://a"}, MaxFanout: -1},
		"negative hedge": {Shards: []string{"http://a"}, HedgeDelay: -time.Second},
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
	tr := newTier(t, 2, Config{CacheSize: 64})
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
			trainAndSave(t, tr.train, uint64(100+i%2), tr.modelPath)
			for _, ts := range tr.shardTS {
				if st := postJSON(t, ts.URL+"/v1/reload", nil, nil); st != 200 {
					t.Errorf("reload: status %d", st)
					return
				}
			}
			if st := postJSON(t, tr.routerTS.URL+"/v1/admin/flip", nil, nil); st != 200 {
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
				var got RecommendResponse
				st := postJSON(t, tr.routerTS.URL+"/v1/recommend",
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
