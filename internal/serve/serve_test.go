package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/feed"
	"repro/internal/ranktest"
	"repro/internal/sparse"
)

var foldInCfg = core.Config{Lambda: 2}

// newTestServer serves the conformance fixture's model (SyntheticSmall,
// trained, saved, mmapped — the full train → save → serve lifecycle) under
// cfg, for the tests that are about something other than ranking.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server, *core.Model, *sparse.Matrix) {
	t.Helper()
	fx := ranktest.New(t, ranktest.Variant{})
	cfg.ModelPath, cfg.Train, cfg.FoldIn = fx.Path, fx.Train, foldInCfg
	srv, ts := start(t, NewFromFile, cfg)
	return srv, ts, fx.Cur.Model, fx.Train
}

// TestRecommendCacheHit: a repeat feeds the hit rate operators watch.
func TestRecommendCacheHit(t *testing.T) {
	srv, ts, _, _ := newTestServer(t, Config{})
	for range 2 {
		ranktest.PostJSON(t, ts.URL+"/v1/recommend", RecommendRequest{User: 5, M: 10}, nil)
	}
	if hr := srv.Metrics().CacheHitRate(); hr != 0.5 {
		t.Errorf("cache hit rate %v after a miss and its repeat, want 0.5", hr)
	}
}

// TestRecommendAllocsPerRequest: what one traced /v1/recommend costs in
// allocations through the whole handler — decode into the pooled request,
// limits, the batch pipeline with one user, per-stage spans, the answer
// appended from the columns and written with its Content-Length — on a
// cache hit and on a miss, the request and recorder included. The cache is
// full, as a serving cache is: a miss then costs what a hit does, plus the
// one the test's own request body costs. The bounds are what it measures.
func TestRecommendAllocsPerRequest(t *testing.T) {
	skipUnderRace(t)
	cfg := conformConfig(ranktest.New(t, ranktest.Variant{F32: true}))
	cfg.CacheSize = 16
	srv, err := NewFromFile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recommend := func(body string) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/recommend", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	user := 0
	missOne := func() { user = (user + 1) % 100; recommend(fmt.Sprintf(`{"user":%d,"m":10}`, user)) }
	for range 200 { // fill the cache
		missOne()
	}
	miss := testing.AllocsPerRun(50, missOne)
	hit := testing.AllocsPerRun(50, func() { recommend(`{"user":3,"m":10}`) })
	if hit > 37 || miss > 38 {
		t.Errorf("a recommend costs %v allocations on a hit and %v on a miss, want at most 37 and 38", hit, miss)
	}
}

func TestCacheDisabled(t *testing.T) {
	_, ts, _, _ := newTestServer(t, Config{CacheSize: -1})
	var second RecommendResponse
	ranktest.PostJSON(t, ts.URL+"/v1/recommend", RecommendRequest{User: 5, M: 10}, nil)
	ranktest.PostJSON(t, ts.URL+"/v1/recommend", RecommendRequest{User: 5, M: 10}, &second)
	if second.Cached {
		t.Error("cache disabled but repeat request reported cached=true")
	}
}

func TestFoldInMatchesFoldInUser(t *testing.T) {
	_, ts, model, train := newTestServer(t, Config{})
	// Use a real user's history as the cold-start input.
	history := []int{}
	for _, i := range train.Row(17) {
		history = append(history, int(i))
	}
	if len(history) == 0 {
		t.Fatal("user 17 has no training positives")
	}
	var got FoldInResponse
	if st := ranktest.PostJSON(t, ts.URL+"/v1/foldin", FoldInRequest{Items: history, M: 10}, &got); st != 200 {
		t.Fatalf("status %d", st)
	}
	factor, bias, err := model.FoldInUser(history, foldInCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Factor) != len(factor) {
		t.Fatalf("factor length %d, want %d", len(got.Factor), len(factor))
	}
	for c := range factor {
		if got.Factor[c] != factor[c] {
			t.Errorf("factor[%d] = %v, want %v", c, got.Factor[c], factor[c])
		}
	}
	if got.Bias != bias {
		t.Errorf("bias = %v, want %v", got.Bias, bias)
	}
	// Expected ranking: score with the fold-in factor, exclude the history.
	scores := make([]float64, model.NumItems())
	model.ScoreWithFactor(factor, bias, scores)
	hist := make(map[int]bool)
	for _, i := range history {
		hist[i] = true
	}
	for n, it := range got.Items {
		if hist[it.Item] {
			t.Errorf("rank %d: history item %d recommended back", n, it.Item)
		}
		if it.Score != scores[it.Item] {
			t.Errorf("item %d: score %v, want %v", it.Item, it.Score, scores[it.Item])
		}
		if n > 0 && got.Items[n-1].Score < it.Score {
			t.Errorf("ranking not descending at rank %d", n)
		}
	}
	if len(got.Items) != 10 {
		t.Errorf("got %d items, want 10", len(got.Items))
	}
}

func TestExplainMatchesInProcess(t *testing.T) {
	_, ts, model, train := newTestServer(t, Config{})
	var rec RecommendResponse
	ranktest.PostJSON(t, ts.URL+"/v1/recommend", RecommendRequest{User: 9, M: 1}, &rec)
	item := rec.Items[0].Item
	var got ExplainResponse
	if st := ranktest.PostJSON(t, ts.URL+"/v1/explain", ExplainRequest{User: 9, Item: item}, &got); st != 200 {
		t.Fatalf("status %d", st)
	}
	want := explain.Explain(model, train, 9, item, explain.Options{})
	if got.Probability != want.Probability {
		t.Errorf("probability %v, want %v", got.Probability, want.Probability)
	}
	if len(got.Reasons) != len(want.Reasons) {
		t.Fatalf("%d reasons, want %d", len(got.Reasons), len(want.Reasons))
	}
	for n, reason := range want.Reasons {
		if got.Reasons[n].Cluster != reason.ClusterID {
			t.Errorf("reason %d: cluster %d, want %d", n, got.Reasons[n].Cluster, reason.ClusterID)
		}
		if got.Reasons[n].Contribution != reason.Contribution {
			t.Errorf("reason %d: contribution %v, want %v", n, got.Reasons[n].Contribution, reason.Contribution)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	srv, ts, _, _ := newTestServer(t, Config{MaxM: 50, MaxBatch: 4})
	post := func(path, body string) int {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"malformed json", "/v1/recommend", `{"user":`, 400},
		{"unknown field", "/v1/recommend", `{"usr": 3}`, 400},
		{"user out of range", "/v1/recommend", `{"user": 100000}`, 400},
		{"negative user", "/v1/recommend", `{"user": -1}`, 400},
		{"negative m", "/v1/recommend", `{"user": 1, "m": -2}`, 400},
		{"m over cap", "/v1/recommend", `{"user": 1, "m": 51}`, 400},
		{"foldin empty history", "/v1/foldin", `{"items": []}`, 400},
		{"foldin item out of range", "/v1/foldin", `{"items": [99999]}`, 400},
		{"explain item out of range", "/v1/explain", `{"user": 1, "item": 99999}`, 400},
		{"batch empty", "/v1/batch", `{"users": []}`, 400},
		{"batch over cap", "/v1/batch", `{"users": [1,2,3,4,5]}`, 400},
		// The body must be exactly one JSON value: a concatenated second
		// request is a client framing bug and must not be silently dropped.
		{"trailing second value", "/v1/recommend", `{"user": 1}{"user": 2}`, 400},
		{"trailing garbage", "/v1/recommend", `{"user": 1} trailing`, 400},
		{"trailing array", "/v1/batch", `{"users": [1]}[2]`, 400},
		// Trailing whitespace is part of the single value's framing and fine.
		{"trailing whitespace ok", "/v1/recommend", "{\"user\": 1}  \n\t ", 200},
	}
	for _, c := range cases {
		if got := post(c.path, c.body); got != c.want {
			t.Errorf("%s: status %d, want %d", c.name, got, c.want)
		}
	}
	// Wrong method routes to 405.
	resp, err := http.Get(ts.URL + "/v1/recommend")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/recommend: status %d, want 405", resp.StatusCode)
	}
	// Error responses must be counted by the instrumentation.
	var metrics struct {
		Endpoints map[string]struct {
			Requests int64 `json:"requests"`
			Errors   int64 `json:"errors"`
		} `json:"endpoints"`
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if metrics.Endpoints["recommend"].Errors == 0 {
		t.Error("recommend endpoint metrics report zero errors after error requests")
	}
	_ = srv
}

func TestDefaultMRespectsLowCap(t *testing.T) {
	_, ts, _, _ := newTestServer(t, Config{MaxM: 3})
	var got RecommendResponse
	if st := ranktest.PostJSON(t, ts.URL+"/v1/recommend", RecommendRequest{User: 1}, &got); st != 200 {
		t.Fatalf("status %d", st)
	}
	if len(got.Items) != 3 {
		t.Errorf("omitted m returned %d items, want the MaxM cap of 3", len(got.Items))
	}
}

// TestReloadSwapsModelAndCache: a reload bumps the served version, and one
// that fails changes nothing. (That a reload swaps the lists and empties
// the cache is the rollout leg of every server the conformance suite
// registers.)
func TestReloadSwapsModelAndCache(t *testing.T) {
	srv, ts, _, _ := newTestServer(t, Config{})
	var rl ReloadResponse
	if st := ranktest.PostJSON(t, ts.URL+"/v1/reload", struct{}{}, &rl); st != 200 || rl.ModelVersion != 2 {
		t.Fatalf("reload status %d version %d, want 200 and 2", st, rl.ModelVersion)
	}
	// A corrupt model file must fail the reload but keep serving. (Renamed
	// into place like any rollout: the served file is mapped, and truncating
	// it in place would fault the next uncached request.)
	garbage := srv.cfg.ModelPath + ".garbage"
	if err := os.WriteFile(garbage, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(garbage, srv.cfg.ModelPath); err != nil {
		t.Fatal(err)
	}
	if st := ranktest.PostJSON(t, ts.URL+"/v1/reload", struct{}{}, nil); st != 500 {
		t.Errorf("corrupt reload status %d, want 500", st)
	}
	var still RecommendResponse
	if st := ranktest.PostJSON(t, ts.URL+"/v1/recommend", RecommendRequest{User: 11, M: 10}, &still); st != 200 {
		t.Fatalf("serving broken after failed reload: status %d", st)
	}
	if still.ModelVersion != 2 {
		t.Errorf("failed reload changed the served version to %d", still.ModelVersion)
	}
}

// hammerDuringReloads fires perReader requests from each of 8 readers —
// request(u, n) is reader's n-th, about user u — while the model file is
// re-saved and reloaded underneath reloads times, alternating the
// fixture's two models and, with f32, the float32 section on and off: the
// rollout the trainer performs (rename a fresh file over the served path,
// then reload; in-flight requests keep the old inode through their
// snapshot's mapping). Every request must answer 200 against a consistent
// snapshot — a reload may never drop an in-flight request. Run with -race.
func hammerDuringReloads(t *testing.T, cfg Config, perReader, reloads int, f32 bool, request func(u, n int) (path, body string)) *Server {
	fx := ranktest.New(t, ranktest.Variant{})
	cfg.ModelPath, cfg.Train, cfg.FoldIn, cfg.CacheSize = fx.Path, fx.Train, foldInCfg, 256
	srv, ts := start(t, NewFromFile, cfg)
	const readers = 8
	var wg sync.WaitGroup
	errc := make(chan error, readers*perReader+2*reloads)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < perReader; n++ {
				path, body := request((g*31+n)%120, n)
				resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
				if err != nil {
					errc <- err
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errc <- fmt.Errorf("%s: status %d", path, resp.StatusCode)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; n < reloads; n++ {
			m := []*ranktest.Artifact{fx.Next, fx.Cur}[n%2].Model
			if err := m.SaveModelFileOpts(fx.Path, core.SaveOptions{Float32: f32 && n%2 == 0}); err != nil {
				errc <- err
			}
			if err := srv.ReloadFromFile(); err != nil {
				errc <- err
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	return srv
}

// TestConcurrentLoadWithReloads hammers the read endpoints while the model
// is hot-swapped repeatedly.
func TestConcurrentLoadWithReloads(t *testing.T) {
	const reloads = 20
	srv := hammerDuringReloads(t, Config{}, 40, reloads, false, func(u, n int) (string, string) {
		switch n % 3 {
		case 0:
			return "/v1/recommend", fmt.Sprintf(`{"user": %d, "m": 10}`, u)
		case 1:
			return "/v1/batch", fmt.Sprintf(`{"users": [%d, %d], "m": 5}`, u, (u+1)%120)
		}
		return "/v1/explain", fmt.Sprintf(`{"user": %d, "item": %d}`, u, u%80)
	})
	if v := srv.Version(); v != 1+reloads {
		t.Errorf("version %d after %d reloads, want %d", v, reloads, 1+reloads)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts, _, _ := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status       string `json:"status"`
		ModelVersion uint64 `json:"model_version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.ModelVersion != 1 {
		t.Errorf("healthz = %+v", health)
	}

	ranktest.PostJSON(t, ts.URL+"/v1/recommend", RecommendRequest{User: 1, M: 5}, nil)
	ranktest.PostJSON(t, ts.URL+"/v1/recommend", RecommendRequest{User: 1, M: 5}, nil)
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Cache struct {
			Hits    int64   `json:"hits"`
			HitRate float64 `json:"hit_rate"`
			Entries int     `json:"entries"`
		} `json:"cache"`
		Endpoints map[string]struct {
			Requests         int64            `json:"requests"`
			LatencyHistogram map[string]int64 `json:"latency_histogram"`
		} `json:"endpoints"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if metrics.Cache.Hits == 0 || metrics.Cache.HitRate <= 0 {
		t.Errorf("cache metrics %+v, want non-zero hits after repeat request", metrics.Cache)
	}
	if metrics.Cache.Entries == 0 {
		t.Error("cache reports zero entries after a miss")
	}
	rec := metrics.Endpoints["recommend"]
	if rec.Requests < 2 {
		t.Errorf("recommend requests %d, want >= 2", rec.Requests)
	}
	total := int64(0)
	for _, n := range rec.LatencyHistogram {
		total += n
	}
	if total != rec.Requests {
		t.Errorf("latency histogram sums to %d, want %d", total, rec.Requests)
	}
}

// TestFilteredRecommend: a /v1/recommend with exclude_items and a tag
// filter must round-trip with correct results — excluded and deny-tagged
// items absent, training positives still excluded, scores untouched —
// against exclusions worked out by hand, not by the rank package. (That a
// filtered list is cached under its own fingerprint is the conformance
// suite's: its "plain" and "filtered" cases differ in the filters alone.)
func TestFilteredRecommend(t *testing.T) {
	_, ts, model, train := newTestServer(t, Config{ItemTags: ranktest.Tags(t, 80)})
	const user = 7
	req := RecommendRequest{
		User:         user,
		M:            10,
		ExcludeItems: []int{2, 4, 6},
		Filter:       &FilterSpec{DenyTags: []string{"rare"}, AllowTags: []string{"low", "even"}},
	}
	var got RecommendResponse
	if st := ranktest.PostJSON(t, ts.URL+"/v1/recommend", req, &got); st != 200 {
		t.Fatalf("status %d", st)
	}
	if len(got.Items) != 10 {
		t.Fatalf("got %d items, want 10", len(got.Items))
	}
	// Reference: score in-process, apply the same exclusions by hand.
	scores := make([]float64, model.NumItems())
	model.ScoreUser(user, scores)
	owned := make(map[int]bool)
	for _, i := range train.Row(user) {
		owned[int(i)] = true
	}
	excluded := func(i int) bool {
		if owned[i] || i == 2 || i == 4 || i == 6 {
			return true
		}
		if i == 1 || i == 79 { // deny rare
			return true
		}
		return !(i < 40 || i%2 == 0) // allow low+even
	}
	for pos, it := range got.Items {
		if excluded(it.Item) {
			t.Errorf("excluded item %d served at rank %d", it.Item, pos)
		}
		if it.Score != scores[it.Item] {
			t.Errorf("item %d: score %v, want %v", it.Item, it.Score, scores[it.Item])
		}
	}
	for n := 1; n < len(got.Items); n++ {
		if got.Items[n-1].Score < got.Items[n].Score {
			t.Errorf("ranking not descending at %d", n)
		}
	}
}

func TestFilteredFoldInAndBatch(t *testing.T) {
	_, ts, _, train := newTestServer(t, Config{ItemTags: ranktest.Tags(t, 80)})
	history := []int{}
	for _, i := range train.Row(17) {
		history = append(history, int(i))
	}
	var fr FoldInResponse
	req := FoldInRequest{Items: history, M: 8, Filter: &FilterSpec{DenyTags: []string{"even"}}}
	if st := ranktest.PostJSON(t, ts.URL+"/v1/foldin", req, &fr); st != 200 {
		t.Fatalf("foldin status %d", st)
	}
	hist := make(map[int]bool)
	for _, i := range history {
		hist[i] = true
	}
	for _, it := range fr.Items {
		if hist[it.Item] {
			t.Errorf("history item %d recommended back", it.Item)
		}
		if it.Item%2 == 0 {
			t.Errorf("deny-tagged even item %d served", it.Item)
		}
	}
}

// TestFilterErrors: filter mistakes are client errors on every endpoint
// that takes a filter. (A tag filter with no table configured is
// TestBatchCodecSeam's.)
func TestFilterErrors(t *testing.T) {
	_, ts, _, _ := newTestServer(t, Config{ItemTags: ranktest.Tags(t, 80)})
	cases := []struct {
		name string
		req  any
		path string
	}{
		{"unknown tag", RecommendRequest{User: 1, M: 5, Filter: &FilterSpec{AllowTags: []string{"typo"}}}, "/v1/recommend"},
		{"exclude out of range", RecommendRequest{User: 1, M: 5, ExcludeItems: []int{99999}}, "/v1/recommend"},
		{"negative exclude", RecommendRequest{User: 1, M: 5, ExcludeItems: []int{-2}}, "/v1/recommend"},
		{"foldin unknown tag", FoldInRequest{Items: []int{3}, M: 5, Filter: &FilterSpec{DenyTags: []string{"nope"}}}, "/v1/foldin"},
		{"batch exclude out of range", BatchRequest{Users: []int{1}, M: 5, ExcludeItems: []int{4000}}, "/v1/batch"},
	}
	for _, c := range cases {
		if st := ranktest.PostJSON(t, ts.URL+c.path, c.req, nil); st != 400 {
			t.Errorf("%s: status %d, want 400", c.name, st)
		}
	}
}

// TestCoalescingObservable: duplicate concurrent (user, m) misses must
// compute the list once, observable through the /metrics cache.ranked
// counter (the coalesced counter reports how many waiters piggybacked).
func TestCoalescingObservable(t *testing.T) {
	_, ts, _, _ := newTestServer(t, Config{})
	const concurrent = 16
	var wg sync.WaitGroup
	for n := 0; n < concurrent; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/recommend", "application/json",
				bytes.NewReader([]byte(`{"user": 42, "m": 10}`)))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Cache struct {
			Hits      int64 `json:"hits"`
			Misses    int64 `json:"misses"`
			Coalesced int64 `json:"coalesced"`
			Ranked    int64 `json:"ranked"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Exactly 1 in practice; a request descheduled between its cache miss
	// and its flight join can legitimately become a second leader, so
	// allow that rare window rather than flake — the thundering herd
	// (ranked == concurrent) is what must never happen. The deterministic
	// ranked==1 assertion lives in rank.TestEngineCoalescesDuplicateMisses.
	if r := metrics.Cache.Ranked; r < 1 || r >= concurrent/2 {
		t.Errorf("ranked %d times for %d duplicate requests, want ~1 (coalesced=%d hits=%d)",
			r, concurrent, metrics.Cache.Coalesced, metrics.Cache.Hits)
	}
	if got := metrics.Cache.Hits + metrics.Cache.Coalesced + metrics.Cache.Misses; got != concurrent {
		t.Errorf("hits+coalesced+misses = %d, want %d", got, concurrent)
	}
}

// TestConcurrentFilteredReloads fires filtered requests (exclude_items +
// tag filters) while the model is hot-swapped repeatedly.
func TestConcurrentFilteredReloads(t *testing.T) {
	hammerDuringReloads(t, Config{ItemTags: ranktest.Tags(t, 80)}, 30, 15, true, func(u, n int) (string, string) {
		switch n % 3 {
		case 0:
			return "/v1/recommend", fmt.Sprintf(
				`{"user": %d, "m": 10, "exclude_items": [%d, %d], "filter": {"deny_tags": ["rare"]}}`, u, u%80, (u+3)%80)
		case 1:
			return "/v1/recommend", fmt.Sprintf(`{"user": %d, "m": 10, "filter": {"allow_tags": ["low", "even"]}}`, u)
		}
		return "/v1/batch", fmt.Sprintf(`{"users": [%d, %d], "m": 5, "exclude_items": [%d]}`, u, (u+1)%120, u%80)
	})
}

func TestServerRejectsShapeMismatch(t *testing.T) {
	fx := ranktest.New(t, ranktest.Variant{})
	train, path := fx.Train, fx.Path
	// A model over a different item count than the exclusion matrix.
	bigger := sparse.NewBuilder(train.Rows(), train.Cols()+1).Build()
	if _, err := NewFromFile(Config{ModelPath: path, Train: bigger}); err == nil {
		t.Error("NewFromFile accepted a model/train shape mismatch")
	}
	if _, err := NewFromFile(Config{Train: train}); err == nil {
		t.Error("NewFromFile accepted a config without ModelPath")
	}
	// A reload must refuse the same mismatch and keep serving.
	srv, err := NewFromFile(Config{ModelPath: path, Train: train})
	if err != nil {
		t.Fatal(err)
	}
	narrow := sparse.NewBuilder(train.Rows(), train.Cols()-1)
	train.Each(func(r, c int) {
		if c < train.Cols()-1 {
			narrow.Add(r, c)
		}
	})
	if err := ranktest.Train(t, narrow.Build(), 3).SaveModelFile(path); err != nil {
		t.Fatal(err)
	}
	if err := srv.ReloadFromFile(); err == nil {
		t.Error("ReloadFromFile accepted a model smaller than the train matrix")
	}
	if v := srv.Version(); v != 1 {
		t.Errorf("a refused reload left version %d, want 1", v)
	}
}

// TestNewRejectsBadConfig: every limit is validated at construction, so a
// misconfigured server fails fast instead of silently serving empty lists
// (MaxM), rejecting all batches (MaxBatch), or panicking under load.
func TestNewRejectsBadConfig(t *testing.T) {
	path := ranktest.New(t, ranktest.Variant{}).Path
	cases := map[string]Config{
		"negative MaxM":         {MaxM: -1},
		"negative MaxBatch":     {MaxBatch: -5},
		"negative MaxBodyBytes": {MaxBodyBytes: -1},
		"negative Workers":      {Workers: -2},
	}
	for name, cfg := range cases {
		cfg.ModelPath = path
		if _, err := NewFromFile(cfg); err == nil {
			t.Errorf("%s: NewFromFile accepted the config", name)
		}
	}
}

// TestFoldInCanonicalizesHistory: the fold-in response must depend only on
// the *set* of history items, not on their order or multiplicity. The
// solver sums float contributions in history order, so without
// canonicalization a reversed or duplicated history returns a factor
// differing in its low bits.
func TestFoldInCanonicalizesHistory(t *testing.T) {
	_, ts, _, train := newTestServer(t, Config{})
	history := []int{}
	for _, i := range train.Row(17) {
		history = append(history, int(i))
	}
	if len(history) < 2 {
		t.Fatal("user 17 has too few training positives for an order test")
	}
	// Reversed, with every item duplicated and one triplicated.
	messy := []int{history[0]}
	for n := len(history) - 1; n >= 0; n-- {
		messy = append(messy, history[n], history[n])
	}
	var canonical, fromMessy FoldInResponse
	if st := ranktest.PostJSON(t, ts.URL+"/v1/foldin", FoldInRequest{Items: history, M: 10}, &canonical); st != 200 {
		t.Fatalf("canonical request: status %d", st)
	}
	if st := ranktest.PostJSON(t, ts.URL+"/v1/foldin", FoldInRequest{Items: messy, M: 10}, &fromMessy); st != 200 {
		t.Fatalf("messy request: status %d", st)
	}
	for c := range canonical.Factor {
		if canonical.Factor[c] != fromMessy.Factor[c] {
			t.Errorf("factor[%d]: %v (sorted unique) vs %v (reversed+duplicated)",
				c, canonical.Factor[c], fromMessy.Factor[c])
		}
	}
	if canonical.Bias != fromMessy.Bias {
		t.Errorf("bias: %v vs %v", canonical.Bias, fromMessy.Bias)
	}
	if fmt.Sprint(canonical.Items) != fmt.Sprint(fromMessy.Items) {
		t.Errorf("rankings differ:\n%v\n%v", canonical.Items, fromMessy.Items)
	}
	// History items are never recommended back, duplicates or not.
	hist := make(map[int]bool)
	for _, i := range history {
		hist[i] = true
	}
	for _, it := range fromMessy.Items {
		if hist[it.Item] {
			t.Errorf("history item %d recommended back", it.Item)
		}
	}
	// Out-of-range items are rejected before any solver work.
	for _, bad := range [][]int{{-1}, {1 << 30}, {0, -7, 3}} {
		if st := ranktest.PostJSON(t, ts.URL+"/v1/foldin", FoldInRequest{Items: bad, M: 5}, nil); st != 400 {
			t.Errorf("history %v: status %d, want 400", bad, st)
		}
	}
}

// TestServeMapped asserts the serving stack actually runs on the mmap
// path for a v2 file (the default save format) and reports the float32
// section where the file has one. (That the float32 variant ranks within
// its quantization bound is the conformance suite's, on the F32 fixtures.)
func TestServeMapped(t *testing.T) {
	srv, _, _, _ := newTestServer(t, Config{})
	if mapped, f32 := srv.ServingMode(); !mapped || f32 {
		t.Errorf("default v2 file: mapped=%v float32=%v, want mapped=true float32=false", mapped, f32)
	}

	// Save with the float32 section and serve from it.
	fx := ranktest.New(t, ranktest.Variant{F32: true})
	model, train := fx.Cur.Model, fx.Train
	srv32, ts := start(t, NewFromFile, Config{ModelPath: fx.Path, Train: train, FoldIn: foldInCfg})
	if mapped, f32 := srv32.ServingMode(); !mapped || !f32 {
		t.Fatalf("f32 v2 file: mapped=%v float32=%v, want both true", mapped, f32)
	}
	// healthz reports the serving mode.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Mapped  bool `json:"mapped"`
		Float32 bool `json:"float32"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !health.Mapped || !health.Float32 {
		t.Errorf("healthz mapped=%v float32=%v, want both true", health.Mapped, health.Float32)
	}
	// Fold-in stays bit-exact on the float64 sections even with f32 scoring.
	history := []int{}
	for _, i := range train.Row(17) {
		history = append(history, int(i))
	}
	var fr FoldInResponse
	if st := ranktest.PostJSON(t, ts.URL+"/v1/foldin", FoldInRequest{Items: history, M: 5}, &fr); st != 200 {
		t.Fatalf("foldin status %d", st)
	}
	factor, bias, err := model.FoldInUser(history, foldInCfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := range factor {
		if fr.Factor[c] != factor[c] {
			t.Errorf("foldin factor[%d] = %v, want %v (must be exact)", c, fr.Factor[c], factor[c])
		}
	}
	if fr.Bias != bias {
		t.Errorf("foldin bias = %v, want %v", fr.Bias, bias)
	}
}

// TestConcurrentFileReloadsV2 hammers /v1/recommend and /v1/batch while
// v2 model files (alternating float32 section on/off) are re-saved and
// re-mmapped underneath; old mappings must stay valid for requests pinned
// to them.
func TestConcurrentFileReloadsV2(t *testing.T) {
	srv := hammerDuringReloads(t, Config{}, 30, 15, true, func(u, n int) (string, string) {
		if n%2 == 0 {
			return "/v1/recommend", fmt.Sprintf(`{"user": %d, "m": 10}`, u)
		}
		return "/v1/batch", fmt.Sprintf(`{"users": [%d, %d], "m": 5}`, u, (u+1)%120)
	})
	if mapped, _ := srv.ServingMode(); !mapped {
		t.Error("server not on the mmap path after file reloads")
	}
}

// --- Continuous-training pipeline: ingest, reload handshake, grown models ---

// TestIngestAppendsToFeed: /v1/ingest writes through to the configured
// interaction log in both request shapes, and the response reports the
// cumulative feed state.
func TestIngestAppendsToFeed(t *testing.T) {
	feedDir := t.TempDir()
	log, err := feed.Open(feedDir, feed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	_, ts, model, _ := newTestServer(t, Config{Feed: log})

	var resp IngestResponse
	if st := ranktest.PostJSON(t, ts.URL+"/v1/ingest", map[string]any{"user": 3, "items": []int{1, 2}}, &resp); st != 200 {
		t.Fatalf("ingest status %d", st)
	}
	if resp.Appended != 2 || resp.FeedPositives != 2 {
		t.Fatalf("ingest response %+v, want 2 appended / 2 total", resp)
	}
	// Ids beyond the served catalogue are accepted: they name users/items
	// a future retrained model will cover.
	newUser, newItem := model.NumUsers()+10, model.NumItems()+5
	req := map[string]any{"events": []map[string]int{
		{"user": newUser, "item": newItem},
		{"user": 0, "item": 0},
	}}
	if st := ranktest.PostJSON(t, ts.URL+"/v1/ingest", req, &resp); st != 200 {
		t.Fatalf("ingest events status %d", st)
	}
	if resp.Appended != 2 || resp.FeedPositives != 4 {
		t.Fatalf("ingest response %+v, want 2 appended / 4 total", resp)
	}

	events, err := feed.Events(feedDir)
	if err != nil {
		t.Fatal(err)
	}
	want := []feed.Event{
		{User: 3, Item: 1},
		{User: 3, Item: 2},
		{User: uint32(newUser), Item: uint32(newItem)},
		{User: 0, Item: 0},
	}
	if fmt.Sprint(events) != fmt.Sprint(want) {
		t.Fatalf("feed replay = %v, want %v", events, want)
	}

	// healthz surfaces the feed backlog.
	var health map[string]any
	getJSON(t, ts.URL+"/healthz", &health)
	if got := health["feed_positives"]; got != float64(4) {
		t.Fatalf("healthz feed_positives = %v, want 4", got)
	}

	for name, bad := range map[string]map[string]any{
		"no positives at all":  {},
		"user without items":   {"user": 3},
		"items without a user": {"items": []int{1, 2}}, // must not default to user 0
		"negative user":        {"user": -1, "items": []int{0}},
		"negative item":        {"user": 0, "items": []int{-2}},
		"id beyond feed.MaxID": {"events": []map[string]int{{"user": 1 << 29, "item": 0}}},
		"event missing user":   {"events": []map[string]int{{"item": 61}}}, // must not default to user 0
		"event missing item":   {"events": []map[string]int{{"user": 61}}},
	} {
		if st := ranktest.PostJSON(t, ts.URL+"/v1/ingest", bad, nil); st != 400 {
			t.Errorf("ingest %s: status %d, want 400", name, st)
		}
	}
	// Nothing from the rejected requests reached the feed.
	if got := log.Count(); got != 4 {
		t.Errorf("feed count %d after rejected ingests, want 4", got)
	}
}

func TestIngestWithoutFeedRejected(t *testing.T) {
	_, ts, _, _ := newTestServer(t, Config{})
	var resp map[string]string
	if st := ranktest.PostJSON(t, ts.URL+"/v1/ingest", map[string]any{"user": 1, "items": []int{2}}, &resp); st != http.StatusServiceUnavailable {
		t.Fatalf("ingest without feed: status %d, want 503", st)
	}
	if !strings.Contains(resp["error"], "feed") {
		t.Errorf("error %q does not mention the feed", resp["error"])
	}
}

func getJSON(t testing.TB, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestReloadHandshake: the reload response alone confirms the rollout —
// new version, serving mode — without a second /healthz round trip.
func TestReloadHandshake(t *testing.T) {
	srv, ts, _, train := newTestServer(t, Config{})
	model2 := ranktest.Train(t, train, 99)
	if err := model2.SaveModelFileOpts(srv.cfg.ModelPath, core.SaveOptions{Float32: true}); err != nil {
		t.Fatal(err)
	}
	var resp ReloadResponse
	if st := ranktest.PostJSON(t, ts.URL+"/v1/reload", struct{}{}, &resp); st != 200 {
		t.Fatalf("reload status %d", st)
	}
	if resp.ModelVersion != 2 {
		t.Errorf("model_version = %d, want 2", resp.ModelVersion)
	}
	if !resp.Mapped || !resp.Float32 {
		t.Errorf("serving mode mapped=%v float32=%v, want both true for a -save-f32 v2 file", resp.Mapped, resp.Float32)
	}
	if resp.Model != model2.String() {
		t.Errorf("model = %q, want %q", resp.Model, model2.String())
	}
}

// TestFoldInUnknownItemsDropped is the regression test for the silent
// zero-vector fold-in: items beyond the served catalogue are dropped from
// the history (they may be real items ingested but not yet rolled out),
// and a history left empty by that canonicalization is a clear 400, not a
// pure-shrinkage factor scoring every item alike. Negative items remain
// hard errors.
func TestFoldInUnknownItemsDropped(t *testing.T) {
	_, ts, model, train := newTestServer(t, Config{})
	row := train.Row(2)
	valid := make([]int, len(row))
	for n, i := range row {
		valid[n] = int(i)
	}

	// Mixed history: beyond-catalogue items are dropped, the rest folds in
	// exactly as if they were never sent.
	mixed := append([]int{model.NumItems(), model.NumItems() + 7}, valid...)
	var want, got FoldInResponse
	if st := ranktest.PostJSON(t, ts.URL+"/v1/foldin", FoldInRequest{Items: valid, M: 5}, &want); st != 200 {
		t.Fatalf("valid history: status %d", st)
	}
	if st := ranktest.PostJSON(t, ts.URL+"/v1/foldin", FoldInRequest{Items: mixed, M: 5}, &got); st != 200 {
		t.Fatalf("mixed history: status %d", st)
	}
	if fmt.Sprint(got.Factor) != fmt.Sprint(want.Factor) || fmt.Sprint(got.Items) != fmt.Sprint(want.Items) {
		t.Error("dropping unknown items changed the fold-in result")
	}

	// A history with nothing inside the catalogue: 400 with a clear
	// message, not a silently scored zero vector.
	var errResp map[string]string
	st := ranktest.PostJSON(t, ts.URL+"/v1/foldin",
		FoldInRequest{Items: []int{model.NumItems(), model.NumItems() + 3}, M: 5}, &errResp)
	if st != 400 {
		t.Fatalf("all-unknown history: status %d, want 400", st)
	}
	if !strings.Contains(errResp["error"], "catalogue") {
		t.Errorf("error %q does not explain the empty canonicalized history", errResp["error"])
	}
}

// TestReloadGrownModel: installing a model larger than the configured
// exclusion matrix (the trainer grew the catalogue) pads the matrix
// instead of failing the reload; old users keep their exclusions and the
// new user/item range serves.
func TestReloadGrownModel(t *testing.T) {
	srv, ts, _, train := newTestServer(t, Config{})
	// Retrain over a grown matrix: two new users, one new item.
	grown := train.PadTo(train.Rows()+2, train.Cols()+1)
	b := sparse.NewBuilder(grown.Rows(), grown.Cols())
	grown.Each(func(r, c int) { b.Add(r, c) })
	newUser, newItem := train.Rows(), train.Cols()
	b.Add(newUser, 0)
	b.Add(newUser, newItem)
	grown = b.Build()
	res, err := core.Train(grown, core.Config{K: 8, Lambda: 2, MaxIter: 30, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Model.SaveModelFile(srv.cfg.ModelPath); err != nil {
		t.Fatal(err)
	}
	var resp ReloadResponse
	if st := ranktest.PostJSON(t, ts.URL+"/v1/reload", struct{}{}, &resp); st != 200 {
		t.Fatalf("reload of grown model: status %d", st)
	}
	if resp.ModelVersion != 2 {
		t.Fatalf("model_version = %d, want 2", resp.ModelVersion)
	}
	// A user beyond the configured matrix serves with no exclusions.
	var rec RecommendResponse
	if st := ranktest.PostJSON(t, ts.URL+"/v1/recommend", RecommendRequest{User: newUser, M: 5}, &rec); st != 200 {
		t.Fatalf("recommend for grown user: status %d", st)
	}
	if len(rec.Items) != 5 || rec.ModelVersion != 2 {
		t.Fatalf("grown user response %+v", rec)
	}
	// An old user's training positives stay excluded.
	u := 2
	excluded := make(map[int]bool)
	for _, i := range train.Row(u) {
		excluded[int(i)] = true
	}
	if st := ranktest.PostJSON(t, ts.URL+"/v1/recommend", RecommendRequest{User: u, M: 10}, &rec); st != 200 {
		t.Fatalf("recommend for old user: status %d", st)
	}
	for _, it := range rec.Items {
		if excluded[it.Item] {
			t.Errorf("training positive %d recommended back after grown reload", it.Item)
		}
	}
	// Reloading again at the same grown shape reuses the padded matrix
	// (and its transpose) instead of rebuilding O(nnz) state per reload.
	padded := srv.snap.Load().train
	if st := ranktest.PostJSON(t, ts.URL+"/v1/reload", struct{}{}, &resp); st != 200 {
		t.Fatalf("second grown reload: status %d", st)
	}
	if srv.snap.Load().train != padded {
		t.Error("second reload at the same shape rebuilt the padded exclusion matrix")
	}
}

// TestExplainDuringGrownReloadRace fires /v1/explain (which walks the
// train matrix's columns, i.e. its lazily built transpose) while grown
// models reload underneath — the padded exclusion matrix is a fresh
// sparse.Matrix per reload, so install must materialize its transpose
// before publishing the snapshot. Run with -race.
func TestExplainDuringGrownReloadRace(t *testing.T) {
	srv, ts, _, train := newTestServer(t, Config{})
	grown := trainGrown(t, train, 1)
	if err := grown.SaveModelFile(srv.cfg.ModelPath); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				st := ranktest.PostJSON(t, ts.URL+"/v1/explain",
					ExplainRequest{User: (g*13 + n) % train.Rows(), Item: n % train.Cols()}, nil)
				if st != 200 {
					t.Errorf("explain status %d", st)
					return
				}
			}
		}(g)
	}
	for r := 0; r < 15; r++ {
		if err := srv.ReloadFromFile(); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// trainGrown trains a model over train padded by extra users/items.
func trainGrown(t testing.TB, train *sparse.Matrix, extra int) *core.Model {
	t.Helper()
	res, err := core.Train(train.PadTo(train.Rows()+extra, train.Cols()+extra),
		core.Config{K: 8, Lambda: 2, MaxIter: 20, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	return res.Model
}

// TestIngestGrowthHeadroom: ids beyond the served catalogue are accepted
// only within MaxIngestGrowth — an absurd id would make the trainer size
// its matrix (and factor rows) up to it.
func TestIngestGrowthHeadroom(t *testing.T) {
	log, err := feed.Open(t.TempDir(), feed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	_, ts, model, _ := newTestServer(t, Config{Feed: log, MaxIngestGrowth: 8})
	nu, ni := model.NumUsers(), model.NumItems()
	if st := ranktest.PostJSON(t, ts.URL+"/v1/ingest", map[string]any{"user": nu + 7, "items": []int{ni + 7}}, nil); st != 200 {
		t.Errorf("within headroom: status %d, want 200", st)
	}
	var errResp map[string]string
	if st := ranktest.PostJSON(t, ts.URL+"/v1/ingest", map[string]any{"user": nu + 8, "items": []int{0}}, &errResp); st != 400 {
		t.Errorf("user beyond headroom: status %d, want 400", st)
	} else if !strings.Contains(errResp["error"], "headroom") {
		t.Errorf("error %q does not mention the growth headroom", errResp["error"])
	}
	if st := ranktest.PostJSON(t, ts.URL+"/v1/ingest", map[string]any{"user": 0, "items": []int{ni + 8}}, nil); st != 400 {
		t.Errorf("item beyond headroom: status %d, want 400", st)
	}
	if got := log.Count(); got != 1 {
		t.Errorf("feed count %d, want 1 (only the in-headroom pair)", got)
	}
}

// TestMaxBodyEnforcedEverywhere: every POST endpoint — including
// /v1/reload, which never decodes its body — rejects a payload over
// MaxBodyBytes with 400 instead of draining it.
func TestMaxBodyEnforcedEverywhere(t *testing.T) {
	log, err := feed.Open(t.TempDir(), feed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	_, ts, _, _ := newTestServer(t, Config{Feed: log, MaxBodyBytes: 256})

	huge := []byte(`{"user": 0, "items": [` + strings.Repeat("1,", 400) + `1]}`)
	for _, path := range []string{"/v1/ingest", "/v1/recommend", "/v1/reload"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("POST %s with %d-byte body: status %d, want 400", path, len(huge), resp.StatusCode)
		}
		if !strings.Contains(string(body), "exceeds") {
			t.Errorf("POST %s: error %q does not mention the size cap", path, body)
		}
	}
	// A small body still reloads fine.
	if st := ranktest.PostJSON(t, ts.URL+"/v1/reload", struct{}{}, nil); st != 200 {
		t.Errorf("small-body reload: status %d, want 200", st)
	}
	if st := ranktest.PostJSON(t, ts.URL+"/v1/ingest", map[string]any{"user": 1, "items": []int{2}}, nil); st != 200 {
		t.Errorf("small-body ingest: status %d, want 200", st)
	}
}
