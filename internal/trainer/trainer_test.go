package trainer

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/feed"
	"repro/internal/serve"
	"repro/internal/sparse"
)

var testTrainCfg = core.Config{K: 6, Lambda: 2, MaxIter: 40, Seed: 3}

// seedModel trains a cold model on base and saves it at path.
func seedModel(t testing.TB, base *sparse.Matrix, path string) *core.Model {
	t.Helper()
	res, err := core.Train(base, testTrainCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Model.SaveModelFileOpts(path, core.SaveOptions{Float32: true}); err != nil {
		t.Fatal(err)
	}
	return res.Model
}

func writeFeed(t testing.TB, dir string, events ...feed.Event) {
	t.Helper()
	l, err := feed.Open(dir, feed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(events...); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmStartGrownMatrices pins the documented behavior of retraining
// after the feed introduced new users and items: the warm start grows
// deterministically — trained factor rows are kept, new rows start at
// zero and are revived by the seeded warm-start jitter — and never
// rejects growth. (The rejected direction is shrinking, pinned below in
// TestWarmStartShrinkRejected.)
func TestWarmStartGrownMatrices(t *testing.T) {
	base := dataset.SyntheticSmall(7).Dataset.R // 120x80
	nu, ni := base.Rows(), base.Cols()
	cases := []struct {
		name                 string
		events               []feed.Event
		wantUsers, wantItems int
		wantGrown            bool
	}{
		{"no growth", []feed.Event{{User: 3, Item: 5}}, nu, ni, false},
		{"new users", []feed.Event{{User: uint32(nu)}, {User: uint32(nu + 2), Item: 1}}, nu + 3, ni, true},
		{"new items", []feed.Event{{Item: uint32(ni + 4)}}, nu, ni + 5, true},
		{"both", []feed.Event{{User: uint32(nu + 1), Item: uint32(ni)}}, nu + 2, ni + 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			modelPath := filepath.Join(dir, "model.bin")
			old := seedModel(t, base, modelPath)
			feedDir := filepath.Join(dir, "feed")
			writeFeed(t, feedDir, tc.events...)

			tr, err := New(Config{
				FeedDir: feedDir, Base: base, Train: testTrainCfg, ModelPath: modelPath,
			})
			if err != nil {
				t.Fatal(err)
			}
			cy, err := tr.RunOnce(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !cy.WarmStarted {
				t.Error("cycle did not warm-start from the saved model")
			}
			if cy.Grown != tc.wantGrown {
				t.Errorf("Grown = %v, want %v", cy.Grown, tc.wantGrown)
			}
			if cy.Users != tc.wantUsers || cy.Items != tc.wantItems {
				t.Errorf("trained shape %dx%d, want %dx%d", cy.Users, cy.Items, tc.wantUsers, tc.wantItems)
			}
			if cy.NNZ != base.NNZ()+len(tc.events) {
				t.Errorf("trained nnz %d, want %d", cy.NNZ, base.NNZ()+len(tc.events))
			}
			got, err := core.LoadModelFile(modelPath)
			if err != nil {
				t.Fatal(err)
			}
			if got.NumUsers() != tc.wantUsers || got.NumItems() != tc.wantItems || got.K() != old.K() {
				t.Errorf("saved model %v, want %dx%d K=%d", got, tc.wantUsers, tc.wantItems, old.K())
			}
			// Determinism: a second trainer over the same feed and seed
			// produces bit-identical factors.
			tr2, err := New(Config{
				FeedDir: feedDir, Base: base, Train: testTrainCfg,
				ModelPath: func() string {
					p := filepath.Join(dir, "model2.bin")
					if err := old.SaveModelFileOpts(p, core.SaveOptions{}); err != nil {
						t.Fatal(err)
					}
					return p
				}(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tr2.RunOnce(context.Background()); err != nil {
				t.Fatal(err)
			}
			got2, err := core.LoadModelFile(filepath.Join(dir, "model2.bin"))
			if err != nil {
				t.Fatal(err)
			}
			for u := 0; u < got.NumUsers(); u++ {
				a, b := got.UserFactor(u), got2.UserFactor(u)
				for c := range a {
					if a[c] != b[c] {
						t.Fatalf("grown retrain not deterministic: user %d factor differs", u)
					}
				}
			}
		})
	}
}

// TestWarmStartShrinkRejected: the catalogue cannot shrink. Inside a
// trainer the trained shape always covers the previous model, so the
// shrinking path is core.Model.Grow's documented error — pinned here
// because the trainer's warm start relies on it.
func TestWarmStartShrinkRejected(t *testing.T) {
	base := dataset.SyntheticSmall(9).Dataset.R
	model := seedModel(t, base, filepath.Join(t.TempDir(), "m.bin"))
	for _, shape := range [][2]int{
		{base.Rows() - 1, base.Cols()},
		{base.Rows(), base.Cols() - 1},
		{base.Rows() - 5, base.Cols() - 5},
	} {
		if _, err := model.Grow(shape[0], shape[1]); err == nil {
			t.Errorf("Grow(%d,%d) from %dx%d: shrink accepted", shape[0], shape[1], base.Rows(), base.Cols())
		}
	}
	// And a trainer whose base+feed+model shape never shrinks: even with
	// a tiny base, the previous model's dims keep the matrix covering it.
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.bin")
	seedModel(t, base, modelPath)
	tiny := sparse.NewBuilder(3, 3).Build()
	feedDir := filepath.Join(dir, "feed")
	writeFeed(t, feedDir, feed.Event{User: 1, Item: 1})
	tr, err := New(Config{FeedDir: feedDir, Base: tiny, Train: testTrainCfg, ModelPath: modelPath})
	if err != nil {
		t.Fatal(err)
	}
	cy, err := tr.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cy.Users != base.Rows() || cy.Items != base.Cols() {
		t.Errorf("matrix %dx%d shrank below the previous model %dx%d", cy.Users, cy.Items, base.Rows(), base.Cols())
	}
}

func TestNewValidation(t *testing.T) {
	dir := t.TempDir()
	good := Config{FeedDir: dir, ModelPath: filepath.Join(dir, "m.bin"), Train: core.Config{K: 2}}
	if _, err := New(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(Config) Config{
		func(c Config) Config { c.FeedDir = ""; return c },
		func(c Config) Config { c.ModelPath = ""; return c },
		func(c Config) Config { c.Train.K = 0; return c },
		func(c Config) Config { c.MinNewPositives = -1; return c },
		func(c Config) Config { c.MaxInterval = -time.Second; return c },
		func(c Config) Config { c.WarmCacheUsers = -1; return c },
	}
	for i, mutate := range bad {
		if _, err := New(mutate(good)); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// A model with mismatched K at ModelPath is refused up front.
	base := dataset.SyntheticSmall(11).Dataset.R
	seedModel(t, base, good.ModelPath) // K=6
	if _, err := New(good); err == nil {
		t.Error("K mismatch between saved model and Train.K accepted")
	}
}

// TestPipelineEndToEnd is the acceptance test of the continuous-training
// pipeline: a server starts on a seed model, new positives arrive
// through /v1/ingest, the trainer runs one cycle, and the server ends up
// serving a strictly newer model whose recommendations reflect the
// ingested positives — through the warm-start path, not a cold retrain —
// with the rank cache pre-warmed for the hottest users.
func TestPipelineEndToEnd(t *testing.T) {
	base := dataset.SyntheticSmall(1).Dataset.R
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.bin")
	oldModel := seedModel(t, base, modelPath)

	feedDir := filepath.Join(dir, "feed")
	feedLog, err := feed.Open(feedDir, feed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer feedLog.Close()

	srv, err := serve.NewFromFile(serve.Config{
		ModelPath: modelPath,
		Train:     base,
		FoldIn:    core.Config{Lambda: 2},
		Feed:      feedLog,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The user's three worst-scored unseen items become new positives.
	u := 2
	newItems := worstItems(oldModel, base, u, 3)
	scoresBefore := servedScores(t, ts.URL, u, base.Cols(), newItems)

	// A brand-new user (beyond the model) arrives with user 0's history.
	newUser := base.Rows()
	var history []int
	for _, i := range base.Row(0) {
		history = append(history, int(i))
	}
	ingest(t, ts.URL, map[string]any{"user": u, "items": newItems})
	ingest(t, ts.URL, map[string]any{"user": newUser, "items": history})

	mets := NewMetrics()
	tr, err := New(Config{
		FeedDir:        feedDir,
		Base:           base,
		Train:          testTrainCfg,
		ModelPath:      modelPath,
		Save:           core.SaveOptions{Float32: true},
		ServerURL:      ts.URL,
		WarmCacheUsers: 16,
		WarmCacheM:     8,
		Logf:           t.Logf,
		Metrics:        mets,
	})
	if err != nil {
		t.Fatal(err)
	}
	cy, err := tr.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// The wired Metrics saw the cycle: each phase that ran landed one
	// observation in its histogram.
	if c := mets.cycle.Snapshot(); c.Count != 1 || c.Errors != 0 {
		t.Fatalf("metrics cycles=%d errors=%d, want 1/0", c.Count, c.Errors)
	}
	for name, h := range map[string]uint64{
		"replay":  mets.replay.Snapshot().Count,
		"train":   mets.train.Snapshot().Count,
		"save":    mets.save.Snapshot().Count,
		"rollout": mets.rollout.Snapshot().Count,
		"warm":    mets.warm.Snapshot().Count,
		"cycle":   mets.cycle.Snapshot().Count,
	} {
		if h != 1 {
			t.Errorf("phase %s recorded %d observations, want 1", name, h)
		}
	}

	// Warm-start path, not a cold retrain; grown for the new user.
	if !cy.WarmStarted || !cy.Grown {
		t.Fatalf("cycle warm=%v grown=%v, want both", cy.WarmStarted, cy.Grown)
	}
	// The versioned handshake confirmed a strictly newer model.
	if cy.ServerVersion != 2 || srv.Version() != 2 {
		t.Fatalf("server version %d (handshake %d), want 2", srv.Version(), cy.ServerVersion)
	}
	if got := srv.Model().NumUsers(); got != base.Rows()+1 {
		t.Fatalf("served model has %d users, want %d (grown)", got, base.Rows()+1)
	}

	// The warm start must have steered training: a cold retrain of the
	// same grown matrix with the same seed lands on different factors.
	grownCold := coldModel(t, tr, feedDir)
	same := true
	for c, v := range grownCold.UserFactor(u) {
		if srv.Model().UserFactor(u)[c] != v {
			same = false
			break
		}
	}
	if same {
		t.Error("served factors equal a cold retrain's: warm-start path not exercised")
	}

	// Recommendations reflect the ingested positives: the served score of
	// every new positive rises materially — the warm-started retrain
	// fitted them as training positives. (Rank alone is not a sound probe:
	// lifting u's affinity toward a new positive's co-clusters also lifts
	// that positive's cluster-mates, which can leapfrog a formerly
	// worst-scored item even as its own probability climbs.)
	scoresAfter := servedScores(t, ts.URL, u, base.Cols(), newItems)
	for _, i := range newItems {
		before, after := scoresBefore[i], scoresAfter[i]
		t.Logf("ingested positive %d: served score %.6f -> %.6f", i, before, after)
		// 1e-3 dwarfs the float32 serving quantization (< 1.5e-6) while
		// staying far below any fitted positive's probability.
		if after <= before+1e-3 {
			t.Errorf("ingested positive %d: served score %v -> %v, want a material increase", i, before, after)
		}
	}

	// The new user serves from the rolled-out model.
	var rec struct {
		Items        []struct{ Item int } `json:"items"`
		ModelVersion uint64               `json:"model_version"`
	}
	postJSON(t, ts.URL+"/v1/recommend", map[string]any{"user": newUser, "m": 5}, &rec, 200)
	if rec.ModelVersion != 2 || len(rec.Items) != 5 {
		t.Fatalf("new user response version=%d items=%d", rec.ModelVersion, len(rec.Items))
	}

	// The cache was warmed through the server's rank engine.
	if cy.CacheWarmed != 16 {
		t.Errorf("CacheWarmed = %d, want 16", cy.CacheWarmed)
	}
	var metrics struct {
		Cache struct {
			Entries int64 `json:"entries"`
			Ranked  int64 `json:"ranked"`
		} `json:"cache"`
	}
	getJSON(t, ts.URL+"/metrics", &metrics)
	if metrics.Cache.Entries < 16 {
		t.Errorf("cache holds %d lists after warming, want >= 16", metrics.Cache.Entries)
	}
}

// coldModel trains the trainer's current matrix without a warm start.
func coldModel(t testing.TB, tr *Trainer, feedDir string) *core.Model {
	t.Helper()
	events, err := feed.Events(feedDir)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := tr.buildMatrix(events)
	res, err := core.Train(m, testTrainCfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Model
}

// worstItems returns the n lowest-scored items for u that are not
// training positives.
func worstItems(m *core.Model, train *sparse.Matrix, u, n int) []int {
	scores := make([]float64, train.Cols())
	m.ScoreUser(u, scores)
	items := make([]int, 0, train.Cols())
	for i := range scores {
		if !train.Has(u, i) {
			items = append(items, i)
		}
	}
	for k := 0; k < n; k++ {
		for j := k + 1; j < len(items); j++ {
			if scores[items[j]] < scores[items[k]] {
				items[k], items[j] = items[j], items[k]
			}
		}
	}
	return items[:n]
}

// servedScores asks the server for the full ranking of user u and
// returns the served score of each requested item.
func servedScores(t testing.TB, url string, u, m int, items []int) map[int]float64 {
	t.Helper()
	var resp struct {
		Items []struct {
			Item  int     `json:"item"`
			Score float64 `json:"score"`
		} `json:"items"`
	}
	postJSON(t, url+"/v1/recommend", map[string]any{"user": u, "m": m}, &resp, 200)
	scores := make(map[int]float64, len(items))
	for _, it := range resp.Items {
		for _, i := range items {
			if it.Item == i {
				scores[i] = it.Score
			}
		}
	}
	for _, i := range items {
		if _, ok := scores[i]; !ok {
			t.Fatalf("item %d missing from user %d's full ranking", i, u)
		}
	}
	return scores
}

func ingest(t testing.TB, url string, body map[string]any) {
	t.Helper()
	postJSON(t, url+"/v1/ingest", body, nil, 200)
}

func postJSON(t testing.TB, url string, body, out any, wantStatus int) {
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
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
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

// TestCrashRecoveryReplaysIdempotently: a torn tail on the feed's active
// segment — a crashed ingest writer — is truncated on the writer's
// reopen and ignored by the trainer's replay, and retraining over the
// recovered feed folds into exactly the same matrix.
func TestCrashRecoveryReplaysIdempotently(t *testing.T) {
	base := dataset.SyntheticSmall(13).Dataset.R
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.bin")
	seedModel(t, base, modelPath)
	feedDir := filepath.Join(dir, "feed")
	writeFeed(t, feedDir,
		feed.Event{User: 1, Item: 2},
		feed.Event{User: uint32(base.Rows()), Item: 3},
		feed.Event{User: 1, Item: 2}, // duplicate: must not double-count
	)

	tr, err := New(Config{FeedDir: feedDir, Base: base, Train: testTrainCfg, ModelPath: modelPath})
	if err != nil {
		t.Fatal(err)
	}
	cy1, err := tr.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cy1.NNZ != base.NNZ()+2 {
		t.Fatalf("nnz %d, want %d (duplicate event deduplicated)", cy1.NNZ, base.NNZ()+2)
	}

	// Crash: a torn half-record lands on the active segment.
	segs, err := filepath.Glob(filepath.Join(feedDir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{7, 7, 7, 7, 7}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// The writer reopens (truncating the tear) and the trainer replays:
	// same matrix, same count — the tear and the duplicate change nothing.
	l, err := feed.Open(feedDir, feed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Count(); got != 3 {
		t.Fatalf("recovered feed count %d, want 3", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	cy2, err := tr.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cy2.FeedPositives != cy1.FeedPositives || cy2.NNZ != cy1.NNZ ||
		cy2.Users != cy1.Users || cy2.Items != cy1.Items {
		t.Fatalf("replay after recovery differs: %+v vs %+v", cy2, cy1)
	}
	if cy2.NewPositives != 0 {
		t.Errorf("NewPositives = %d after recovery, want 0", cy2.NewPositives)
	}
}

// TestRunTriggers drives the polling loop: a backlog below
// MinNewPositives does not retrain until MaxInterval elapses; reaching
// the threshold retrains promptly.
func TestRunTriggers(t *testing.T) {
	base := dataset.SyntheticSmall(17).Dataset.R
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.bin")
	seedModel(t, base, modelPath)
	feedDir := filepath.Join(dir, "feed")
	l, err := feed.Open(feedDir, feed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	quick := testTrainCfg
	quick.MaxIter = 2
	const maxInterval = 250 * time.Millisecond
	metrics := NewMetrics()
	created := time.Now() // no later than the trainer's own MaxInterval origin
	tr, err := New(Config{
		FeedDir: feedDir, Base: base, Train: quick, ModelPath: modelPath,
		MinNewPositives: 3,
		MaxInterval:     maxInterval,
		PollInterval:    20 * time.Millisecond,
		Metrics:         metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- tr.Run(ctx) }()

	mtimeAt := func() time.Time {
		st, err := os.Stat(modelPath)
		if err != nil {
			t.Fatal(err)
		}
		return st.ModTime()
	}
	orig := mtimeAt()

	// One positive: below the count threshold, within MaxInterval — the
	// immediate polls must not retrain. Rendezvous on the trainer's own
	// poll instead of sleeping: Run publishes the backlog gauge before
	// every trigger evaluation, so once a poll has shown the backlog of 1,
	// plant a sentinel and wait for the NEXT poll to overwrite it. That
	// poll only runs after the one before it evaluated the trigger and
	// came back, and it shows 1 again only if that evaluation declined (a
	// cycle would have consumed the backlog and moved the file).
	if err := l.Append(feed.Event{User: 1, Item: 1}); err != nil {
		t.Fatal(err)
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond) // the poll interval, not a wait for anything
		}
	}
	waitFor("a poll that sees the positive", func() bool { return metrics.backlog.Load() == 1 })
	metrics.backlog.Store(-1)
	waitFor("the poll after it", func() bool { return metrics.backlog.Load() != -1 })
	backlog, mtime := metrics.backlog.Load(), mtimeAt()
	// Read the clock last: if MaxInterval had not passed by now, it had not
	// passed when the two values above were read either.
	if time.Since(created) >= maxInterval {
		// A stalled machine let MaxInterval pass first: retraining was
		// correct, so there is nothing negative left to assert.
		t.Log("two polls took longer than MaxInterval; skipping the must-not-retrain check")
	} else if backlog != 1 || !mtime.Equal(orig) {
		t.Fatal("retrained below both triggers")
	}
	// ...but the elapsed-time trigger eventually picks the trickle up.
	waitFor("the MaxInterval trigger to fire", func() bool { return !mtimeAt().Equal(orig) })

	// A burst beyond MinNewPositives retrains without waiting out the
	// interval.
	after := mtimeAt()
	if err := l.Append(feed.Event{User: 2, Item: 1}, feed.Event{User: 2, Item: 2}, feed.Event{User: 2, Item: 3}); err != nil {
		t.Fatal(err)
	}
	waitFor("the count trigger to fire", func() bool { return !mtimeAt().Equal(after) })

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run returned %v after cancel", err)
	}
}

// TestFailedRolloutRetries: when the reload push fails (lost to a network
// partition, or the server restarting), the backlog markers must not
// advance — the next trigger evaluation still sees the backlog and retries
// the cycle, so the saved model is not stranded unserved until unrelated
// positives arrive.
func TestFailedRolloutRetries(t *testing.T) {
	base := dataset.SyntheticSmall(21).Dataset.R
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.bin")
	seedModel(t, base, modelPath)
	feedDir := filepath.Join(dir, "feed")
	writeFeed(t, feedDir, feed.Event{User: 1, Item: 1}, feed.Event{User: 2, Item: 2})

	var (
		failing = true
		served  = uint64(1) // the mock server's current model version
		swap    = true      // whether a reload actually advances it
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			json.NewEncoder(w).Encode(map[string]any{"model_version": served})
		case "/v1/reload":
			if failing {
				w.WriteHeader(http.StatusInternalServerError)
				json.NewEncoder(w).Encode(map[string]string{"error": "server restarting"})
				return
			}
			if swap {
				served++
			}
			json.NewEncoder(w).Encode(map[string]any{"model_version": served, "mapped": true, "float32": true})
		default:
			t.Errorf("unexpected path %s", r.URL.Path)
		}
	}))
	defer ts.Close()

	ct := chaos.NewTransport(nil, 1)
	ct.Set(&chaos.Fault{Path: "/v1/reload", Err: chaos.ErrPartitioned})
	quick := testTrainCfg
	quick.MaxIter = 3
	tr, err := New(Config{FeedDir: feedDir, Base: base, Train: quick, ModelPath: modelPath, ServerURL: ts.URL,
		HTTPClient: &http.Client{Transport: ct}})
	if err != nil {
		t.Fatal(err)
	}
	for _, cause := range []string{"partition", "server error"} {
		if _, err := tr.RunOnce(context.Background()); err == nil {
			t.Fatalf("rollout lost to a %s reported as success", cause)
		}
		// The backlog is still pending: the trigger must fire again.
		if n := int64(2); !tr.due(n - tr.lastCount) {
			t.Fatalf("backlog markers advanced past a rollout lost to a %s; retry would never fire", cause)
		}
		ct.Set()
	}
	failing = false
	cy, err := tr.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cy.ServerVersion != 2 {
		t.Fatalf("retry cycle confirmed version %d, want 2", cy.ServerVersion)
	}
	// The retry reused the artifact saved by the failed cycle — an hour
	// of serve downtime must not mean an hour of back-to-back retrains.
	if !cy.RetrainSkipped || cy.Iterations != 0 {
		t.Errorf("retry cycle retrained (skipped=%v, %d iterations); want rollout-only retry",
			cy.RetrainSkipped, cy.Iterations)
	}
	if tr.due(2 - tr.lastCount) {
		t.Error("backlog still pending after a confirmed rollout")
	}

	// A reload that answers 200 without actually advancing the version (a
	// stale swap) must not be confirmed.
	swap = false
	writeFeed(t, feedDir, feed.Event{User: 3, Item: 3})
	if _, err := tr.RunOnce(context.Background()); err == nil {
		t.Fatal("stale swap (version did not advance) confirmed as a rollout")
	}
}

// TestMaxGrowthSkipsAbsurdIDs: a feed event naming an id far beyond the
// known catalogue (written by something other than the guarded ingest
// path) is skipped and counted, not trained — otherwise one absurd id in
// the append-only feed would make every retry allocate factor rows up to
// it, a permanent crash loop.
func TestMaxGrowthSkipsAbsurdIDs(t *testing.T) {
	base := dataset.SyntheticSmall(23).Dataset.R
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.bin")
	seedModel(t, base, modelPath)
	feedDir := filepath.Join(dir, "feed")
	writeFeed(t, feedDir,
		feed.Event{User: 1, Item: 1},
		feed.Event{User: 1 << 27, Item: 0},        // absurd user
		feed.Event{User: 0, Item: 1 << 27},        // absurd item
		feed.Event{User: uint32(base.Rows() + 2)}, // within headroom: grows
	)
	quick := testTrainCfg
	quick.MaxIter = 2
	tr, err := New(Config{FeedDir: feedDir, Base: base, Train: quick, ModelPath: modelPath})
	if err != nil {
		t.Fatal(err)
	}
	cy, err := tr.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cy.SkippedEvents != 2 {
		t.Errorf("SkippedEvents = %d, want 2", cy.SkippedEvents)
	}
	if cy.Users != base.Rows()+3 || cy.Items != base.Cols() {
		t.Errorf("trained shape %dx%d, want %dx%d (absurd ids must not size the matrix)",
			cy.Users, cy.Items, base.Rows()+3, base.Cols())
	}
}

// TestWarmStartInheritsBias: retraining a bias-enabled served model must
// not silently drop its bias terms (core.Train's warm start only
// validates the opposite mismatch); the trainer inherits Config.Bias
// from the warm-start model.
func TestWarmStartInheritsBias(t *testing.T) {
	base := dataset.SyntheticSmall(25).Dataset.R
	biasCfg := testTrainCfg
	biasCfg.Bias = true
	biasCfg.MaxIter = 10
	res, err := core.Train(base, biasCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Model.HasBias() {
		t.Fatal("bias training produced a biasless model")
	}
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.bin")
	if err := res.Model.SaveModelFile(modelPath); err != nil {
		t.Fatal(err)
	}
	feedDir := filepath.Join(dir, "feed")
	writeFeed(t, feedDir, feed.Event{User: 1, Item: 1})

	plain := testTrainCfg // Bias deliberately unset
	plain.MaxIter = 5
	tr, err := New(Config{FeedDir: feedDir, Base: base, Train: plain, ModelPath: modelPath})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := core.LoadModelFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasBias() {
		t.Fatal("retraining dropped the warm-start model's bias terms")
	}
}

// TestTornRecordNoPhantomBacklog: a full-size checksum-failing record in
// the active segment is counted by feed.Count's size estimate but
// skipped by the precise replay. The trigger baseline must use the
// estimator, or the one-record divergence would read as a permanent
// backlog and retrain an identical model on every poll forever.
func TestTornRecordNoPhantomBacklog(t *testing.T) {
	base := dataset.SyntheticSmall(27).Dataset.R
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.bin")
	seedModel(t, base, modelPath)
	feedDir := filepath.Join(dir, "feed")
	writeFeed(t, feedDir, feed.Event{User: 1, Item: 1}, feed.Event{User: 2, Item: 2})
	// The crash artifact: a complete 12-byte record whose checksum fails.
	segs, err := filepath.Glob(filepath.Join(feedDir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 12)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	quick := testTrainCfg
	quick.MaxIter = 2
	tr, err := New(Config{FeedDir: feedDir, Base: base, Train: quick, ModelPath: modelPath})
	if err != nil {
		t.Fatal(err)
	}
	cy, err := tr.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cy.FeedPositives != 2 {
		t.Fatalf("replayed %d events, want 2 (torn record skipped)", cy.FeedPositives)
	}
	n, err := feed.Count(feedDir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("Count estimate %d, want 3 (torn record counted)", n)
	}
	if tr.due(n - tr.lastCount) {
		t.Error("torn record left a phantom backlog: the trigger would retrain forever")
	}
}

// TestWarmCacheToleratesShedding: the serve tier's admission control
// answering the warm-up batches with 429 is backpressure, not a rollout
// failure — the trainer logs, keeps what it warmed, and reports success.
func TestWarmCacheToleratesShedding(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprint(w, `{"error":"overloaded: admission queue full"}`)
	}))
	defer ts.Close()

	var logged []string
	tr := &Trainer{
		cfg: Config{
			ServerURL: ts.URL,
			Logf:      func(f string, a ...any) { logged = append(logged, fmt.Sprintf(f, a...)) },
		}.withDefaults(),
		hotUsers: []int{0, 1, 2},
	}
	warmed, err := tr.warmCache(context.Background())
	if err != nil {
		t.Fatalf("429 during cache warm must not fail the rollout: %v", err)
	}
	if warmed != 0 {
		t.Fatalf("warmed = %d, want 0", warmed)
	}
	if calls.Load() != 1 {
		t.Fatalf("trainer kept hammering a shedding server: %d calls", calls.Load())
	}
	found := false
	for _, l := range logged {
		if strings.Contains(l, "shed by admission control") {
			found = true
		}
	}
	if !found {
		t.Errorf("backpressure not logged; got %q", logged)
	}
}

// Any other non-200 still fails the warm as before.
func TestWarmCacheRealErrorStillFails(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()
	tr := &Trainer{
		cfg:      Config{ServerURL: ts.URL}.withDefaults(),
		hotUsers: []int{0, 1, 2},
	}
	if _, err := tr.warmCache(context.Background()); err == nil {
		t.Fatal("a 500 during cache warm must surface as an error")
	}
}
