package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/feed"
	"repro/internal/rank"
	"repro/internal/ranktest"
	"repro/internal/sparse"
)

// TestArmBucketPinned pins the user→arm hash. These vectors are part of
// the platform's compatibility surface: if this test fails, a redeploy
// would silently reshuffle which experiment arm every user sees,
// invalidating any A/B readout in flight. Never "fix" the expectations —
// fix the hash.
func TestArmBucketPinned(t *testing.T) {
	cases := []struct {
		exp    string
		user   int
		bucket uint64
	}{
		{"ranker-v2", 0, 7},
		{"ranker-v2", 1, 8},
		{"ranker-v2", 2, 9},
		{"ranker-v2", 3, 0},
		{"ranker-v2", 4, 1},
		{"ranker-v2", 5, 2},
		{"ranker-v2", 6, 3},
		{"ranker-v2", 7, 4},
		{"ranker-v2", 41, 0},
		{"ranker-v2", 119, 4},
		// The experiment name seeds the hash: a different experiment
		// shuffles users independently.
		{"other-exp", 0, 5},
		{"other-exp", 1, 6},
		{"other-exp", 2, 7},
		{"other-exp", 3, 8},
	}
	for _, c := range cases {
		if got := armBucket(c.exp, c.user, 10); got != c.bucket {
			t.Errorf("armBucket(%q, %d, 10) = %d, want %d", c.exp, c.user, got, c.bucket)
		}
	}
}

// regFixture is a registry-enabled test server: a default model (seed 3,
// exactly newTestServer's) plus named champion/candidate models trained
// with different seeds so their rankings genuinely differ.
type regFixture struct {
	srv                 *Server
	ts                  *httptest.Server
	champion, candidate *core.Model
	train               *sparse.Matrix
	champPath, candPath string
}

// baseRegistry is the two-model, one-tenant configuration most tests
// start from: tenant "acme" splits ranker-v2 across control (champion,
// weight 9) and treatment (candidate, weight 1).
func baseRegistry(champPath, candPath string) *RegistryConfig {
	return &RegistryConfig{
		Models: map[string]ModelSpec{
			"champion":  {Path: champPath},
			"candidate": {Path: candPath},
		},
		Tenants: map[string]TenantSpec{
			"acme": {Experiment: &ExperimentSpec{
				Name: "ranker-v2",
				Arms: []ArmSpec{
					{Name: "control", Model: "champion", Weight: 9},
					{Name: "treatment", Model: "candidate", Weight: 1},
				},
			}},
		},
	}
}

func newRegistryServer(t testing.TB, cfg Config, mutate func(*RegistryConfig)) *regFixture {
	t.Helper()
	fx := ranktest.New(t, ranktest.Variant{}) // the default model: newTestServer's
	dir := t.TempDir()
	f := &regFixture{
		champion: ranktest.Train(t, fx.Train, 11), candidate: ranktest.Train(t, fx.Train, 22), train: fx.Train,
		champPath: filepath.Join(dir, "champion.bin"),
		candPath:  filepath.Join(dir, "candidate.bin"),
	}
	for path, m := range map[string]*core.Model{f.champPath: f.champion, f.candPath: f.candidate} {
		if err := m.SaveModelFile(path); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Registry = baseRegistry(f.champPath, f.candPath)
	if mutate != nil {
		mutate(cfg.Registry)
	}
	cfg.ModelPath, cfg.Train, cfg.FoldIn = fx.Path, fx.Train, foldInCfg
	f.srv, f.ts = start(t, NewFromFile, cfg)
	t.Cleanup(func() {
		f.srv.ShadowFlush()
		if err := f.srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return f
}

// wantArm mirrors the acme experiment's routing: bucket 9 of 10 is
// treatment, everything below is control. The armBucket values themselves
// are pinned by TestArmBucketPinned.
func wantArm(user int) (arm, model string) {
	if armBucket("ranker-v2", user, 10) < 9 {
		return "control", "champion"
	}
	return "treatment", "candidate"
}

// TestRegistryABSplit: tenant-routed requests resolve deterministically
// to an arm, serve that arm's model bit-identically to in-process
// evaluation, and label the response with tenant/experiment/arm/model.
func TestRegistryABSplit(t *testing.T) {
	f := newRegistryServer(t, Config{}, nil)
	users := []int{0, 1, 2, 3, 7, 41, 119}
	sawControl, sawTreatment := false, false
	for _, u := range users {
		var got RecommendResponse
		if st := ranktest.PostJSON(t, f.ts.URL+"/v1/recommend",
			RecommendRequest{User: u, M: 10, Tenant: "acme"}, &got); st != 200 {
			t.Fatalf("user %d: status %d", u, st)
		}
		arm, modelName := wantArm(u)
		model := f.champion
		if arm == "treatment" {
			model = f.candidate
			sawTreatment = true
		} else {
			sawControl = true
		}
		if got.Tenant != "acme" || got.Experiment != "ranker-v2" || got.Arm != arm || got.Model != modelName {
			t.Fatalf("user %d: labels tenant=%q exp=%q arm=%q model=%q, want acme/ranker-v2/%s/%s",
				u, got.Tenant, got.Experiment, got.Arm, got.Model, arm, modelName)
		}
		if got.ModelVersion != 1 {
			t.Errorf("user %d: model_version %d, want 1", u, got.ModelVersion)
		}
		want := eval.TopM(model, f.train, u, 10, nil)
		if len(got.Items) != len(want) {
			t.Fatalf("user %d: %d items, want %d", u, len(got.Items), len(want))
		}
		for n, it := range got.Items {
			if it.Item != want[n] || it.Score != model.Predict(u, it.Item) {
				t.Errorf("user %d rank %d: (%d, %v), want (%d, %v)",
					u, n, it.Item, it.Score, want[n], model.Predict(u, want[n]))
			}
		}
		// Same user, same request → same arm, now served from the arm's
		// own cache.
		var again RecommendResponse
		ranktest.PostJSON(t, f.ts.URL+"/v1/recommend", RecommendRequest{User: u, M: 10, Tenant: "acme"}, &again)
		if again.Arm != arm || !again.Cached {
			t.Errorf("user %d repeat: arm=%q cached=%v, want %q/true", u, again.Arm, again.Cached, arm)
		}
	}
	if !sawControl || !sawTreatment {
		t.Fatalf("test users covered control=%v treatment=%v, want both", sawControl, sawTreatment)
	}
}

// TestRegistryBatchSplitsAcrossArms: one tenant-routed batch resolves
// each user to its own arm, exactly like single requests would.
func TestRegistryBatchSplitsAcrossArms(t *testing.T) {
	f := newRegistryServer(t, Config{}, nil)
	users := []int{0, 1, 2, 3, 7}
	var batch BatchResponse
	if st := ranktest.PostJSON(t, f.ts.URL+"/v1/batch",
		BatchRequest{Users: users, M: 5, Tenant: "acme"}, &batch); st != 200 {
		t.Fatalf("batch status %d", st)
	}
	for n, u := range users {
		res := batch.Results[n]
		arm, _ := wantArm(u)
		if res.Arm != arm || res.ArmModelVersion != 1 {
			t.Errorf("user %d: arm=%q version=%d, want %q/1", u, res.Arm, res.ArmModelVersion, arm)
		}
		var single RecommendResponse
		ranktest.PostJSON(t, f.ts.URL+"/v1/recommend", RecommendRequest{User: u, M: 5, Tenant: "acme"}, &single)
		if fmt.Sprint(res.Items) != fmt.Sprint(single.Items) {
			t.Errorf("user %d: batch items %v != single items %v", u, res.Items, single.Items)
		}
	}
	// A frame resolves each user to the arm a JSON batch resolves it to:
	// the same lists, the same score bits.
	c := &ranktest.Case{Name: "split batch", Users: users, M: 5, Tenant: "acme"}
	js, fr := ranktest.BatchJSON.Client(f.ts.URL)(t, c), ranktest.BatchFrame.Client(f.ts.URL)(t, c)
	for n := range fr.Lists {
		fr.Lists[n].Cached = js.Lists[n].Cached // the frame came second
	}
	if !reflect.DeepEqual(js, fr) {
		t.Errorf("tenant batch over frames %+v, over JSON %+v", fr, js)
	}
	// A failing user reports its arm so the error lands in the right
	// per-arm readout.
	ranktest.PostJSON(t, f.ts.URL+"/v1/batch", BatchRequest{Users: []int{1 << 20}, Tenant: "acme"}, &batch)
	if batch.Results[0].Error == "" || batch.Results[0].Arm == "" {
		t.Errorf("out-of-range user: error=%q arm=%q, want both set", batch.Results[0].Error, batch.Results[0].Arm)
	}
}

// TestUnknownTenantRejected: every tenant-accepting endpoint answers an
// unregistered tenant with the JSON 404 {code:"unknown_tenant"} — never a
// silent fall-through to the default model or feed. A registered tenant
// with no experiment is just as unknown to the query path.
func TestUnknownTenantRejected(t *testing.T) {
	f := newRegistryServer(t, Config{}, func(rc *RegistryConfig) {
		rc.Tenants["beta"] = TenantSpec{} // no experiment, no feed
	})
	check := func(name, url string, body any) {
		t.Helper()
		resp, err := http.Post(url, "application/json", bytes.NewReader(mustMarshal(t, body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Code  string `json:"code"`
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound || out.Code != "unknown_tenant" {
			t.Errorf("%s: status %d code %q, want 404 unknown_tenant", name, resp.StatusCode, out.Code)
		}
		if !strings.Contains(out.Error, "ghost") && !strings.Contains(out.Error, "beta") {
			t.Errorf("%s: error %q does not name the tenant", name, out.Error)
		}
	}
	check("recommend", f.ts.URL+"/v1/recommend", RecommendRequest{User: 1, Tenant: "ghost"})
	check("batch", f.ts.URL+"/v1/batch", BatchRequest{Users: []int{1}, Tenant: "ghost"})
	check("ingest", f.ts.URL+"/v1/ingest", map[string]any{"user": 1, "items": []int{2}, "tenant": "ghost"})
	check("recommend, tenant without experiment", f.ts.URL+"/v1/recommend", RecommendRequest{User: 1, Tenant: "beta"})

	// Without a registry at all, a tenant-routed request is still a loud
	// 404 — not the default model under a wrong label.
	_, ts, _, _ := newTestServer(t, Config{})
	var out map[string]any
	if st := ranktest.PostJSON(t, ts.URL+"/v1/recommend", RecommendRequest{User: 1, Tenant: "acme"}, &out); st != 404 {
		t.Errorf("registry-less tenant request: status %d, want 404", st)
	}
	if out["code"] != "unknown_tenant" {
		t.Errorf("registry-less tenant request: code %v, want unknown_tenant", out["code"])
	}
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRegistryTenantFeedPartition: tenant-tagged ingest events land in
// the tenant's own feed partition — the log the trainer replays for that
// tenant — and never in the default feed (or vice versa).
func TestRegistryTenantFeedPartition(t *testing.T) {
	defDir, acmeDir := t.TempDir(), filepath.Join(t.TempDir(), "acme")
	defLog, err := feed.Open(defDir, feed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer defLog.Close()
	f := newRegistryServer(t, Config{Feed: defLog}, func(rc *RegistryConfig) {
		acme := rc.Tenants["acme"]
		acme.FeedDir = acmeDir
		rc.Tenants["acme"] = acme
		rc.Tenants["nofeed"] = TenantSpec{Experiment: &ExperimentSpec{
			Name: "solo", Arms: []ArmSpec{{Name: "only", Model: "champion"}},
		}}
	})

	var resp IngestResponse
	if st := ranktest.PostJSON(t, f.ts.URL+"/v1/ingest",
		map[string]any{"user": 3, "items": []int{1, 2}, "tenant": "acme"}, &resp); st != 200 {
		t.Fatalf("tenant ingest status %d", st)
	}
	if resp.Appended != 2 || resp.FeedPositives != 2 {
		t.Fatalf("tenant ingest response %+v, want 2 appended / 2 positives", resp)
	}
	if st := ranktest.PostJSON(t, f.ts.URL+"/v1/ingest", map[string]any{"user": 9, "items": []int{4}}, &resp); st != 200 {
		t.Fatalf("default ingest status %d", st)
	}

	// The partitions never mix: the tenant's two events are in its log,
	// the untagged event in the default log.
	events, err := feed.Events(acmeDir)
	if err != nil {
		t.Fatal(err)
	}
	want := []feed.Event{{User: 3, Item: 1}, {User: 3, Item: 2}}
	if fmt.Sprint(events) != fmt.Sprint(want) {
		t.Fatalf("acme partition = %v, want %v", events, want)
	}
	if got := defLog.Count(); got != 1 {
		t.Fatalf("default feed count %d, want 1", got)
	}

	// healthz reports the partition backlog under the tenant.
	var health map[string]any
	getJSON(t, f.ts.URL+"/healthz", &health)
	acme := health["tenants"].(map[string]any)["acme"].(map[string]any)
	if got := acme["feed_positives"]; got != float64(2) {
		t.Errorf("healthz tenants.acme.feed_positives = %v, want 2", got)
	}

	// A registered tenant without a feed partition is a 503 (operator
	// mistake), not a silent write to the default feed.
	var out map[string]string
	if st := ranktest.PostJSON(t, f.ts.URL+"/v1/ingest",
		map[string]any{"user": 1, "items": []int{2}, "tenant": "nofeed"}, &out); st != http.StatusServiceUnavailable {
		t.Fatalf("feedless tenant ingest: status %d, want 503", st)
	}
	if !strings.Contains(out["error"], "feed_dir") {
		t.Errorf("feedless tenant error %q does not point at feed_dir", out["error"])
	}
	if got := defLog.Count(); got != 1 {
		t.Errorf("default feed count %d after rejected tenant ingest, want 1", got)
	}
}

// TestRegistryNamedReload: POST /v1/reload {"model": name} re-reads one
// named model, advancing only its version counter; the default model and
// the other named models are untouched. An unknown name is the JSON 404
// {code:"unknown_model"}.
func TestRegistryNamedReload(t *testing.T) {
	f := newRegistryServer(t, Config{}, nil)
	candidate2 := ranktest.Train(t, f.train, 33)
	if err := candidate2.SaveModelFile(f.candPath); err != nil {
		t.Fatal(err)
	}

	var resp ReloadResponse
	if st := ranktest.PostJSON(t, f.ts.URL+"/v1/reload", ReloadRequest{Model: "candidate"}, &resp); st != 200 {
		t.Fatalf("named reload status %d", st)
	}
	if resp.ModelVersion != 2 || resp.Name != "candidate" {
		t.Fatalf("named reload response %+v, want version 2 of candidate", resp)
	}
	if resp.Model != candidate2.String() {
		t.Errorf("reload model = %q, want %q", resp.Model, candidate2.String())
	}

	var health map[string]any
	getJSON(t, f.ts.URL+"/healthz", &health)
	models := health["models"].(map[string]any)
	if v := models["candidate"].(map[string]any)["model_version"]; v != float64(2) {
		t.Errorf("candidate version %v after named reload, want 2", v)
	}
	if v := models["champion"].(map[string]any)["model_version"]; v != float64(1) {
		t.Errorf("champion version %v after candidate reload, want 1", v)
	}
	if v := health["model_version"]; v != float64(1) {
		t.Errorf("default model version %v after named reload, want 1", v)
	}

	// Treatment users now rank through the new candidate.
	u := 2 // pinned: bucket 9 → treatment
	var got RecommendResponse
	ranktest.PostJSON(t, f.ts.URL+"/v1/recommend", RecommendRequest{User: u, M: 10, Tenant: "acme"}, &got)
	if got.ModelVersion != 2 {
		t.Fatalf("treatment model_version %d after reload, want 2", got.ModelVersion)
	}
	want := eval.TopM(candidate2, f.train, u, 10, nil)
	for n, it := range got.Items {
		if it.Item != want[n] {
			t.Errorf("rank %d: item %d, want %d (new candidate)", n, it.Item, want[n])
		}
	}

	// Unknown names fail loudly.
	var errOut map[string]any
	if st := ranktest.PostJSON(t, f.ts.URL+"/v1/reload", ReloadRequest{Model: "ghost"}, &errOut); st != 404 {
		t.Fatalf("unknown model reload: status %d, want 404", st)
	}
	if errOut["code"] != "unknown_model" {
		t.Errorf("unknown model reload: code %v, want unknown_model", errOut["code"])
	}

	// The default reload path (empty body) still works and leaves named
	// models alone.
	var defResp ReloadResponse
	if st := ranktest.PostJSON(t, f.ts.URL+"/v1/reload", struct{}{}, &defResp); st != 200 {
		t.Fatalf("default reload status %d", st)
	}
	if defResp.ModelVersion != 2 || defResp.Name != "" {
		t.Errorf("default reload response %+v, want unnamed version 2", defResp)
	}
	getJSON(t, f.ts.URL+"/healthz", &health)
	if v := health["models"].(map[string]any)["candidate"].(map[string]any)["model_version"]; v != float64(2) {
		t.Errorf("candidate version %v after default reload, want still 2", v)
	}
}

// TestRegistryStagedArm: an arm's stage config re-ranks its responses,
// bit-identical to the staged engine over the same model, while the other
// arm stays unstaged.
func TestRegistryStagedArm(t *testing.T) {
	specs := []StageSpec{
		{Type: "floor", Min: 0.05},
		{Type: "diversify", Lambda: 0.7, Factor: 4},
	}
	f := newRegistryServer(t, Config{}, func(rc *RegistryConfig) {
		acme := rc.Tenants["acme"]
		acme.Experiment.Arms[1].Stages = specs
		rc.Tenants["acme"] = acme
	})
	stages, err := BuildStages(specs, nil, f.candidate)
	if err != nil {
		t.Fatal(err)
	}
	ref := rank.NewEngine(f.candidate, rank.Config{CacheSize: -1})
	u := 2 // pinned: treatment
	var got RecommendResponse
	if st := ranktest.PostJSON(t, f.ts.URL+"/v1/recommend",
		RecommendRequest{User: u, M: 10, Tenant: "acme"}, &got); st != 200 {
		t.Fatalf("status %d", st)
	}
	items, scores, _ := ref.TopMStagedTimed(u, 10, stages, nil, rank.TrainRow(f.train, u))
	if len(got.Items) != len(items) {
		t.Fatalf("%d items, want %d", len(got.Items), len(items))
	}
	for n := range items {
		if got.Items[n].Item != items[n] || got.Items[n].Score != scores[n] {
			t.Errorf("rank %d: (%d, %v), want (%d, %v)",
				n, got.Items[n].Item, got.Items[n].Score, items[n], scores[n])
		}
	}
	// The control arm is unstaged: plain top-M of the champion.
	u = 0 // pinned: control
	ranktest.PostJSON(t, f.ts.URL+"/v1/recommend", RecommendRequest{User: u, M: 10, Tenant: "acme"}, &got)
	want := eval.TopM(f.champion, f.train, u, 10, nil)
	for n, it := range got.Items {
		if it.Item != want[n] {
			t.Errorf("control rank %d: item %d, want %d", n, it.Item, want[n])
		}
	}
}

// syncWriter lets the test read the shadow log without racing the
// comparison goroutines' writes (each write already holds the shadower's
// logMu, but the test's read does not).
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) bytes() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]byte(nil), w.buf.Bytes()...)
}

// TestShadowComparisonLogsDiffs: with sampling at 1.0 every tenant
// request is mirrored against the candidate model off the response path;
// the diff log carries one JSON record per request and /metrics counts
// the comparisons under the tenant's shadow subtree.
func TestShadowComparisonLogsDiffs(t *testing.T) {
	logW := &syncWriter{}
	f := newRegistryServer(t, Config{ShadowLog: logW}, func(rc *RegistryConfig) {
		acme := rc.Tenants["acme"]
		acme.Shadow = &ShadowSpec{Model: "candidate", Sample: 1}
		rc.Tenants["acme"] = acme
	})
	users := []int{0, 1, 3} // pinned: all control, so primary=champion vs shadow=candidate
	for _, u := range users {
		var got RecommendResponse
		if st := ranktest.PostJSON(t, f.ts.URL+"/v1/recommend",
			RecommendRequest{User: u, M: 10, Tenant: "acme"}, &got); st != 200 {
			t.Fatalf("user %d: status %d", u, st)
		}
		// The shadow never touches the response: it is still the arm's
		// model, bit for bit.
		want := eval.TopM(f.champion, f.train, u, 10, nil)
		for n, it := range got.Items {
			if it.Item != want[n] {
				t.Errorf("user %d rank %d: item %d, want %d (champion)", u, n, it.Item, want[n])
			}
		}
	}
	f.srv.ShadowFlush()

	lines := bytes.Split(bytes.TrimSpace(logW.bytes()), []byte("\n"))
	if len(lines) != len(users) {
		t.Fatalf("%d shadow records, want %d: %s", len(lines), len(users), logW.bytes())
	}
	seen := map[int]bool{}
	for _, line := range lines {
		var rec shadowRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad shadow record %s: %v", line, err)
		}
		seen[rec.User] = true
		if rec.Tenant != "acme" || rec.Arm != "control" ||
			rec.PrimaryModel != "champion" || rec.ShadowModel != "candidate" {
			t.Errorf("record labels %+v, want acme/control champion→candidate", rec)
		}
		if rec.M != 10 || rec.Error != "" {
			t.Errorf("record %+v: m/error unexpected", rec)
		}
		// Champion seed 11 vs candidate seed 22: the shadow list is the
		// candidate's own ranking.
		wantShadow := eval.TopM(f.candidate, f.train, rec.User, 10, nil)
		if fmt.Sprint(rec.ShadowItems) != fmt.Sprint(wantShadow) {
			t.Errorf("user %d shadow items %v, want %v", rec.User, rec.ShadowItems, wantShadow)
		}
		if fmt.Sprint(rec.PrimaryItems) == fmt.Sprint(rec.ShadowItems) && rec.RankDiffs != 0 {
			t.Errorf("user %d: identical lists but rank_diffs=%d", rec.User, rec.RankDiffs)
		}
	}
	for _, u := range users {
		if !seen[u] {
			t.Errorf("no shadow record for user %d", u)
		}
	}

	var metrics map[string]any
	getJSON(t, f.ts.URL+"/metrics", &metrics)
	shadow := metrics["tenants"].(map[string]any)["acme"].(map[string]any)["shadow"].(map[string]any)
	if shadow["model"] != "candidate" || shadow["sampled"] != float64(len(users)) {
		t.Errorf("shadow metrics %v, want candidate with %d sampled", shadow, len(users))
	}
}

// TestShadowSampleZeroNeverLogs: sample 0 is a true off switch — no
// goroutines, no records, no sampled count.
func TestShadowSampleZeroNeverLogs(t *testing.T) {
	logW := &syncWriter{}
	f := newRegistryServer(t, Config{ShadowLog: logW}, func(rc *RegistryConfig) {
		acme := rc.Tenants["acme"]
		acme.Shadow = &ShadowSpec{Model: "candidate", Sample: 0}
		rc.Tenants["acme"] = acme
	})
	for u := 0; u < 32; u++ {
		ranktest.PostJSON(t, f.ts.URL+"/v1/recommend", RecommendRequest{User: u, M: 5, Tenant: "acme"}, nil)
	}
	f.srv.ShadowFlush()
	if got := logW.bytes(); len(got) != 0 {
		t.Errorf("shadow log written at sample 0: %s", got)
	}
	var metrics map[string]any
	getJSON(t, f.ts.URL+"/metrics", &metrics)
	shadow := metrics["tenants"].(map[string]any)["acme"].(map[string]any)["shadow"].(map[string]any)
	if shadow["sampled"] != float64(0) {
		t.Errorf("sampled = %v at sample 0, want 0", shadow["sampled"])
	}
}

// blockingWriter is a shadow log whose every Write waits for release.
type blockingWriter struct {
	syncWriter
	release chan struct{}
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	<-w.release
	return w.syncWriter.Write(p)
}

// TestShadowShedsOverItsBound: a slow shadow log cannot park one
// comparison per sampled user. Each request's sampled users are compared
// in turn by one goroutine holding a slot; behind a log that blocks, the
// first requests take every slot and the rest shed their users (sampled +
// shed == users), and ShadowFlush returns once the log is released.
func TestShadowShedsOverItsBound(t *testing.T) {
	logW := &blockingWriter{release: make(chan struct{})}
	released := false
	release := func() {
		if !released {
			released = true
			close(logW.release)
		}
	}
	defer release() // before the fixture's cleanup flushes
	f := newRegistryServer(t, Config{ShadowLog: logW}, func(rc *RegistryConfig) {
		acme := rc.Tenants["acme"]
		acme.Shadow = &ShadowSpec{Model: "candidate", Sample: 1}
		rc.Tenants["acme"] = acme
	})
	bound := cap(f.srv.registry.tenants["acme"].shadow.slots)
	const size, over = 3, 8
	before := runtime.NumGoroutine()
	for r := range bound + over {
		req := BatchRequest{M: 5, Tenant: "acme"}
		for i := range size {
			req.Users = append(req.Users, (r*size+i)%f.train.Rows())
		}
		if st := ranktest.PostJSON(t, f.ts.URL+"/v1/batch", req, nil); st != 200 {
			t.Fatalf("batch %d: status %d", r, st)
		}
	}
	// Every request that took a slot is parked on the log now; the slack
	// covers the connection's own goroutines.
	if grew := runtime.NumGoroutine() - before; grew > bound+16 {
		t.Errorf("%d goroutines more after %d requests, want at most the bound %d (+16)", grew, bound+over, bound)
	}
	var metrics map[string]any
	getJSON(t, f.ts.URL+"/metrics", &metrics)
	shadow := metrics["tenants"].(map[string]any)["acme"].(map[string]any)["shadow"].(map[string]any)
	sampled, _ := shadow["sampled"].(float64)
	shed, ok := shadow["shed"].(float64)
	if !ok || sampled != float64(bound*size) || shed != float64(over*size) {
		t.Errorf("shadow metrics %v: want sampled %d and shed %d", shadow, bound*size, over*size)
	}
	release()
	flushed := make(chan struct{})
	go func() {
		f.srv.ShadowFlush()
		close(flushed)
	}()
	select {
	case <-flushed:
	case <-time.After(10 * time.Second):
		t.Fatal("ShadowFlush did not return after the log was released")
	}
	if lines := bytes.Count(logW.bytes(), []byte("\n")); lines != bound*size {
		t.Errorf("%d shadow records, want one per sampled user compared (%d)", lines, bound*size)
	}
}

// TestShadowRecordsTheServedList: the shadow compares against its own copy
// of the list a request served. With every user sampled and a one-entry
// arm cache, concurrent batches of distinct users keep recycling the
// cache's nodes and the answers' pooled columns while the comparisons run.
// Each batch fails one out-of-range user in its middle, so the shadow
// finds the lists after it past an empty slot. Run under -race: every
// served list has one record, its primary list the one its user was
// served, and the failed users have none.
func TestShadowRecordsTheServedList(t *testing.T) {
	logW := &syncWriter{}
	f := newRegistryServer(t, Config{ShadowLog: logW, EdgeConfig: EdgeConfig{CacheSize: 1}}, func(rc *RegistryConfig) {
		acme := rc.Tenants["acme"]
		acme.Shadow = &ShadowSpec{Model: "candidate", Sample: 1}
		rc.Tenants["acme"] = acme
	})
	const clients, rounds, size = 4, 12, 8
	bad := f.train.Rows() + 1
	var mu sync.Mutex
	served, times := map[int]string{}, map[int]int{}
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				req := BatchRequest{M: 5, Tenant: "acme"}
				for k := range size {
					if k == size/2 {
						req.Users = append(req.Users, bad)
					}
					req.Users = append(req.Users, ((c*rounds+r)*size+k)%f.train.Rows())
				}
				var resp BatchResponse
				if st := ranktest.PostJSON(t, f.ts.URL+"/v1/batch", req, &resp); st != 200 {
					t.Errorf("client %d round %d: status %d", c, r, st)
					return
				}
				mu.Lock()
				for _, res := range resp.Results {
					if res.User == bad {
						if res.Error == "" || len(res.Items) != 0 {
							t.Errorf("out-of-range user %d: error %q, %d items", bad, res.Error, len(res.Items))
						}
						continue
					}
					ids := make([]int, len(res.Items))
					for n, it := range res.Items {
						ids[n] = it.Item
					}
					got := fmt.Sprint(ids)
					if prev, ok := served[res.User]; ok && prev != got {
						t.Errorf("user %d was served %s and %s", res.User, prev, got)
					}
					served[res.User] = got
					times[res.User]++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	f.srv.ShadowFlush()
	lines := bytes.Split(bytes.TrimSpace(logW.bytes()), []byte("\n"))
	if len(lines) != clients*rounds*size {
		t.Fatalf("%d shadow records for %d served users", len(lines), clients*rounds*size)
	}
	for _, line := range lines {
		var rec shadowRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad shadow record %s: %v", line, err)
		}
		times[rec.User]--
		if rec.Error != "" || fmt.Sprint(rec.PrimaryItems) != served[rec.User] {
			t.Errorf("user %d: the shadow recorded %v as the primary list, the request served %s (error %q)",
				rec.User, rec.PrimaryItems, served[rec.User], rec.Error)
		}
	}
	for user, n := range times {
		if n != 0 {
			t.Errorf("user %d: %d more lists served than shadow records (the out-of-range user is %d)", user, n, bad)
		}
	}
}

// TestTenantBatchAllocsPerUser: a tenant-routed batch ranks each user as a
// one-user batch into columns pooled with the answer, so on a full arm
// cache one more user adds nothing, hit or miss.
func TestTenantBatchAllocsPerUser(t *testing.T) {
	skipUnderRace(t)
	f := newRegistryServer(t, Config{EdgeConfig: EdgeConfig{CacheSize: 64}}, nil)
	rt, err := f.srv.resolve("acme", 0)
	if err != nil {
		t.Fatal(err)
	}
	users, next := make([]int, 32), 0
	a := new(Answer)
	allocs := func(n int, fresh bool) float64 {
		return testing.AllocsPerRun(50, func() {
			for i := range users[:n] {
				if fresh {
					users[i], next = next, (next+1)%f.train.Rows()
				}
			}
			req := &BatchRequest{Users: users[:n], M: 10, Tenant: "acme"}
			if err := f.srv.rankBatch(nil, rt, req, req.M, a); err != nil {
				t.Fatal(err)
			}
		})
	}
	allocs(32, true) // warm: the arms' caches full, the answer's columns grown
	for _, fresh := range []bool{true, false} {
		if one, all := allocs(1, fresh), allocs(32, fresh); one != all {
			t.Errorf("fresh users %v: a batch of 1 allocates %v times, of 32 %v: %v per user, want 0",
				fresh, one, all, (all-one)/31)
		}
	}
}

// TestRegistryPerArmMetrics: /metrics cuts request, error and cache
// counters per arm — the labels an A/B readout is aggregated by.
func TestRegistryPerArmMetrics(t *testing.T) {
	f := newRegistryServer(t, Config{}, nil)
	// user 0 → control twice (miss + hit); user 2 → treatment once; one
	// out-of-range error lands on whatever arm its hash picks.
	ranktest.PostJSON(t, f.ts.URL+"/v1/recommend", RecommendRequest{User: 0, M: 5, Tenant: "acme"}, nil)
	ranktest.PostJSON(t, f.ts.URL+"/v1/recommend", RecommendRequest{User: 0, M: 5, Tenant: "acme"}, nil)
	ranktest.PostJSON(t, f.ts.URL+"/v1/recommend", RecommendRequest{User: 2, M: 5, Tenant: "acme"}, nil)
	badUser := 1 << 20
	badArm, _ := wantArm(badUser)
	if st := ranktest.PostJSON(t, f.ts.URL+"/v1/recommend",
		RecommendRequest{User: badUser, M: 5, Tenant: "acme"}, nil); st != 400 {
		t.Fatalf("out-of-range user: status %d, want 400", st)
	}

	var metrics map[string]any
	getJSON(t, f.ts.URL+"/metrics", &metrics)
	acme := metrics["tenants"].(map[string]any)["acme"].(map[string]any)
	if acme["experiment"] != "ranker-v2" {
		t.Fatalf("metrics experiment = %v", acme["experiment"])
	}
	arms := acme["arms"].(map[string]any)
	control := arms["control"].(map[string]any)
	treatment := arms["treatment"].(map[string]any)
	wantControlReqs, wantTreatmentReqs := float64(2), float64(1)
	wantErrs := map[string]float64{"control": 0, "treatment": 0}
	wantErrs[badArm] = 1
	if control["requests"] != wantControlReqs || control["errors"] != wantErrs["control"] {
		t.Errorf("control requests=%v errors=%v, want %v/%v",
			control["requests"], control["errors"], wantControlReqs, wantErrs["control"])
	}
	if treatment["requests"] != wantTreatmentReqs || treatment["errors"] != wantErrs["treatment"] {
		t.Errorf("treatment requests=%v errors=%v, want %v/%v",
			treatment["requests"], treatment["errors"], wantTreatmentReqs, wantErrs["treatment"])
	}
	if control["model"] != "champion" || treatment["model"] != "candidate" {
		t.Errorf("arm models %v/%v, want champion/candidate", control["model"], treatment["model"])
	}
	cache := control["cache"].(map[string]any)
	if cache["hits"] != float64(1) || cache["misses"] != float64(1) {
		t.Errorf("control cache hits=%v misses=%v, want 1/1", cache["hits"], cache["misses"])
	}
	// The default path's top-level cache counters are untouched by
	// tenant traffic: arms own their engines.
	if hits := metrics["cache_hits"]; hits != nil && hits != float64(0) {
		t.Errorf("default cache_hits = %v after tenant-only traffic, want 0", hits)
	}

	// healthz mirrors the experiment topology.
	var health map[string]any
	getJSON(t, f.ts.URL+"/healthz", &health)
	tAcme := health["tenants"].(map[string]any)["acme"].(map[string]any)
	if tAcme["experiment"] != "ranker-v2" {
		t.Errorf("healthz experiment = %v", tAcme["experiment"])
	}
	armList := tAcme["arms"].([]any)
	if len(armList) != 2 {
		t.Fatalf("healthz lists %d arms, want 2", len(armList))
	}
	first := armList[0].(map[string]any)
	if first["arm"] != "control" || first["model"] != "champion" || first["weight"] != float64(9) {
		t.Errorf("healthz arm[0] = %v, want control/champion/9", first)
	}
}

// TestRegistryConfigValidation: misconfigurations abort construction
// with errors naming the offending entity.
func TestRegistryConfigValidation(t *testing.T) {
	fx := ranktest.New(t, ranktest.Variant{})
	path := fx.Path
	base := func() Config {
		return Config{ModelPath: path, Train: fx.Train}
	}
	cases := map[string]*RegistryConfig{
		"no models": {Tenants: map[string]TenantSpec{}},
		"arm references unknown model": {
			Models: map[string]ModelSpec{"a": {Path: path}},
			Tenants: map[string]TenantSpec{"t": {Experiment: &ExperimentSpec{
				Name: "e", Arms: []ArmSpec{{Name: "x", Model: "ghost"}},
			}}},
		},
		"experiment without name": {
			Models: map[string]ModelSpec{"a": {Path: path}},
			Tenants: map[string]TenantSpec{"t": {Experiment: &ExperimentSpec{
				Arms: []ArmSpec{{Name: "x", Model: "a"}},
			}}},
		},
		"experiment without arms": {
			Models:  map[string]ModelSpec{"a": {Path: path}},
			Tenants: map[string]TenantSpec{"t": {Experiment: &ExperimentSpec{Name: "e"}}},
		},
		"negative weight": {
			Models: map[string]ModelSpec{"a": {Path: path}},
			Tenants: map[string]TenantSpec{"t": {Experiment: &ExperimentSpec{
				Name: "e", Arms: []ArmSpec{{Name: "x", Model: "a", Weight: -1}},
			}}},
		},
		"shadow without experiment": {
			Models:  map[string]ModelSpec{"a": {Path: path}},
			Tenants: map[string]TenantSpec{"t": {Shadow: &ShadowSpec{Model: "a", Sample: 0.5}}},
		},
		"shadow references unknown model": {
			Models: map[string]ModelSpec{"a": {Path: path}},
			Tenants: map[string]TenantSpec{"t": {
				Experiment: &ExperimentSpec{Name: "e", Arms: []ArmSpec{{Name: "x", Model: "a"}}},
				Shadow:     &ShadowSpec{Model: "ghost", Sample: 0.5},
			}},
		},
		"shadow sample out of range": {
			Models: map[string]ModelSpec{"a": {Path: path}},
			Tenants: map[string]TenantSpec{"t": {
				Experiment: &ExperimentSpec{Name: "e", Arms: []ArmSpec{{Name: "x", Model: "a"}}},
				Shadow:     &ShadowSpec{Model: "a", Sample: 1.5},
			}},
		},
		"model without path": {
			Models: map[string]ModelSpec{"a": {}},
		},
	}
	for name, rc := range cases {
		cfg := base()
		cfg.Registry = rc
		if _, err := NewFromFile(cfg); err == nil {
			t.Errorf("%s: construction succeeded, want error", name)
		}
	}
}

// TestLoadRegistryFile: the on-disk JSON form round-trips, and unknown
// fields are rejected (catching misspelled keys before they silently
// disable an experiment).
func TestLoadRegistryFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "registry.json")
	body := `{
	  "models": {"champion": {"path": "models/champion.bin"}},
	  "tenants": {
	    "acme": {
	      "experiment": {"name": "exp", "arms": [{"name": "a", "model": "champion", "weight": 3}]},
	      "shadow": {"model": "champion", "sample": 0.25},
	      "feed_dir": "feeds/acme"
	    }
	  }
	}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	rc, err := LoadRegistryFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Models["champion"].Path != "models/champion.bin" {
		t.Errorf("model path = %q", rc.Models["champion"].Path)
	}
	acme := rc.Tenants["acme"]
	if acme.Experiment.Name != "exp" || acme.Experiment.Arms[0].Weight != 3 ||
		acme.Shadow.Sample != 0.25 || acme.FeedDir != "feeds/acme" {
		t.Errorf("parsed tenant %+v", acme)
	}

	if err := os.WriteFile(path, []byte(`{"models": {}, "tennants": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRegistryFile(path); err == nil || !strings.Contains(err.Error(), "tennants") {
		t.Errorf("misspelled key: err = %v, want unknown-field error", err)
	}
	if _, err := LoadRegistryFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file: no error")
	}
}

// TestResolveAllocFree: tenant resolution is on the hot path of every
// tenant-routed request; it must not allocate.
func TestResolveAllocFree(t *testing.T) {
	f := newRegistryServer(t, Config{}, nil)
	u := 0
	allocs := testing.AllocsPerRun(1000, func() {
		rt, err := f.srv.resolve("acme", u)
		if err != nil || rt.arm == nil {
			t.Fatal("resolve failed")
		}
		u++
	})
	if allocs != 0 {
		t.Errorf("resolve allocates %v per call, want 0", allocs)
	}
}

// BenchmarkRegistryResolve measures tenant → experiment → arm routing —
// O(ns) and allocation-free, so the registry adds nothing measurable to
// the serving path.
func BenchmarkRegistryResolve(b *testing.B) {
	f := newRegistryServer(b, Config{}, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt, err := f.srv.resolve("acme", i)
		if err != nil || rt.sn == nil {
			b.Fatal("resolve failed")
		}
	}
}
