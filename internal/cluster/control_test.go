package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/feed"
	"repro/internal/ranktest"
	"repro/internal/serve"
)

// The control plane: what every producer of a health, readiness, reload,
// flip or error body answers, held against the one struct its readers
// decode it into — and the two properties of a flip the rollout rests on.

// contract fetches one control-plane body and holds it to its message type:
// the body decodes into msg (a pointer to the shared struct) with no field
// the struct lacks, the struct marshals back to the very same tree — so a
// key cannot exist on one side only — and the top-level keys are wantKeys,
// the presence rule of that producer in that state.
func contract(t *testing.T, name, method, url, reqBody string, wantStatus int, msg any, wantKeys string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s: status %d, want %d (%s)", name, resp.StatusCode, wantStatus, body)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(msg); err != nil {
		t.Fatalf("%s: body does not decode into %T: %v\n%s", name, msg, err, body)
	}
	again, err := json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	var sent, kept map[string]any
	if err := json.Unmarshal(body, &sent); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(again, &kept); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sent, kept) {
		t.Errorf("%s: %T does not carry the body it decoded:\n sent %s\n kept %s", name, msg, body, again)
	}
	keys := make([]string, 0, len(sent))
	for k := range sent {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got := strings.Join(keys, " "); got != wantKeys {
		t.Errorf("%s: keys %q, want %q", name, got, wantKeys)
	}
}

// TestControlPlaneContract is the table: one row per producer and state.
func TestControlPlaneContract(t *testing.T) {
	fx := ranktest.New(t, ranktest.Variant{F32: true})
	train, modelPath, model, dir := fx.Train, fx.Path, fx.Cur, t.TempDir()
	serving := func(srv *serve.Server, err error) (*serve.Server, string) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return srv, ts.URL
	}

	const fullHealth = "loaded_at model model_version status"
	_, full := serving(serve.NewFromFile(serve.Config{ModelPath: modelPath, Train: train}))
	contract(t, "full server /healthz", "GET", full+"/healthz", "", 200, new(serve.Health), fullHealth)
	contract(t, "full server /readyz", "GET", full+"/readyz", "", 200, new(serve.Ready), "model_version ready")
	contract(t, "default reload", "POST", full+"/v1/reload", "", 200, new(serve.ReloadResponse),
		"model model_version")
	contract(t, "refused reload", "POST", full+"/v1/reload", `{"model":"ghost"}`, 404, new(serve.ErrorBody), "code error")
	contract(t, "refused request", "POST", full+"/v1/reload", `{"wat":1}`, 400, new(serve.ErrorBody), "error")

	// A registry server: a feed, a tenant with everything a tenant can have
	// and one with nothing.
	fl, err := feed.Open(filepath.Join(dir, "feed"), feed.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	reg, regURL := serving(serve.NewFromFile(serve.Config{ModelPath: modelPath, Train: train, Feed: fl,
		Registry: &serve.RegistryConfig{
			Models: map[string]serve.ModelSpec{"champion": {Path: modelPath}},
			Tenants: map[string]serve.TenantSpec{
				"acme": {
					Experiment: &serve.ExperimentSpec{Name: "exp", Arms: []serve.ArmSpec{{Name: "control", Model: "champion"}}},
					Shadow:     &serve.ShadowSpec{Model: "champion", Sample: 0},
					FeedDir:    filepath.Join(dir, "acme-feed"),
				},
				"bare": {},
			},
		}}))
	defer reg.Close()
	var regHealth serve.Health
	contract(t, "registry server /healthz", "GET", regURL+"/healthz", "", 200, &regHealth,
		"feed_positives loaded_at model model_version models status tenants")
	acme := regHealth.Tenants["acme"]
	if acme.Experiment != "exp" || len(acme.Arms) != 1 || acme.ShadowModel != "champion" ||
		acme.ShadowSample == nil || acme.FeedPositives == nil || regHealth.Models["champion"].ModelVersion != 1 {
		t.Errorf("registry health lost a tenant key (a zero shadow sample and an empty feed are still keys): %+v", regHealth)
	}
	contract(t, "named reload", "POST", regURL+"/v1/reload", `{"model":"champion"}`, 200, new(serve.ReloadResponse),
		"model model_version name")

	// Two shards, the first from item 0 (a shard_lo of 0 is still a key),
	// and a draining server.
	const shardHealth = "items loaded_at model model_version shard_hi shard_lo status users"
	half := model.NumItems() / 2
	_, lowURL := serving(serve.NewShardFromFile(serve.Config{ModelPath: modelPath, Train: train, ShardLo: 0, ShardHi: half}))
	tail, tailURL := serving(serve.NewShardFromFile(serve.Config{ModelPath: modelPath, Train: train, ShardLo: half, ShardHi: -1}))
	contract(t, "fresh shard /healthz", "GET", lowURL+"/healthz", "", 200, new(serve.Health), shardHealth)
	contract(t, "fresh shard /readyz", "GET", lowURL+"/readyz", "", 200, new(serve.Ready), "model_version ready shard_hi shard_lo")
	contract(t, "shard reload", "POST", tailURL+"/v1/reload", "", 200, new(serve.ReloadResponse),
		"model model_version")
	contract(t, "reloaded shard /healthz", "GET", tailURL+"/healthz", "", 200, new(serve.Health),
		strings.Replace(shardHealth, "model_version", "model_version prev_version", 1))
	contract(t, "reloaded shard /readyz", "GET", tailURL+"/readyz", "", 200, new(serve.Ready),
		"model_version prev_version ready shard_hi shard_lo")
	tail.BeginDrain()
	contract(t, "draining shard /readyz", "GET", tailURL+"/readyz", "", 503, new(serve.Ready), "ready reason")

	// The router, before its first table and with one.
	rt, err := New(Config{Shards: []string{lowURL, tailURL}})
	if err != nil {
		t.Fatal(err)
	}
	router := httptest.NewServer(rt.Handler())
	defer router.Close()
	contract(t, "router without a table /healthz", "GET", router.URL+"/healthz", "", 503, new(Health), "shards shards_health status")
	contract(t, "router without a table /readyz", "GET", router.URL+"/readyz", "", 503, new(serve.Ready), "ready reason")
	var flip FlipResponse
	contract(t, "flip", "POST", router.URL+"/v1/admin/flip", "", 200, &flip, "epoch items shards users")
	if flip.Epoch != 1 || len(flip.Shards) != 2 || flip.Shards[1].Version != 2 || flip.Shards[0].Hi != half {
		t.Errorf("flip reported %+v, want epoch 1 over [0,%d) at version 1 and the reloaded tail at version 2", flip, half)
	}
	contract(t, "router /healthz", "GET", router.URL+"/healthz", "", 200, new(Health),
		"allow_degraded epoch items shards shards_health status users")
	contract(t, "router /readyz", "GET", router.URL+"/readyz", "", 200, new(serve.Ready), "epoch ready")
	rt.BeginDrain()
	contract(t, "draining router /readyz", "GET", router.URL+"/readyz", "", 503, new(serve.Ready), "ready reason")
}

// TestDataPathKeySets: both binaries answer the data routes with the same
// structs, and each fills only the keys it has — a server labels with its
// model version (and, tenant-routed, the arm's labels), a router with its
// route epoch (and, merging the surviving shards only, degraded). Each row
// pins the top-level keys and the union of the batch slots' keys.
func TestDataPathKeySets(t *testing.T) {
	tr := newTier(t, 2, Config{})
	_, deg := startRouter(t, Config{Shards: ranktest.URLs(tr.shardTS), AllowDegraded: true})
	full, err := serve.NewFromFile(serve.Config{ModelPath: tr.fx.Path, Train: tr.fx.Train,
		Registry: &serve.RegistryConfig{
			Models: map[string]serve.ModelSpec{"main": {Path: tr.fx.Path}},
			Tenants: map[string]serve.TenantSpec{"acme": {Experiment: &serve.ExperimentSpec{
				Name: "exp", Arms: []serve.ArmSpec{{Name: "a", Model: "main"}}}}},
		}})
	if err != nil {
		t.Fatal(err)
	}
	fullTS := httptest.NewServer(full.Handler())
	defer fullTS.Close()
	keys := func(url, body string) string {
		t.Helper()
		status, _, data := ranktest.PostRaw(t, url, "application/json", []byte(body), nil)
		var top map[string]json.RawMessage
		if err := json.Unmarshal(data, &top); err != nil || status != http.StatusOK {
			t.Fatalf("POST %s %s: status %d %s", url, body, status, data)
		}
		var results []map[string]json.RawMessage
		_ = json.Unmarshal(top["results"], &results) // absent on a recommend
		got := slices.Sorted(maps.Keys(top))
		slot := map[string]bool{}
		for _, res := range results {
			for k := range res {
				slot[k] = true
			}
		}
		if len(slot) > 0 {
			got = append(append(got, "|"), slices.Sorted(maps.Keys(slot))...)
		}
		return strings.Join(got, " ")
	}
	for _, row := range []struct{ name, url, body, want string }{
		{"server recommend", fullTS.URL + "/v1/recommend", `{"user":3,"m":5}`, "cached items model_version user"},
		{"server batch", fullTS.URL + "/v1/batch", `{"users":[3,99999],"m":5}`, "model_version results | cached error items user"},
		{"tenant recommend", fullTS.URL + "/v1/recommend", `{"user":3,"m":5,"tenant":"acme"}`,
			"arm cached experiment items model model_version tenant user"},
		{"tenant batch", fullTS.URL + "/v1/batch", `{"users":[3,99999],"m":5,"tenant":"acme"}`,
			"model_version results | arm arm_model_version cached error items user"},
		{"router recommend", tr.routerTS.URL + "/v1/recommend", `{"user":3,"m":5}`, "cached items route_epoch user"},
		{"router batch", tr.routerTS.URL + "/v1/batch", `{"users":[3,99999],"m":5}`, "results route_epoch | cached error items user"},
	} {
		if got := keys(row.url, row.body); got != row.want {
			t.Errorf("%s: keys %q, want %q", row.name, got, row.want)
		}
	}
	tr.down(1)
	for _, row := range []struct{ name, url, body, want string }{
		{"degraded recommend", deg.URL + "/v1/recommend", `{"user":4,"m":5}`, "cached degraded items route_epoch user"},
		{"degraded batch", deg.URL + "/v1/batch", `{"users":[5,99999],"m":5}`, "results route_epoch | degraded error items user"},
	} {
		if got := keys(row.url, row.body); got != row.want {
			t.Errorf("%s: keys %q, want %q", row.name, got, row.want)
		}
	}
}

// shardsInMemory is an HTTP transport answering GET /healthz for a tier of
// two shards halving a 100-item catalogue, with no socket behind it: a flip
// costs microseconds, so thousands of overlapping ones fit in a test.
type shardsInMemory struct{ low, tail string }

func (s shardsInMemory) RoundTrip(r *http.Request) (*http.Response, error) {
	h := serve.Health{Status: "ok", ModelVersion: 1, ShardHealth: &serve.ShardHealth{Users: 10, Items: 100}}
	switch base := "http://" + r.URL.Host; {
	case r.URL.Path != "/healthz":
		return nil, http.ErrNotSupported
	case base == s.low:
		h.ShardRange = serve.ShardRange{ShardLo: 0, ShardHi: 50}
	case base == s.tail:
		h.ShardRange = serve.ShardRange{ShardLo: 50, ShardHi: 100}
	}
	body, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(bytes.NewReader(body)), Request: r}, nil
}

// TestConcurrentFlipsInstallDistinctEpochs: overlapping flips — Refresh
// calls and POST /v1/admin/flip alike — install one table each under an
// epoch of its own, and every caller is told the epoch of the table that
// very call installed. The epoch is the only thing that makes a cache entry
// merged under an older table unreachable, so two tables under one epoch
// would let the second serve the first's lists.
func TestConcurrentFlipsInstallDistinctEpochs(t *testing.T) {
	tier := shardsInMemory{low: "http://low.test", tail: "http://tail.test"}
	rt, err := New(Config{Shards: []string{tier.low, tier.tail}, HTTPClient: &http.Client{Transport: tier}})
	if err != nil {
		t.Fatal(err)
	}
	const flippers, rounds = 8, 1500
	told := make([][]uint64, flippers)
	var wg sync.WaitGroup
	for g := 0; g < flippers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if g%2 == 0 {
					epoch, err := rt.Refresh(context.Background())
					if err != nil {
						t.Errorf("Refresh: %v", err)
						return
					}
					told[g] = append(told[g], epoch)
					continue
				}
				rec := httptest.NewRecorder()
				rt.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/admin/flip", nil))
				var flip FlipResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &flip); err != nil || rec.Code != http.StatusOK {
					t.Errorf("flip: status %d: %v (%s)", rec.Code, err, rec.Body)
					return
				}
				told[g] = append(told[g], flip.Epoch)
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[uint64]bool, flippers*rounds)
	for _, epochs := range told {
		for _, e := range epochs {
			if seen[e] {
				t.Fatalf("two flips were told epoch %d: one of them reported a table it did not install", e)
			}
			seen[e] = true
		}
	}
	installed, epoch := rt.m.flips.Value(), rt.table.Load().epoch
	if len(seen) != flippers*rounds || installed != flippers*rounds || epoch != flippers*rounds {
		t.Fatalf("%d flips told %d distinct epochs, installed %d tables and advanced the epoch to %d: want %[1]d of each",
			flippers*rounds, len(seen), installed, epoch)
	}
}

// TestRefreshBoundsEveryShardRead: a shard that accepts the connection and
// never answers costs a refresh Config.Timeout — as it costs the prober —
// not the patience of a caller who set no deadline.
func TestRefreshBoundsEveryShardRead(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var held []net.Conn
	accepted := make(chan struct{})
	go func() {
		defer close(accepted)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			held = append(held, c) // accepted, never answered
		}
	}()
	rt, err := New(Config{Shards: []string{"http://" + ln.Addr().String()}, Timeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := rt.Refresh(context.Background())
		done <- err
	}()
	silent := time.After(10 * time.Second)
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "deadline exceeded") {
			t.Errorf("refresh over a silent shard: %v, want its per-attempt deadline exceeded", err)
		}
	case <-silent:
		t.Error("refresh is still waiting for a silent shard 10s in, 200 times Config.Timeout")
	}
	ln.Close()
	<-accepted
	for _, c := range held {
		c.Close() // lets a refresh that never timed out return
	}
}

// TestFingerprintAllocsPerRequest: the fingerprint of a request with no
// filter surface — the hot path's — is the epoch token and nothing else:
// one allocation at any epoch (the hand-rolled builder this replaced took
// one below epoch 100 and two from there on).
func TestFingerprintAllocsPerRequest(t *testing.T) {
	for _, epoch := range []uint64{1, 99, 100, 1 << 40} {
		if allocs := testing.AllocsPerRun(100, func() { fingerprintFor(epoch, nil, nil, nil) }); allocs > 1 {
			t.Errorf("epoch %d: a plain request's fingerprint costs %v allocations, want 1", epoch, allocs)
		}
	}
}

// TestHedgeDenialsCountedOnce: a hedge the retry budget refuses is one
// event, counted by the budget and read under both /metrics keys — 0 under
// the documented one, and no second key, for a router hedging unbudgeted.
func TestHedgeDenialsCountedOnce(t *testing.T) {
	metricsOf := func(cfg Config) map[string]any {
		t.Helper()
		cfg.Shards = []string{"http://low.test"}
		rt, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for rt.budget != nil && rt.budget.allowRetry() { // spend the floor; the next one is refused
		}
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		var out map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	if out := metricsOf(Config{}); out["hedges_denied"] != 1.0 || out["retry_budget_denied"] != 1.0 {
		t.Errorf("one refused hedge reads hedges_denied=%v retry_budget_denied=%v, want 1 and 1",
			out["hedges_denied"], out["retry_budget_denied"])
	}
	out := metricsOf(Config{RetryBudget: -1})
	if _, budgeted := out["retry_budget_denied"]; out["hedges_denied"] != 0.0 || budgeted {
		t.Errorf("without a budget: hedges_denied=%v, retry_budget_denied present=%v, want 0 and absent",
			out["hedges_denied"], budgeted)
	}
}
