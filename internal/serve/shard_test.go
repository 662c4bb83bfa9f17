package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rank"
	"repro/internal/sparse"
	"repro/internal/wire"
)

// newShardTier trains one model, saves it, and serves it both ways: a
// full single-process server (the reference) and nParts shard servers
// partitioning the item catalogue. All servers share the training matrix,
// so shard partials must merge to exactly the reference's lists.
func newShardTier(t testing.TB, nParts int) (full *httptest.Server, shards []*httptest.Server, model *core.Model, train *sparse.Matrix, path string) {
	t.Helper()
	train = dataset.SyntheticSmall(1).Dataset.R
	model = trainSmall(t, train, 3)
	path = filepath.Join(t.TempDir(), "model.bin")
	if err := model.SaveModelFile(path); err != nil {
		t.Fatal(err)
	}
	fullSrv, err := NewFromFile(Config{ModelPath: path, Train: train, FoldIn: foldInCfg})
	if err != nil {
		t.Fatal(err)
	}
	full = httptest.NewServer(fullSrv.Handler())
	t.Cleanup(full.Close)

	items := model.NumItems()
	for p := 0; p < nParts; p++ {
		lo := p * items / nParts
		hi := (p + 1) * items / nParts
		if p == nParts-1 {
			hi = -1 // tail shard follows the catalogue
		}
		srv, err := NewShardFromFile(Config{ModelPath: path, Train: train, ShardLo: lo, ShardHi: hi})
		if err != nil {
			t.Fatalf("shard %d [%d,%d): %v", p, lo, hi, err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		shards = append(shards, ts)
	}
	return full, shards, model, train, path
}

// gatherMerge scatters one request to every shard and merges the partials
// — the router's core loop, inlined for the serve-layer test.
func gatherMerge(t testing.TB, shards []*httptest.Server, req ShardTopMRequest) ([]int, []float64) {
	t.Helper()
	parts := make([]rank.Partial, 0, len(shards))
	for _, ts := range shards {
		var resp ShardTopMResponse
		if st := postJSON(t, ts.URL+"/v1/shard/topm", req, &resp); st != 200 {
			t.Fatalf("shard %s: status %d", ts.URL, st)
		}
		p := rank.Partial{}
		for _, it := range resp.Items {
			p.Items = append(p.Items, it.Item)
			p.Scores = append(p.Scores, it.Score)
		}
		parts = append(parts, p)
	}
	return rank.MergeTopM(req.M, parts...)
}

// TestShardScatterGatherBitIdentical: merging shard partials reproduces
// the full server's lists exactly — same items, same score bits — across
// users, list lengths, exclusion lists and shard counts.
func TestShardScatterGatherBitIdentical(t *testing.T) {
	for _, nParts := range []int{2, 3} {
		full, shards, model, _, _ := newShardTier(t, nParts)
		cases := []ShardTopMRequest{
			{User: 0, M: 10},
			{User: 7, M: 1},
			{User: 42, M: 25},
			{User: 119, M: 10, ExcludeItems: []int{0, 3, 17, 40, 41, 59}},
			{User: 3, M: model.NumItems() + 50},
		}
		// MaxM default is 1000; clamp the oversized case like clampM does.
		if cases[4].M > 1000 {
			cases[4].M = 1000
		}
		for _, c := range cases {
			var want RecommendResponse
			if st := postJSON(t, full.URL+"/v1/recommend", RecommendRequest{
				User: c.User, M: c.M, ExcludeItems: c.ExcludeItems,
			}, &want); st != 200 {
				t.Fatalf("full server user %d: status %d", c.User, st)
			}
			items, scores := gatherMerge(t, shards, c)
			if len(items) != len(want.Items) {
				t.Fatalf("%d shards, user %d m %d: merged %d items, full served %d",
					nParts, c.User, c.M, len(items), len(want.Items))
			}
			for n, it := range want.Items {
				if items[n] != it.Item {
					t.Errorf("%d shards, user %d rank %d: merged item %d, full %d",
						nParts, c.User, n, items[n], it.Item)
				}
				if scores[n] != it.Score {
					t.Errorf("%d shards, user %d rank %d: merged score %v, full %v (must be bit-identical)",
						nParts, c.User, n, scores[n], it.Score)
				}
			}
		}
	}
}

// TestShardVersionPinning pins the mixed-version protocol: the current
// version and its immediate predecessor are served, anything else is 409.
func TestShardVersionPinning(t *testing.T) {
	train := dataset.SyntheticSmall(1).Dataset.R
	model := trainSmall(t, train, 3)
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := model.SaveModelFile(path); err != nil {
		t.Fatal(err)
	}
	srv, err := NewShardFromFile(Config{ModelPath: path, Train: train, ShardLo: 0, ShardHi: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var v1 ShardTopMResponse
	if st := postJSON(t, ts.URL+"/v1/shard/topm", ShardTopMRequest{User: 1, M: 5, ExpectVersion: 1}, &v1); st != 200 {
		t.Fatalf("pin to current version: status %d", st)
	}
	if st := postJSON(t, ts.URL+"/v1/shard/topm", ShardTopMRequest{User: 1, M: 5, ExpectVersion: 99}, nil); st != http.StatusConflict {
		t.Fatalf("pin to unknown version: status %d, want 409", st)
	}

	// Retrain and reload: version 2 becomes current, version 1 moves to
	// the two-deep history and must still serve pinned requests.
	if err := trainSmall(t, train, 99).SaveModelFile(path); err != nil {
		t.Fatal(err)
	}
	var rr ReloadResponse
	if st := postJSON(t, ts.URL+"/v1/reload", struct{}{}, &rr); st != 200 {
		t.Fatalf("reload: status %d", st)
	}
	if rr.ModelVersion != 2 {
		t.Fatalf("reload installed version %d, want 2", rr.ModelVersion)
	}
	var pinned ShardTopMResponse
	if st := postJSON(t, ts.URL+"/v1/shard/topm", ShardTopMRequest{User: 1, M: 5, ExpectVersion: 1}, &pinned); st != 200 {
		t.Fatalf("pin to previous version after reload: status %d", st)
	}
	if pinned.ModelVersion != 1 {
		t.Fatalf("pinned request served version %d, want 1", pinned.ModelVersion)
	}
	for n, it := range v1.Items {
		if pinned.Items[n] != it {
			t.Fatalf("rank %d: pinned request returned %+v, version 1 originally served %+v", n, pinned.Items[n], it)
		}
	}
	var current ShardTopMResponse
	if st := postJSON(t, ts.URL+"/v1/shard/topm", ShardTopMRequest{User: 1, M: 5, ExpectVersion: 2}, &current); st != 200 {
		t.Fatalf("pin to new version: status %d", st)
	}
	if current.ModelVersion != 2 {
		t.Fatalf("served version %d, want 2", current.ModelVersion)
	}

	// A second reload pushes version 1 off the history: now 409.
	if st := postJSON(t, ts.URL+"/v1/reload", struct{}{}, nil); st != 200 {
		t.Fatal("second reload failed")
	}
	if st := postJSON(t, ts.URL+"/v1/shard/topm", ShardTopMRequest{User: 1, M: 5, ExpectVersion: 1}, nil); st != http.StatusConflict {
		t.Fatalf("pin two versions back: status %d, want 409", st)
	}
}

// TestShardFrameManyUsersMidRollout: the frame route ranks every user of a
// frame — a whole router batch — against ONE snapshot. Mid-rollout (the
// shard reloaded, the router still pins the old version) that is the
// pinned version out of the two-deep history, for every user; a pin the
// history no longer holds is a 409 for the frame; and each user's slot is
// bit-identical to what /v1/shard/topm answers for that user alone, on a
// serial shard and on one that fans its frames out.
func TestShardFrameManyUsersMidRollout(t *testing.T) {
	train := dataset.SyntheticSmall(1).Dataset.R
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := trainSmall(t, train, 3).SaveModelFile(path); err != nil {
		t.Fatal(err)
	}
	users := []uint32{7, 0, 119, 7, 42}
	exclude := []int{41, 3, 60}
	for _, workers := range []int{0, 3} {
		lo := train.Cols() / 2
		srv, err := NewShardFromFile(Config{ModelPath: path, Train: train, ShardLo: lo, ShardHi: -1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		if workers == 0 { // the second server finds the retrained file already in place
			if err := trainSmall(t, train, 99).SaveModelFile(path); err != nil {
				t.Fatal(err)
			}
		}
		if st := postJSON(t, ts.URL+"/v1/reload", struct{}{}, nil); st != 200 {
			t.Fatalf("reload: status %d", st)
		}
		wreq := &wire.BatchRequest{M: 6, Users: users, Exclude: []uint32{41, 3, 60}}
		for _, pin := range []uint64{1, 2} {
			wreq.ExpectVersion = pin
			st, _, data := postFrame(t, ts.URL+"/v2/shard/topm", wreq)
			if st != 200 {
				t.Fatalf("workers=%d pin %d: status %d: %s", workers, pin, st, data)
			}
			bin := decodeFrame(t, data)
			if bin.Flags&wire.FlagShardPartial == 0 || bin.ModelVersion != pin || int(bin.ShardLo) != lo || int(bin.ShardHi) != train.Cols() {
				t.Fatalf("workers=%d pin %d: header %+v", workers, pin, bin)
			}
			if len(bin.Counts) != len(users) {
				t.Fatalf("workers=%d pin %d: %d slots for %d users", workers, pin, len(bin.Counts), len(users))
			}
			off := 0
			for i, u := range users {
				var one ShardTopMResponse
				if st := postJSON(t, ts.URL+"/v1/shard/topm",
					ShardTopMRequest{User: int(u), M: 6, ExcludeItems: exclude, ExpectVersion: pin}, &one); st != 200 {
					t.Fatalf("single user %d pin %d: status %d", u, pin, st)
				}
				if bin.Status[i] != 0 || int(bin.Counts[i]) != len(one.Items) {
					t.Fatalf("workers=%d pin %d slot %d: status %#x, %d items, alone %d", workers, pin, i, bin.Status[i], bin.Counts[i], len(one.Items))
				}
				for r, it := range one.Items {
					if int(bin.Items[off+r]) != it.Item || math.Float64bits(bin.Scores[off+r]) != math.Float64bits(it.Score) {
						t.Errorf("workers=%d pin %d slot %d rank %d: frame (%d, %v), alone (%d, %v)",
							workers, pin, i, r, bin.Items[off+r], bin.Scores[off+r], it.Item, it.Score)
					}
				}
				off += len(one.Items)
			}
		}
		wreq.ExpectVersion = 7
		if st, ct, data := postFrame(t, ts.URL+"/v2/shard/topm", wreq); st != http.StatusConflict || ct != "application/json" {
			t.Errorf("workers=%d unknown pin: status %d Content-Type %q (%s), want a JSON 409", workers, st, ct, data)
		}
	}
}

// TestShardServesOnlyShardAPI: a shard exposes the shard surface and
// nothing of the full API.
func TestShardServesOnlyShardAPI(t *testing.T) {
	_, shards, _, _, _ := newShardTier(t, 2)
	for _, path := range []string{"/v1/recommend", "/v1/foldin", "/v1/explain", "/v1/batch", "/v1/ingest"} {
		resp, err := http.Post(shards[0].URL+path, "application/json", bytes.NewReader([]byte("{}")))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s on a shard: status %d, want 404", path, resp.StatusCode)
		}
	}
	var health map[string]any
	resp, err := http.Get(shards[0].URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := jsonDecode(resp, &health); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"users", "items", "shard_lo", "shard_hi"} {
		if _, ok := health[key]; !ok {
			t.Errorf("shard healthz missing %q: %v", key, health)
		}
	}
}

func jsonDecode(resp *http.Response, v any) error {
	return json.NewDecoder(resp.Body).Decode(v)
}

// TestShardConfigValidation pins the construction errors.
func TestShardConfigValidation(t *testing.T) {
	train := dataset.SyntheticSmall(1).Dataset.R
	model := trainSmall(t, train, 3)
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := model.SaveModelFile(path); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no range", Config{ModelPath: path}},
		{"no model path", Config{ShardLo: 0, ShardHi: 10}},
		{"inverted range", Config{ModelPath: path, ShardLo: 10, ShardHi: 5}},
		{"negative lo", Config{ModelPath: path, ShardLo: -3, ShardHi: 5}},
		{"range past catalogue", Config{ModelPath: path, ShardLo: 0, ShardHi: model.NumItems() + 1}},
	}
	for _, c := range cases {
		if _, err := NewShardFromFile(c.cfg); err == nil {
			t.Errorf("%s: NewShardFromFile accepted %+v", c.name, c.cfg)
		}
	}
	// The full-server constructors refuse shard configs.
	if _, err := NewFromFile(Config{ModelPath: path, ShardLo: 0, ShardHi: 10}); err == nil {
		t.Error("NewFromFile accepted a shard config")
	}
}
