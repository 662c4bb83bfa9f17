package serve

import (
	"bytes"
	"net/http"
	"runtime/debug"
	"testing"

	"repro/internal/ranktest"
)

// TestShardVersionPinning pins the depth of the mixed-version protocol: the
// current version and its immediate predecessor are served, anything else
// is 409. (That a pinned predecessor answers exactly what it answered when
// current is the rollout leg of the shard sets in conformance_test.go.)
func TestShardVersionPinning(t *testing.T) {
	fx := ranktest.New(t, ranktest.Variant{})
	_, ts := start(t, NewShardFromFile, Config{ModelPath: fx.Path, Train: fx.Train, ShardLo: 0, ShardHi: -1})
	pin := func(version uint64) (int, uint64) {
		var resp ShardTopMResponse
		st := ranktest.PostJSON(t, ts.URL+"/v1/shard/topm", ShardTopMRequest{User: 1, M: 5, ExpectVersion: version}, &resp)
		return st, resp.ModelVersion
	}
	// Two reloads: version 3 is current, 2 its predecessor, and 1 — served
	// from the history after the first reload — has been pushed off it.
	for reload, history := range [][]int{{200, 200, 409}, {409, 200, 200}} {
		if st := ranktest.PostJSON(t, ts.URL+"/v1/reload", struct{}{}, nil); st != 200 {
			t.Fatalf("reload %d: status %d", reload+1, st)
		}
		for n, want := range history {
			version := uint64(n + 1)
			if st, served := pin(version); st != want || (st == 200 && served != version) {
				t.Errorf("after %d reloads, pin to version %d: status %d serving %d, want %d", reload+1, version, st, served, want)
			}
		}
	}
	if st, _ := pin(99); st != http.StatusConflict {
		t.Errorf("pin to a version never served: status %d, want 409", st)
	}
}

// TestShardServesOnlyShardAPI: a shard exposes the shard surface and
// nothing of the full API.
func TestShardServesOnlyShardAPI(t *testing.T) {
	shards := newShards(t, ranktest.New(t, ranktest.Variant{}), 2, Config{})
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
	getJSON(t, shards[0].URL+"/healthz", &health)
	for _, key := range []string{"users", "items", "shard_lo", "shard_hi"} {
		if _, ok := health[key]; !ok {
			t.Errorf("shard healthz missing %q: %v", key, health)
		}
	}
	// The JSON partial names the range and the version it was ranked under
	// (the frame's header does, and the router refuses one that does not).
	var part ShardTopMResponse
	ranktest.PostJSON(t, shards[1].URL+"/v1/shard/topm", ShardTopMRequest{User: 1, M: 3}, &part)
	if part.ShardLo != 40 || part.ShardHi != 80 || part.ModelVersion != 1 || len(part.Items) != 3 {
		t.Errorf("JSON partial %+v, want 3 items of [40,80) at version 1", part)
	}
}

// TestShardConfigValidation pins the construction errors.
func TestShardConfigValidation(t *testing.T) {
	fx := ranktest.New(t, ranktest.Variant{})
	path, model := fx.Path, fx.Cur.Model
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

// TestShardBatchAllocsPerUser: one more user adds nothing to what a shard's
// batch allocates. The lists go from the engine's scratch into the
// request's pooled columns, the engine walks the user's training row in
// place, and the request's own filters are rebased once per request,
// however many users share them.
func TestShardBatchAllocsPerUser(t *testing.T) {
	skipUnderRace(t)
	fx := ranktest.New(t, ranktest.Variant{F32: true})
	cfg := conformConfig(fx)
	cfg.ShardLo, cfg.ShardHi = 20, 60
	srv, err := NewShardFromFile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	users := make([]int, 33)
	for i := range users {
		users[i] = (i * 7) % fx.Train.Rows()
	}
	req := &BatchRequest{M: 5, ExcludeItems: []int{3, 25, 41}, Filter: &FilterSpec{DenyTags: []string{"rare"}}}
	a, rt := new(Answer), route{sn: srv.snap.Load()}
	allocs := func(n int) float64 {
		req.Users = users[:n]
		return testing.AllocsPerRun(50, func() {
			if err := srv.rankBatch(nil, rt, req, req.M, 1, a); err != nil {
				t.Fatal(err)
			}
		})
	}
	allocs(len(users)) // warm: the engine's scratch pooled, a grown
	if one, all := allocs(1), allocs(len(users)); all != one {
		t.Errorf("1 user: %v allocations, %d users: %v — %v per user, want 0", one, len(users), all, (all-one)/float64(len(users)-1))
	}
}

// skipUnderRace skips an allocation budget when the race detector is on:
// there sync.Pool drops a quarter of what is Put (to shake out reuse bugs),
// so pooled scratch is rebuilt at random and the counts are not
// production's. CI runs the budgets by name without -race.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are not meaningful under -race")
			}
		}
	}
}
