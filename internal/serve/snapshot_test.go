package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/rank"
	"repro/internal/ranktest"
)

// The model seam: every snapshot — the default model, a registry model, a
// shard — is Server.open over an item range of an mmapped file, and a full
// server is the range [0, items). These tests pin what the opened range
// alone decides (the Model view, the cache, filter rebasing) and what the
// server's role decides (route set, health keys), on the very file.

// snapshotRanker ranks through rankBatch on sn — the one rank call under
// every endpoint, stripped of every endpoint — with the range's local item
// ids rebased to global.
func snapshotRanker(srv *Server, sn *snapshot) ranktest.RankFunc {
	return func(t testing.TB, c *ranktest.Case) ranktest.Answer {
		req := &BatchRequest{Users: c.Users, ExcludeItems: c.Exclude}
		if len(c.Allow)+len(c.Deny) > 0 {
			req.Filter = &FilterSpec{AllowTags: c.Allow, DenyTags: c.Deny}
		}
		var a Answer
		if err := srv.rankBatch(nil, route{sn: sn}, req, c.M, &a); err != nil {
			t.Fatal(err)
		}
		ans, off := ranktest.Answer{Status: 200}, 0
		for i, n := range a.Cols.Counts {
			l := ranktest.List{Cached: a.Cols.Cached[i]}
			if err := a.Slots[i].Err; err != nil {
				l.Err = err.Error()
			}
			for r := off; r < off+int(n); r++ {
				l.Items, l.Scores = append(l.Items, int(a.Cols.Items[r])+sn.rng.ItemLo()), append(l.Scores, a.Cols.Scores[r])
			}
			off += int(n)
			ans.Lists = append(ans.Lists, l)
		}
		return ans
	}
}

// TestOpenSnapshotOverRanges opens one file as [0, items), [0, -1), [a, b)
// and [a, -1), with and without bias and the float32 section, and
// registers every opened range with the conformance suite: a
// whole-catalogue range ranks the catalogue and answers a repeat from its
// cache; a partition ranks its own items under rebased filters, cacheless.
func TestOpenSnapshotOverRanges(t *testing.T) {
	for _, v := range ranktest.Variants {
		t.Run(v.String(), func(t *testing.T) {
			fx := ranktest.New(t, v)
			model, train, path := fx.Cur, fx.Train, fx.Path
			cfg := conformConfig(fx)
			cfg.CacheSize = 64
			srv, err := NewFromFile(cfg)
			if err != nil {
				t.Fatal(err)
			}
			users, items := model.NumUsers(), model.NumItems()
			a, b := items/4, 3*items/4
			for _, r := range []struct {
				lo, hi, wantHi int
				whole          bool
			}{
				{0, items, items, true},
				{0, -1, items, true},
				{a, b, b, false},
				{a, -1, items, false},
			} {
				name := fmt.Sprintf("[%d,%d)", r.lo, r.hi)
				old := srv.snap.Load()
				sn, err := srv.open(path, r.lo, r.hi, old, &rank.Stats{}, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				// Shape: the range as asked, the catalogue in full.
				if sn.rng.ItemLo() != r.lo || sn.rng.ItemHi() != r.wantHi ||
					sn.rng.NumUsers() != users || sn.rng.NumItems() != items {
					t.Errorf("%s: opened %v, want items [%d,%d) of %d, %d users", name, sn.rng, r.lo, r.wantHi, items, users)
				}
				if sn.version != old.version+1 || sn.train.Rows() != users || sn.train.Cols() != items {
					t.Errorf("%s: version %d over train %dx%d, want %d over %dx%d",
						name, sn.version, sn.train.Rows(), sn.train.Cols(), old.version+1, users, items)
				}
				if (sn.model != nil) != r.whole {
					t.Errorf("%s: Model view present = %v, want %v", name, sn.model != nil, r.whole)
				}
				// The description full servers and shards have always sent.
				wantDesc := sn.rng.String()
				if r.whole {
					wantDesc = model.String()
				}
				if desc := sn.shape(); desc != wantDesc {
					t.Errorf("%s: shape = %q, want %q", name, desc, wantDesc)
				}
				t.Run(name, func(t *testing.T) {
					impl := &ranktest.Ranker{Rank: snapshotRanker(srv, sn), Cache: r.whole}
					if !r.whole {
						impl.Lo, impl.Hi = r.lo, r.wantHi
					}
					ranktest.Conformance(t, fx, impl)
					if (sn.engine.CacheLen() > 0) != r.whole {
						t.Errorf("%d cache entries, want a cache only over the whole catalogue", sn.engine.CacheLen())
					}
				})
				// The request's own filters stay keyed on the whole catalogue
				// (no rebasing wrapper, so cacheable) and are rebased, unkeyed,
				// on a partition; the training row is the engine's either way.
				extra, err := srv.requestFilters(sn, []int{r.lo, r.wantHi - 1}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, keyed := extra[0].(rank.Keyed); len(extra) != 1 || keyed != r.whole {
					t.Errorf("%s: request filters %#v, want one, keyed = %v", name, extra, r.whole)
				}
			}

			// Role: the same file behind both constructors. The full server
			// reports the full key sets, the shard adds its range (and the
			// catalogue shape the router builds its table from).
			shard, err := NewShardFromFile(Config{ModelPath: path, Train: train, ShardLo: a, ShardHi: b})
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				srv             *Server
				healthz, readyz string
			}{
				{srv, "loaded_at model model_version status", "model_version ready"},
				{shard, "items loaded_at model model_version shard_hi shard_lo status users",
					"model_version ready shard_hi shard_lo"},
			} {
				ts := httptest.NewServer(c.srv.Handler())
				for path, want := range map[string]string{"/healthz": c.healthz, "/readyz": c.readyz} {
					if got := jsonKeys(t, ts.URL+path); got != want {
						t.Errorf("shard=%v %s keys: %q, want %q", c.srv.cfg.shardMode(), path, got, want)
					}
				}
				ts.Close()
			}
		})
	}
}

// jsonKeys GETs url and returns the sorted top-level keys of the JSON
// object it answers.
func jsonKeys(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var obj map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&obj); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// TestReloadReportsItsOwnSnapshot: the answer to POST /v1/reload describes
// the snapshot that very reload installed, not whatever is current by the
// time the response is shaped. The handler's two halves run here with a
// second reload between them — deterministically the state two overlapping
// reloads (SIGHUP beside the trainer's POST, two trainers on one named
// model) leave the first caller in.
func TestReloadReportsItsOwnSnapshot(t *testing.T) {
	f := newRegistryServer(t, Config{}, nil)
	for _, c := range []struct {
		name, path string
		reload     func() (*snapshot, error)
		current    func() *snapshot
	}{
		{"", f.srv.cfg.ModelPath, f.srv.reload, f.srv.snap.Load},
		{"candidate", f.candPath, func() (*snapshot, error) { return f.srv.reloadNamed("candidate") },
			f.srv.registry.models["candidate"].base.Load},
	} {
		mine, err := c.reload()
		if err != nil {
			t.Fatal(err)
		}
		// The overlapping reload installs another model, so the version
		// differs from what the first one installed.
		if err := ranktest.Train(t, f.train, 99).SaveModelFile(c.path); err != nil {
			t.Fatal(err)
		}
		if _, err := c.reload(); err != nil {
			t.Fatal(err)
		}
		resp := reloadResponse(mine, c.name)
		if resp.ModelVersion != 2 || resp.Name != c.name {
			t.Errorf("model %q: first reload reported %+v, want its own version 2", c.name, resp)
		}
		if cur := c.current(); cur.version != 3 {
			t.Errorf("model %q: current snapshot is version %d, want 3", c.name, cur.version)
		}
	}
}
