package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rank"
)

// The model seam: every snapshot — the default model, a registry model, a
// shard — is Server.open over an item range of an mmapped file, and a full
// server is the range [0, items). These tests pin what the opened range
// alone decides (the Model view, the cache, filter rebasing) and what the
// server's role decides (route set, health keys), on the very file.

// TestOpenSnapshotOverRanges opens one file as [0, items), [0, -1), [a, b)
// and [a, -1), with and without bias and the float32 section.
func TestOpenSnapshotOverRanges(t *testing.T) {
	train := dataset.SyntheticSmall(1).Dataset.R
	for _, v := range []struct{ bias, f32 bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		t.Run(fmt.Sprintf("bias=%v_f32=%v", v.bias, v.f32), func(t *testing.T) {
			res, err := core.Train(train, core.Config{K: 8, Lambda: 2, MaxIter: 30, Seed: 3, Bias: v.bias})
			if err != nil {
				t.Fatal(err)
			}
			model := res.Model
			path := filepath.Join(t.TempDir(), "model.bin")
			if err := model.SaveModelFileOpts(path, core.SaveOptions{Float32: v.f32}); err != nil {
				t.Fatal(err)
			}
			tags := testItemTags(t, model.NumItems())
			srv, err := NewFromFile(Config{ModelPath: path, Train: train, ItemTags: tags, CacheSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			deny, err := tags.Deny("rare")
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
				// Serving mode: always mapped, float32 as the file says, and
				// the description full servers and shards have always sent.
				desc, mapped, f32 := sn.servingMode()
				wantDesc := sn.rng.String()
				if r.whole {
					wantDesc = model.String()
				}
				if desc != wantDesc || !mapped || f32 != v.f32 {
					t.Errorf("%s: servingMode = (%q, %v, %v), want (%q, true, %v)", name, desc, mapped, f32, wantDesc, v.f32)
				}
				// Cache and rebasing, on the filter stack of a real request
				// (training row, exclude list, tag filter): a whole-catalogue
				// range passes the keyed filters through and answers the
				// repeat from its cache; a partition rebases them and never
				// caches.
				extra := []rank.Filter{rank.ExcludeItems([]int{r.lo, r.wantHi - 1}), deny}
				first, _, cached := sn.engine.TopM(7, 5, userFilters(sn, 7, extra)...)
				if cached || len(first) != 5 {
					t.Fatalf("%s: first ranking: %d items, cached %v", name, len(first), cached)
				}
				again, _, cached := sn.engine.TopM(7, 5, userFilters(sn, 7, extra)...)
				if cached != r.whole || (sn.engine.CacheLen() > 0) != r.whole {
					t.Errorf("%s: repeat cached = %v with %d cache entries, want cached = %v",
						name, cached, sn.engine.CacheLen(), r.whole)
				}
				// 2 = the stack's slice and the training-row filter; each
				// OffsetRange wrapper would add to it.
				if allocs := testing.AllocsPerRun(10, func() { userFilters(sn, 7, extra) }); r.whole && allocs > 2 {
					t.Errorf("%s: the filter stack costs %v allocations, want 2 (no rebasing wrapper)", name, allocs)
				}
				for n := range first {
					if again[n] != first[n] || first[n] < 0 || first[n] >= sn.rng.Len() {
						t.Errorf("%s: rank %d: item %d then %d, outside the range's %d local ids", name, n, first[n], again[n], sn.rng.Len())
					}
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
				{srv, "float32 loaded_at mapped model model_version status", "model_version ready"},
				{shard, "float32 items loaded_at mapped model model_version shard_hi shard_lo status users",
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
		// The overlapping reload installs a float32 file, so version and
		// serving mode both differ from what the first one installed.
		if err := trainSmall(t, f.train, 99).SaveModelFileOpts(c.path, core.SaveOptions{Float32: true}); err != nil {
			t.Fatal(err)
		}
		if _, err := c.reload(); err != nil {
			t.Fatal(err)
		}
		resp := reloadResponse(mine, c.name)
		if resp.ModelVersion != 2 || resp.Float32 || !resp.Mapped || resp.Name != c.name {
			t.Errorf("model %q: first reload reported %+v, want its own version 2, float64", c.name, resp)
		}
		if cur := c.current(); cur.version != 3 || !cur.rng.HasFloat32() {
			t.Errorf("model %q: current snapshot is version %d (float32 %v), want 3 (true)", c.name, cur.version, cur.rng.HasFloat32())
		}
	}
}
