package rank

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// MappedScorer is an opened model file as the serving layer hands it to an
// engine: scored by range-local index, with the support index's fast path.
// (Exported, like SweepOnly, for the registrations in conformance_test.go.)
type MappedScorer struct{ *core.MappedModelRange }

func (s MappedScorer) ScoreUser(u int, dst []float64) { s.ScoreItems(u, dst) }
func (s MappedScorer) NumItems() int                  { return s.Len() }

// SweepOnly hides everything of a scorer but Scorer — ScoreCandidates
// included — so the engine over it sweeps the catalogue for every user.
type SweepOnly struct{ Scorer }

// trainMapped trains train, saves it with the float32 section and maps the
// file: the scorer a server ranks from.
func trainMapped(tb testing.TB, train *sparse.Matrix, cfg core.Config) MappedScorer {
	tb.Helper()
	return openRange(tb, saveTrained(tb, train, cfg), 0, -1)
}

func saveTrained(tb testing.TB, train *sparse.Matrix, cfg core.Config) (path string) {
	tb.Helper()
	res, err := core.Train(train, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	path = filepath.Join(tb.TempDir(), "model.bin")
	if err := res.Model.SaveModelFileOpts(path, core.SaveOptions{Float32: true}); err != nil {
		tb.Fatal(err)
	}
	return path
}

// openRange maps the item range [lo, hi) of a saved model: a shard's scorer.
func openRange(tb testing.TB, path string, lo, hi int) MappedScorer {
	tb.Helper()
	rr, err := core.OpenMappedModelRange(path, lo, hi)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = rr.Close() })
	return MappedScorer{rr}
}

// plantedSparse is the repository benchmark's serving catalogue at a
// quarter of its size: 16 planted co-clusters of a few dozen items among
// thousands, the shape where a user's support reaches about 1 % of the
// items.
func plantedSparse(tb testing.TB) *sparse.Matrix { return planted(tb, 1500, 3000, 80, 20) }

// planted draws 16 co-clusters of up to clusterUsers × clusterItems, and
// two noise positives a user, the way bench/layers.go does.
func planted(tb testing.TB, users, items, clusterUsers, clusterItems int) *sparse.Matrix {
	tb.Helper()
	p, err := dataset.GeneratePlanted(dataset.PlantedConfig{
		Name: "planted", Users: users, Items: items, Clusters: 16,
		MinClusterUsers: clusterUsers / 2, MaxClusterUsers: clusterUsers,
		MinClusterItems: clusterItems / 2, MaxClusterItems: clusterItems,
		WithinProb: 0.4, NoisePositives: 2 * users, PopularitySkew: 1,
	}, rng.New(20170419))
	if err != nil {
		tb.Fatal(err)
	}
	return p.R
}

// shardBatch is a shard's batch as its engine sees it: a cacheless engine
// over the item range [lo, hi) of a saved model, n users, and per user the
// filter stack serve builds — the training row, for every fourth user an
// exclusion list and a deny-tag filter beside it, all rebased into the
// range and so unkeyed — built up front, so that what a TopMBatch call over
// it allocates is the engine's own.
func shardBatch(tb testing.TB, train *sparse.Matrix, path string, lo, hi, n int) (*Engine, []int, func(int) ([]Filter, bool)) {
	tb.Helper()
	deny, err := testTagTable(tb, train.Cols()).Deny("third")
	if err != nil {
		tb.Fatal(err)
	}
	users, stacks := make([]int, n), make([][]Filter, n)
	for i := range users {
		users[i] = (i * 37) % train.Rows()
		stacks[i] = []Filter{TrainRow(train, users[i])}
		if i%4 == 0 {
			stacks[i] = append(stacks[i], ExcludeItems([]int{lo, lo + 2, (lo + hi) / 2, hi - 1}), deny)
		}
		for j, f := range stacks[i] {
			stacks[i][j] = OffsetRange(f, lo, hi)
		}
	}
	e := NewEngine(openRange(tb, path, lo, hi), Config{})
	return e, users, func(i int) ([]Filter, bool) { return stacks[i], true }
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

// oddOnly is a predicate filter (no Sorted, no bound): an allow-list.
type oddOnly struct{}

func (oddOnly) Excluded(item int) bool { return item%2 == 0 }

// TestSelectSparseMatchesSelect is the property the support path rests on:
// for any ascending (id, score ≥ 0) set over n items, any filter stack and
// any m, selecting from the sparse form returns what Select returns over
// the array with +0 everywhere else — ids and score bits. The named rows
// are the shapes that have bitten; the seeded rows draw everything.
func TestSelectSparseMatchesSelect(t *testing.T) {
	check := func(t *testing.T, name string, n, m int, ids []int32, scores []float64, filters []Filter) {
		t.Helper()
		dense := make([]float64, n)
		for j, id := range ids {
			dense[id] = scores[j]
		}
		want := Select(dense, m, filters...)
		s := &scratch{ids: ids, cand: scores, flat: flatten(nil, filters)}
		s.selectSparse(n, m)
		got, gotScores := s.items, s.scores
		if !slices.Equal(got, want) || len(gotScores) != len(got) {
			t.Fatalf("%s (n=%d m=%d, %d candidates): sparse %v (%d scores), Select %v", name, n, m, len(ids), got, len(gotScores), want)
		}
		for r, it := range got {
			if math.Float64bits(gotScores[r]) != math.Float64bits(dense[it]) {
				t.Fatalf("%s: rank %d item %d scored %v, the array holds %v", name, r, it, gotScores[r], dense[it])
			}
		}
	}
	tags := testTagTable(t, 40)
	allow, err := tags.Allow("third")
	if err != nil {
		t.Fatal(err)
	}
	ids, scores := []int32{3, 4, 9, 17, 30}, []float64{0.5, 0, 0.25, 0.5, 0.125}
	for _, row := range []struct {
		name    string
		n, m    int
		ids     []int32
		scores  []float64
		filters []Filter
	}{
		{"fewer than m candidates", 40, 10, ids, scores, nil},
		{"more than m candidates", 40, 2, ids, scores, nil},
		{"no candidates", 40, 5, nil, nil, []Filter{ExcludeItems([]int{0, 2})}},
		{"all candidates excluded", 40, 4, ids, scores, []Filter{ExcludeItems([]int{3, 4, 9, 17, 30})}},
		{"zero-score candidate inside the tail", 40, 8, ids, scores, []Filter{ExcludeItems([]int{0, 1})}},
		{"m > n", 40, 100, ids, scores, []Filter{ExcludeItems([]int{9, 39})}},
		{"m = 0", 40, 0, ids, scores, nil},
		{"allow-list leaving fewer than m", 40, 30, ids, scores, []Filter{allow, oddOnly{}}},
		{"over-fetch of a score-floor stage", 40, StagesOverFetch(6, []Stage{ScoreFloor(0.2)}), ids, scores, nil},
		{"offset range", 40, 6, ids, scores, []Filter{OffsetRange(ExcludeItems([]int{103, 104, 100, 20, 180}), 100, 140), OffsetRange(oddOnly{}, 100, 140)}},
	} {
		t.Run(row.name, func(t *testing.T) { check(t, row.name, row.n, row.m, row.ids, row.scores, row.filters) })
	}

	r := rng.New(2024)
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(120)
		var ids []int32
		var scores []float64
		density := r.Float64() * r.Float64()
		for i := 0; i < n; i++ {
			if r.Float64() < density {
				s := float64(r.Intn(4)) / 4 // ties and zero-score candidates on purpose
				if r.Bernoulli(0.3) {
					s = r.Float64()
				}
				ids, scores = append(ids, int32(i)), append(scores, s)
			}
		}
		tb := sparse.NewBuilder(1, n)
		var ex []int
		for i := 0; i < n; i++ {
			if r.Bernoulli(0.1) {
				tb.Add(0, i)
			}
			if r.Bernoulli(0.1) {
				ex = append(ex, i)
			}
		}
		var filters []Filter
		lo := r.Intn(50)
		for _, f := range []Filter{TrainRow(tb.Build(), 0), ExcludeItems(ex), oddOnly{}} {
			switch r.Intn(3) {
			case 0:
				filters = append(filters, f)
			case 1: // as a shard sees it: global ids, rebased to the range [lo, lo+n)
				global := make([]int, 0, len(ex))
				for _, i := range ex {
					global = append(global, i+lo)
				}
				filters = append(filters, OffsetRange(ExcludeItems(global), lo, lo+n))
			}
		}
		m := r.Intn(n + 10)
		check(t, fmt.Sprintf("trial %d", trial), n, m, ids, scores, filters)
	}
}

// TestSupportPathMatchesSweep ranks every user of a sparse planted
// catalogue twice — from the scorer's candidates and over the same scorer
// with that path hidden — under the filters a server stacks, unstaged and
// staged: the same items and the same score bits, with the counters saying
// that the two engines did take the two paths.
func TestSupportPathMatchesSweep(t *testing.T) {
	train := plantedSparse(t)
	mapped := trainMapped(t, train, core.Config{K: 16, Lambda: 5, MaxIter: 40, Seed: 1})
	support, sweep := NewEngine(mapped, Config{}), NewEngine(SweepOnly{mapped}, Config{})
	tags := testTagTable(t, train.Cols())
	deny, err := tags.Deny("third")
	if err != nil {
		t.Fatal(err)
	}
	stages := []Stage{ScoreFloor(0.05)}
	r := rng.New(5)
	for u := 0; u < train.Rows(); u++ {
		filters := []Filter{TrainRow(train, u)}
		if u%4 == 0 {
			filters = append(filters, ExcludeItems(r.Sample(train.Cols(), 10)), deny)
		}
		m := 1 + r.Intn(40)
		var tm Timings
		got, gotScores, _ := support.TopMStagedTimed(u, m, stages[:u%2], &tm, filters...)
		want, wantScores, _ := sweep.TopMStaged(u, m, stages[:u%2], filters...)
		if !slices.Equal(got, want) || len(gotScores) != len(wantScores) {
			t.Fatalf("user %d m=%d: support path %v, sweep %v", u, m, got, want)
		}
		for n := range got {
			if math.Float64bits(gotScores[n]) != math.Float64bits(wantScores[n]) {
				t.Fatalf("user %d rank %d: support path scored %v, sweep %v", u, n, gotScores[n], wantScores[n])
			}
		}
		if tm.Score <= 0 || tm.Select <= 0 {
			t.Fatalf("user %d: timings %+v, want the score and select spans filled on the support path", u, tm)
		}
	}
	users := int64(train.Rows())
	if s := support.Stats(); s.Ranked() != users || s.Swept() != 0 {
		t.Errorf("support engine: ranked %d swept %d, want %d and 0", s.Ranked(), s.Swept(), users)
	}
	if s := sweep.Stats(); s.Ranked() != users || s.Swept() != users {
		t.Errorf("sweep engine: ranked %d swept %d, want %d both", s.Ranked(), s.Swept(), users)
	}
}
