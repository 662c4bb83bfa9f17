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

// SweepOnly hides everything of a scorer but Scorer — Walk included — so
// the engine over it sweeps the catalogue for every user.
type SweepOnly struct{ Scorer }

// trainMapped trains train, saves it with the float32 section (which
// nothing scores) and maps the file: the scorer a server ranks from.
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

// factorModels trains, once per shape, the models factorRange overwrites.
var factorModels = map[[3]int]*core.Model{}

// factorRange maps the items [lo, hi) of a saved model whose factors are
// exactly fu (a row per user) and fi (a row per item) — trained once for its
// shape, then overwritten, so any bytes can be planted, out-of-domain ones
// included — with the float32 section, which nothing scores, when f32: a
// scorer with planted affinities. Not for parallel tests (the trained models are shared).
func factorRange(tb testing.TB, fu, fi [][]float64, f32 bool, lo, hi int) MappedScorer {
	tb.Helper()
	users, items, k := len(fu), len(fi), len(fu[0])
	m := factorModels[[3]int{users, items, k}]
	if m == nil {
		b := sparse.NewBuilder(users, items)
		for u := 0; u < users; u++ {
			b.Add(u, u%items)
		}
		res, err := core.Train(b.Build(), core.Config{K: k, Lambda: 1, MaxIter: 1, Seed: 1})
		if err != nil {
			tb.Fatal(err)
		}
		m = res.Model
		factorModels[[3]int{users, items, k}] = m
	}
	for u, row := range fu {
		copy(m.UserFactor(u), row)
	}
	for i, row := range fi {
		copy(m.ItemFactor(i), row)
	}
	path := filepath.Join(tb.TempDir(), "model.bin")
	if err := m.SaveModelFileOpts(path, core.SaveOptions{Float32: f32}); err != nil {
		tb.Fatal(err)
	}
	return openRange(tb, path, lo, hi)
}

// walkMatchesSelect ranks user u of scorer by its walk, under filters
// given in the range's own ids, and holds the list to Select over
// ScoreItems — ids and score bits. It reports whether the range walked u.
func walkMatchesSelect(t testing.TB, name string, scorer MappedScorer, u, m int, filters []Filter) bool {
	t.Helper()
	n := scorer.Len()
	s := &scratch{flat: flatten(nil, filters)}
	if !scorer.Walk(u, &s.walk) {
		return false
	}
	s.selectWalk(n, m)
	dense := make([]float64, n)
	scorer.ScoreItems(u, dense)
	want := Select(dense, m, filters...)
	if !slices.Equal(s.items, want) || len(s.scores) != len(s.items) {
		t.Fatalf("%s (user %d, n=%d m=%d): walk %v (%d scores), Select %v", name, u, n, m, s.items, len(s.scores), want)
	}
	for r, it := range s.items {
		if math.Float64bits(s.scores[r]) != math.Float64bits(dense[it]) {
			t.Fatalf("%s (user %d): rank %d item %d scored %v, the sweep %v", name, u, r, it, s.scores[r], dense[it])
		}
	}
	return true
}

// column returns n one-wide item rows, row i holding at[i] (0 elsewhere).
func column(n int, at map[int]float64) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{at[i]}
	}
	return rows
}

// TestWalkMatchesSelect is the property the support path rests on: for any
// planted factors, any filter stack and any m, the walk's list is what
// Select returns over the sweep — ids and score bits — on files with and
// without the float32 section. The named rows are the shapes that have bitten; the
// seeded rows draw everything, ties, saturation, underflow and K > 64
// included.
func TestWalkMatchesSelect(t *testing.T) {
	tags := testTagTable(t, 40)
	allow, err := tags.Allow("third")
	if err != nil {
		t.Fatal(err)
	}
	one := [][]float64{{1}}
	// Items 3 and 17 tie, and item 4's affinity 2⁻⁶⁰ is positive but
	// scores +0: a zero-score candidate.
	five := column(40, map[int]float64{3: 0.5, 4: 0x1p-60, 9: 0.25, 17: 0.5, 30: 0.125})
	// Twelve ties, the first and last four of them on a second co-cluster
	// the user is on too (shared items).
	ties := make([][]float64, 60)
	for i := range ties {
		ties[i] = []float64{0, 0}
		if i >= 5 && i < 17 {
			ties[i][0] = 0.75
		}
		if i < 9 || i >= 13 && i < 17 || i == 25 {
			ties[i][1] = 0.25
		}
	}
	// K = 70: the support is co-clusters 3 and 66, in different mask words.
	wide := make([][]float64, 200)
	for i := range wide {
		wide[i] = make([]float64, 70)
		if i >= 50 {
			continue
		}
		wide[i][3+i%2*63] = float64(1+i%7) / 8
		if i%5 == 0 {
			wide[i][3], wide[i][66] = 0.5, 0.5
		}
	}
	wideUser := [][]float64{make([]float64, 70)}
	wideUser[0][3], wideUser[0][66] = 1, 2
	// K = 6: the user's one support co-cluster is c, and so every item's
	// affinity is its one product there — at c = 1 in a lane of the dot,
	// at c = 5 in its tail — on factors a float32 holds exactly and whose
	// float32 product is not their float64 one, so a walk that read the
	// float32 copy would not score the sweep's bits. The items lie on
	// co-clusters the user is not on too, and the user on one no item is
	// on.
	third, seventenths := float64(float32(1.0/3)), float64(float32(0.7))
	if float64(float32(third)*float32(seventenths)) == third*seventenths {
		t.Fatal("the lone-product factors round alike in float32 and float64")
	}
	lone := func(c int) (fu, fi [][]float64) {
		fu = [][]float64{make([]float64, 6)}
		fu[0][c], fu[0][(c+2)%6] = third, 0.5
		fi = make([][]float64, 30)
		for i := range fi {
			fi[i] = make([]float64, 6)
			fi[i][(c+1)%6] = 0.25
			if i%4 != 3 {
				fi[i][c] = []float64{seventenths, third, float64(float32(0.1))}[i%3]
			}
		}
		return fu, fi
	}
	laneU, laneI := lone(1)
	tailU, tailI := lone(5)
	for _, row := range []struct {
		name    string
		fu, fi  [][]float64
		lo, hi  int
		m       int
		filters []Filter
	}{
		{"fewer than m candidates", one, five, 0, 40, 10, nil},
		{"more than m candidates", one, five, 0, 40, 2, nil},
		{"no candidates", one, column(40, nil), 0, 40, 5, []Filter{ExcludeItems([]int{0, 2})}},
		{"all candidates excluded", one, five, 0, 40, 4, []Filter{ExcludeItems([]int{3, 4, 9, 17, 30})}},
		{"zero-score candidate inside the tail", one, five, 0, 40, 8, []Filter{ExcludeItems([]int{0, 1})}},
		{"m > n", one, five, 0, 40, 100, []Filter{ExcludeItems([]int{9, 39})}},
		{"m = 0", one, five, 0, 40, 0, nil},
		{"allow-list leaving fewer than m", one, five, 0, 40, 30, []Filter{allow, oddOnly{}}},
		{"over-fetch of a score-floor stage", one, five, 0, 40, StagesOverFetch(6, []Stage{ScoreFloor(0.2)}), nil},
		{"offset range", one, column(140, map[int]float64{103: 0.5, 104: 0x1p-60, 109: 0.25, 117: 0.5, 130: 0.125}), 100, 140, 6,
			[]Filter{OffsetRange(ExcludeItems([]int{103, 104, 100, 20, 180}), 100, 140), OffsetRange(oddOnly{}, 100, 140)}},
		{"ties across the stop, shared items", [][]float64{{1, 1}}, ties, 0, 60, 5, []Filter{ExcludeItems([]int{6})}},
		{"saturated at 1.0", one, column(40, map[int]float64{2: 1e3, 5: 50, 7: 1e30, 8: 40, 11: 38}), 0, 40, 3, nil},
		{"underflowing products", [][]float64{{0x1p-600}}, column(40, map[int]float64{1: 0x1p-600, 6: 0x1p-500, 9: 1}), 0, 40, 4, nil},
		{"K > 64", wideUser, wide, 0, 200, 7, []Filter{ExcludeItems([]int{0, 1, 2})}},
		{"lone product in a lane", laneU, laneI, 0, 30, 12, []Filter{ExcludeItems([]int{4})}},
		{"lone product in the tail", tailU, tailI, 0, 30, 12, []Filter{ExcludeItems([]int{4})}},
	} {
		for _, f32 := range []bool{false, true} {
			name := fmt.Sprintf("%s/f32=%v", row.name, f32)
			t.Run(name, func(t *testing.T) {
				scorer := factorRange(t, row.fu, row.fi, f32, row.lo, row.hi)
				if !walkMatchesSelect(t, name, scorer, 0, row.m, row.filters) {
					t.Fatalf("%s: the range did not walk the user", name)
				}
			})
		}
	}

	r := rng.New(2024)
	palette := []float64{0.125, 0.25, 0.5, 1, 0x1p-60, 0x1p-80, 0x1p-540, 40, 1e20, 1e200}
	walked := 0
	for trial := 0; trial < 300; trial++ {
		n, k := 1+r.Intn(120), []int{1, 2, 3, 5, 70}[r.Intn(5)]
		draw := func(rows, density float64) [][]float64 {
			out := make([][]float64, int(rows))
			for i := range out {
				out[i] = make([]float64, k)
				for c := range out[i] {
					if r.Float64() < density {
						out[i][c] = palette[r.Intn(4)] // ties on purpose
						if r.Bernoulli(0.3) {
							out[i][c] = palette[r.Intn(len(palette))]
						} else if r.Bernoulli(0.3) {
							out[i][c] = r.Float64()
						}
					}
				}
			}
			return out
		}
		fu, fi := draw(3, 0.6), draw(float64(n), r.Float64()*r.Float64()*2/float64(k))
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
		scorer := factorRange(t, fu, fi, r.Bernoulli(0.5), 0, n)
		for u := range fu {
			if walkMatchesSelect(t, fmt.Sprintf("trial %d", trial), scorer, u, m, filters) {
				walked++
			}
		}
	}
	if walked < 450 {
		t.Errorf("the ranges walked %d of 900 users; the seeded rows barely reach the walk", walked)
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
		want, wantScores, _ := sweep.TopMStagedTimed(u, m, stages[:u%2], nil, filters...)
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
