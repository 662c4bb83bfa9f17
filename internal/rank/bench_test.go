package rank

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// benchScorer scores a synthetic 17k-item catalogue (the paper's largest
// per-user ranking) without model overhead, isolating the engine.
type benchScorer struct {
	scores []float64
}

func (s *benchScorer) ScoreUser(_ int, dst []float64) { copy(dst, s.scores) }
func (s *benchScorer) NumItems() int                  { return len(s.scores) }

func newBenchSetup(b *testing.B, ni int) (*benchScorer, *sparse.Matrix, []int) {
	b.Helper()
	r := rng.New(11)
	scores := make([]float64, ni)
	for i := range scores {
		scores[i] = r.Float64()
	}
	tb := sparse.NewBuilder(1, ni)
	for i := 0; i < ni; i++ {
		if r.Bernoulli(0.01) {
			tb.Add(0, i)
		}
	}
	exclude := make([]int, 100)
	for n := range exclude {
		exclude[n] = r.Intn(ni)
	}
	return &benchScorer{scores: scores}, tb.Build(), exclude
}

// BenchmarkRankCoalesced measures the duplicate-miss hot path: parallel
// goroutines hammer one filtered fingerprint while the entry is evicted
// periodically, so requests alternate between cache hits and coalesced
// misses. The reported computes/req ratio is the engine's effectiveness —
// without coalescing and caching it would be 1.0.
func BenchmarkRankCoalesced(b *testing.B) {
	const ni = 17000
	scorer, train, exclude := newBenchSetup(b, ni)
	stats := &Stats{}
	e := NewEngine(scorer, Config{CacheSize: 64, Stats: stats})
	row := TrainRow(train, 0)
	ex := ExcludeItems(exclude)
	var reqs atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		n := 0
		for pb.Next() {
			reqs.Add(1)
			// A shifting m evicts nothing but varies the key a little,
			// keeping the cache honest without making every miss unique.
			e.TopM(0, 50+n%2, row, ex)
			n++
		}
	})
	b.StopTimer()
	if r := reqs.Load(); r > 0 {
		b.ReportMetric(float64(stats.Ranked())/float64(r), "computes/req")
		b.ReportMetric(float64(stats.Coalesced())/float64(r), "coalesced/req")
	}
}

// BenchmarkRankCandidateShare is where core's maxCandidateShare comes
// from: one uncached top-20 under the training-row filter, ranked from the
// support index ("support") and by the full sweep ("sweep"), on the sparse
// planted catalogue (a user's support reaches about 1 % of the items) and
// on the dense SyntheticMovieLens preset at K=50 (about a third). swept/op
// is the share of users the support path declined — those beyond the
// crossover, whom both rows sweep.
func BenchmarkRankCandidateShare(b *testing.B) {
	for _, cat := range []struct {
		name  string
		train func() *sparse.Matrix
		cfg   core.Config
	}{
		{"planted_K16", func() *sparse.Matrix { return plantedSparse(b) }, core.Config{K: 16, Lambda: 5, MaxIter: 40, Seed: 1}},
		{"movielens_K50", func() *sparse.Matrix { return dataset.SyntheticMovieLens(1).R }, core.Config{K: 50, Lambda: 5, MaxIter: 40, Seed: 1}},
	} {
		train := cat.train()
		mapped := trainMapped(b, train, cat.cfg)
		for _, path := range []struct {
			name   string
			scorer Scorer
		}{{"support", mapped}, {"sweep", SweepOnly{mapped}}} {
			b.Run(cat.name+"/"+path.name, func(b *testing.B) {
				e := NewEngine(path.scorer, Config{})
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					u := i % train.Rows()
					e.TopM(u, 20, TrainRow(train, u))
				}
				b.ReportMetric(float64(e.Stats().Swept())/float64(b.N), "swept/op")
			})
		}
	}
}

// BenchmarkShardBatch32 is one shard's share of a router batch on the
// repository benchmark's serving catalogue (bench/workloads.go's serveSize:
// 12,000 items in 4 ranges, K=16): 32 cold users ranked into the caller's
// columns under rebased filters, every fourth with an exclusion list and a
// deny-tag filter. B/op ÷ 32 is what a user costs a shard's engine — the
// place to look before bench/'s alloc_kb_per_user @ router_tier is run. A
// stand-in CI keeps compiling, never a source of numbers.
func BenchmarkShardBatch32(b *testing.B) {
	train := planted(b, 6000, 12000, 300, 80)
	path := saveTrained(b, train, core.Config{K: 16, Lambda: 5, MaxIter: 40, Seed: 1})
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e, users, filtersFor := shardBatch(b, train, path, 3000, 6000, 32)
			var cols BatchCols
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cols.Reset()
				e.TopMBatch(users, 20, workers, nil, filtersFor, &cols)
			}
		})
	}
}
