// Benchmarks regenerating each table and figure of the paper at benchmark
// scale. Each Benchmark* corresponds to one experiment of DESIGN.md §3; the
// full-scale regenerators live in cmd/figures. Run with:
//
//	go test -bench=. -benchmem
package ocular_test

import (
	"fmt"
	"testing"

	ocular "repro"
)

// BenchmarkFig1Toy measures the end-to-end toy pipeline: train K=3 on the
// 12x12 example and read out the three recommendations.
func BenchmarkFig1Toy(b *testing.B) {
	toy := ocular.PaperToy()
	for i := 0; i < b.N; i++ {
		res, err := ocular.Train(toy.R, ocular.Config{K: 3, Lambda: 0.1, MaxIter: 300, Tol: 1e-7, Seed: 4})
		if err != nil {
			b.Fatal(err)
		}
		for _, h := range toy.Held {
			ocular.Recommend(res.Model, toy.R, h[0], 1)
		}
	}
}

// BenchmarkFig2Community measures the community-detection comparison on the
// toy's bipartite graph: modularity and BIGCLAM plus recommendation
// extraction.
func BenchmarkFig2Community(b *testing.B) {
	toy := ocular.PaperToy()
	g := ocular.BipartiteGraph(toy.R)
	for i := 0; i < b.N; i++ {
		part := ocular.DetectModularity(g)
		ocular.CommunityRecommendations(part.Communities(), toy.R)
		bc, err := ocular.FitBigClam(g, ocular.BigClamConfig{K: 3, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		ocular.CommunityRecommendations(bc.Communities(ocular.BigClamDelta(g)), toy.R)
	}
}

// BenchmarkFig3Explain measures probability-matrix rendering and rationale
// construction for the worked example.
func BenchmarkFig3Explain(b *testing.B) {
	toy := ocular.PaperToy()
	res, err := ocular.Train(toy.R, ocular.Config{K: 3, Lambda: 0.1, MaxIter: 300, Tol: 1e-7, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ocular.RenderProbabilityMatrix(res.Model, toy.R)
		ex := ocular.ExplainPair(res.Model, toy.R, 6, 4)
		ex.Render(toy.Dataset)
	}
}

// table1Bench runs one train+evaluate instance of a Table I algorithm on
// the small planted dataset.
func table1Bench(b *testing.B, train func(r *ocular.Matrix) (ocular.Recommender, error)) {
	b.Helper()
	d := ocular.SyntheticSmall(1)
	sp := ocular.SplitDataset(d.Dataset, 0.75, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := train(sp.Train)
		if err != nil {
			b.Fatal(err)
		}
		ocular.Evaluate(rec, sp.Train, sp.Test, 50)
	}
}

// BenchmarkTable1OCuLaR measures one Table I instance for OCuLaR.
func BenchmarkTable1OCuLaR(b *testing.B) {
	table1Bench(b, func(r *ocular.Matrix) (ocular.Recommender, error) {
		res, err := ocular.Train(r, ocular.Config{K: 10, Lambda: 2, MaxIter: 40, Seed: 1})
		if err != nil {
			return nil, err
		}
		return res.Model, nil
	})
}

// BenchmarkTable1ROCuLaR measures one Table I instance for R-OCuLaR.
func BenchmarkTable1ROCuLaR(b *testing.B) {
	table1Bench(b, func(r *ocular.Matrix) (ocular.Recommender, error) {
		res, err := ocular.Train(r, ocular.Config{K: 10, Lambda: 30, Relative: true, MaxIter: 40, Seed: 1})
		if err != nil {
			return nil, err
		}
		return res.Model, nil
	})
}

// BenchmarkTable1WALS measures one Table I instance for wALS.
func BenchmarkTable1WALS(b *testing.B) {
	table1Bench(b, func(r *ocular.Matrix) (ocular.Recommender, error) {
		return ocular.TrainWALS(r, ocular.WALSConfig{K: 10, B: 0.01, Lambda: 0.01, Iters: 10, Seed: 1})
	})
}

// BenchmarkTable1BPR measures one Table I instance for BPR.
func BenchmarkTable1BPR(b *testing.B) {
	table1Bench(b, func(r *ocular.Matrix) (ocular.Recommender, error) {
		return ocular.TrainBPR(r, ocular.BPRConfig{K: 10, Epochs: 20, Seed: 1})
	})
}

// BenchmarkTable1UserBased measures one Table I instance for user-based CF.
func BenchmarkTable1UserBased(b *testing.B) {
	table1Bench(b, func(r *ocular.Matrix) (ocular.Recommender, error) {
		return ocular.TrainUserKNN(r, ocular.KNNConfig{Neighbors: 20})
	})
}

// BenchmarkTable1ItemBased measures one Table I instance for item-based CF.
func BenchmarkTable1ItemBased(b *testing.B) {
	table1Bench(b, func(r *ocular.Matrix) (ocular.Recommender, error) {
		return ocular.TrainItemKNN(r, ocular.KNNConfig{Neighbors: 20})
	})
}

// BenchmarkFig5Curves measures the multi-cutoff evaluation pass behind the
// recall/MAP-versus-M curves.
func BenchmarkFig5Curves(b *testing.B) {
	d := ocular.SyntheticSmall(2)
	sp := ocular.SplitDataset(d.Dataset, 0.75, 2)
	res, err := ocular.Train(sp.Train, ocular.Config{K: 10, Lambda: 2, MaxIter: 40, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ms := []int{5, 10, 20, 30, 50}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ocular.EvaluateCurve(res.Model, sp.Train, sp.Test, ms)
	}
}

// BenchmarkFig6Sweep measures one (K, lambda) cell of the Fig 6 sweep:
// train, evaluate, extract co-clusters, compute shape stats.
func BenchmarkFig6Sweep(b *testing.B) {
	d := ocular.SyntheticSmall(3)
	sp := ocular.SplitDataset(d.Dataset, 0.75, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ocular.Train(sp.Train, ocular.Config{K: 8, Lambda: 5, MaxIter: 40, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		ocular.Evaluate(res.Model, sp.Train, sp.Test, 50)
		ocular.CoClusterStatsOf(ocular.CoClusters(res.Model, 0.3), sp.Train)
	}
}

// BenchmarkFig7Scalability measures training cost per iteration across
// dataset fractions and K, the linearity claim of Fig 7. Sub-benchmarks
// encode the sweep; compare ns/op across them.
func BenchmarkFig7Scalability(b *testing.B) {
	base := ocular.SyntheticNetflix(1, 0.08)
	for _, frac := range []float64{0.5, 1.0} {
		sub := ocular.Subsample(base.R, frac, 1)
		for _, k := range []int{10, 50} {
			b.Run(fmt.Sprintf("frac=%.1f/K=%d", frac, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := ocular.Train(sub, ocular.Config{K: k, Lambda: 5, MaxIter: 1, Tol: 1e-12, Seed: 1}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig8Engines compares the serial and parallel training engines at
// equal work, the CPU analogue of the paper's CPU-vs-GPU comparison.
func BenchmarkFig8Engines(b *testing.B) {
	d := ocular.SyntheticNetflix(2, 0.08)
	// Config.Workers 0 means every core, 1 serial.
	for _, eng := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(eng.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ocular.Train(d.R, ocular.Config{K: 20, Lambda: 5, MaxIter: 2, Tol: 1e-12, Seed: 1, Workers: eng.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9GridSearch measures a small (K, lambda) grid search.
func BenchmarkFig9GridSearch(b *testing.B) {
	d := ocular.SyntheticSmall(4)
	sp := ocular.SplitDataset(d.Dataset, 0.75, 4)
	grid := ocular.GridSearchGrid{Ks: []int{4, 8}, Lambdas: []float64{1, 5}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ocular.GridSearch(sp.Train, sp.Test, grid, ocular.GridSearchOptions{
			M: 10, Base: ocular.Config{MaxIter: 10, Seed: 1},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10Rationale measures deployment-style explanation generation
// on the B2B substitute (model trained once; per-op cost is the rationale).
func BenchmarkFig10Rationale(b *testing.B) {
	d := ocular.SyntheticB2B(1)
	res, err := ocular.Train(d.R, ocular.Config{K: 25, Lambda: 5, MaxIter: 30, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := i % d.Users()
		recs := ocular.Recommend(res.Model, d.R, u, 1)
		if len(recs) > 0 {
			ex := ocular.ExplainPair(res.Model, d.R, u, recs[0])
			ex.Render(d.Dataset)
		}
	}
}
