package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// TestFusedMatchesReferenceTraces is the kernel-equivalence contract of the
// fused training path: across K, Relative, Bias and Workers, the fused
// one-pass/incremental-line-search kernels must produce an objective trace
// matching the unfused reference kernels within 1e-9 relative at every
// outer iteration. (The paths reorder floating-point sums, so bitwise
// equality is not expected — trajectory agreement is.)
func TestFusedMatchesReferenceTraces(t *testing.T) {
	withProcs(t, 4)
	for _, k := range []int{1, 4, 16} {
		for _, relative := range []bool{false, true} {
			for _, bias := range []bool{false, true} {
				for _, workers := range []int{1, 4, 0} {
					name := fmt.Sprintf("K=%d/relative=%v/bias=%v/workers=%d", k, relative, bias, workers)
					t.Run(name, func(t *testing.T) {
						m := smallMatrix(uint64(100+k), 50, 40, 320)
						cfg := Config{
							K: k, Lambda: 1.5, MaxIter: 12, Tol: 1e-12, Seed: 7,
							Relative: relative, Bias: bias, Workers: workers,
						}
						fused, err := Train(m, cfg)
						if err != nil {
							t.Fatal(err)
						}
						cfg.reference = true
						ref, err := Train(m, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if len(fused.Objective) != len(ref.Objective) {
							t.Fatalf("trace lengths differ: fused %d, reference %d",
								len(fused.Objective), len(ref.Objective))
						}
						for i := range fused.Objective {
							f, r := fused.Objective[i], ref.Objective[i]
							if math.Abs(f-r) > 1e-9*(1+math.Abs(r)) {
								t.Fatalf("iter %d: fused objective %v, reference %v (rel diff %g)",
									i, f, r, math.Abs(f-r)/(1+math.Abs(r)))
							}
						}
					})
				}
			}
		}
	}
}

// TestFusedMatchesReferenceGradSteps extends the equivalence contract to
// multi-step subproblem solves, where the fused kernels re-enter the fused
// pass with the factor updated by the previous step.
func TestFusedMatchesReferenceGradSteps(t *testing.T) {
	m := smallMatrix(42, 40, 30, 250)
	cfg := Config{K: 5, Lambda: 1, MaxIter: 8, Tol: 1e-12, Seed: 3, GradSteps: 3}
	fused, err := Train(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.reference = true
	ref, err := Train(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fused.Objective {
		f, r := fused.Objective[i], ref.Objective[i]
		if math.Abs(f-r) > 1e-9*(1+math.Abs(r)) {
			t.Fatalf("iter %d: fused %v, reference %v", i, f, r)
		}
	}
}

// withProcs runs the rest of t with GOMAXPROCS n, so a Workers 0 row (every
// core) really fans out on a 2-core runner, and restores it afterwards.
func withProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// sameTraining fails the test unless a and b trained the same model in
// math.Float64bits — factors, biases and the objective trace.
func sameTraining(t *testing.T, a, b *Result) {
	t.Helper()
	sameBits(t, "fu", a.Model.fu, b.Model.fu)
	sameBits(t, "fi", a.Model.fi, b.Model.fi)
	sameBits(t, "bu", a.Model.bu, b.Model.bu)
	sameBits(t, "bi", a.Model.bi, b.Model.bi)
	sameBits(t, "objective trace", a.Objective, b.Objective)
}

// TestFusedSerialParallelBitIdentical: on the fused path (and its bias and
// relative variants) 4 workers and the default 0 (every core, 4 here) must
// train the serial model bit for bit, cold and warm-started from it —
// factor updates are row-local and every cross-row reduction, including
// the parallelized convergence objective, uses a fixed-block deterministic
// tree.
func TestFusedSerialParallelBitIdentical(t *testing.T) {
	withProcs(t, 4)
	for _, relative := range []bool{false, true} {
		for _, bias := range []bool{false, true} {
			t.Run(fmt.Sprintf("relative=%v/bias=%v", relative, bias), func(t *testing.T) {
				m, next := smallMatrix(17, 300, 200, 2500), smallMatrix(18, 300, 200, 2500)
				train := func(r *sparse.Matrix, cfg Config) *Result {
					t.Helper()
					res, err := Train(r, cfg)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				cold := Config{
					K: 6, Lambda: 1, MaxIter: 6, Tol: 1e-12, Seed: 13,
					Relative: relative, Bias: bias, Workers: 1,
				}
				serial := train(m, cold)
				warm := cold
				warm.WarmStart, warm.Seed = serial.Model, 14
				serialWarm := train(next, warm)
				for _, workers := range []int{4, 0} {
					cold.Workers, warm.Workers = workers, workers
					sameTraining(t, serial, train(m, cold))
					sameTraining(t, serialWarm, train(next, warm))
				}
			})
		}
	}
}

// TestObjectiveWeightedMatchesObjective: the cached-weight entry point must
// agree exactly with the allocating exported wrapper, for any worker count.
func TestObjectiveWeightedMatchesObjective(t *testing.T) {
	m := smallMatrix(23, 120, 90, 900)
	for _, relative := range []bool{false, true} {
		res, err := Train(m, Config{K: 4, Lambda: 1, MaxIter: 4, Seed: 5, Relative: relative})
		if err != nil {
			t.Fatal(err)
		}
		want := res.Model.Objective(m, 1, relative)
		weights := userWeights(m, relative)
		for _, workers := range []int{1, 3, 8} {
			if got := res.Model.ObjectiveWeighted(m, 1, weights, workers); got != want {
				t.Fatalf("relative=%v workers=%d: ObjectiveWeighted %v != Objective %v",
					relative, workers, got, want)
			}
		}
	}
}

// BenchmarkTrainSweep isolates the factor-sweep cost of one outer iteration
// (no convergence check), the quantity behind the Fig 7 linearity claim.
// The reference sub-runs measure the pre-fusion kernels for attribution.
func BenchmarkTrainSweep(b *testing.B) {
	d := dataset.SyntheticSmall(1)
	for _, bc := range []struct {
		name      string
		workers   int
		reference bool
	}{
		{"fused/serial", 1, false},
		{"fused/parallel", parallel.DefaultWorkers(), false},
		{"reference/serial", 1, true},
		{"reference/parallel", parallel.DefaultWorkers(), true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := Config{K: 10, Lambda: 5, Seed: 1, Workers: bc.workers, reference: bc.reference}.withDefaults()
			tr := newTrainer(d.R, cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.sweepItems()
				tr.sweepUsers()
			}
		})
	}
}

// BenchmarkTrainBenchCatalogue trains what every workload of the repository
// benchmark trains — bench/layers.go's planted catalogue at bench/
// workloads.go's trainSize (2,000 × 3,000, K=16, λ=5, catalogSeed, the
// default all-core solver, serial under -cpu 1, 70% of the positives as
// the base matrix) — so a training profile can be taken where the
// benchmark's cold_train_s and cycle_s are spent:
// `cold` is the first cycle's training from random factors, `warm` a
// retrain from that model once the 10% ingest stream has been added. The
// README's training attribution is measured from it.
func BenchmarkTrainBenchCatalogue(b *testing.B) {
	const users, items, k, catalogSeed = 2000, 3000, 16, 20170419
	p, err := dataset.GeneratePlanted(dataset.PlantedConfig{
		Name:  "bench",
		Users: users, Items: items, Clusters: k,
		MinClusterUsers: 80, MaxClusterUsers: 160,
		MinClusterItems: 25, MaxClusterItems: 50,
		WithinProb:     0.4,
		NoisePositives: 2 * users,
		PopularitySkew: 1.0,
	}, rng.New(catalogSeed))
	if err != nil {
		b.Fatal(err)
	}
	n := p.R.NNZ()
	perm := rng.New(catalogSeed + 1).Perm(n)
	base, seen := p.R.SelectEntries(perm[:n*7/10]), p.R.SelectEntries(perm[:n*7/10+n/10])
	cfg := Config{K: k, Lambda: 5, MaxIter: 150, Seed: catalogSeed}
	cold, err := Train(base, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, _ := Train(base, cfg)
			b.ReportMetric(float64(res.Iterations()), "iters")
		}
	})
	b.Run("warm", func(b *testing.B) {
		warm := cfg
		warm.WarmStart = cold.Model
		for i := 0; i < b.N; i++ {
			res, _ := Train(seen, warm)
			b.ReportMetric(float64(res.Iterations()), "iters")
		}
	})
}

// BenchmarkTrainObjective isolates the per-iteration convergence check —
// the ObjectiveWeighted pass with the trainer's cached weight table — so
// a change in iteration time can be attributed to sweep versus check.
func BenchmarkTrainObjective(b *testing.B) {
	d := dataset.SyntheticSmall(1)
	for _, workers := range []int{1, parallel.DefaultWorkers()} {
		name := "serial"
		if workers != 1 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			cfg := Config{K: 10, Lambda: 5, Seed: 1, Workers: workers, Relative: true}.withDefaults()
			tr := newTrainer(d.R, cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.objective()
			}
		})
	}
}
