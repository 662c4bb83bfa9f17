package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/linalg"
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

// benchCatalogue is what every workload of the repository benchmark
// trains: bench/layers.go's planted catalogue at bench/workloads.go's
// trainSize (2,000 × 3,000, K=16, λ=5, catalogSeed, the default all-core
// solver), with 70% of the positives as the base matrix and the 10% ingest
// stream added to them as seen.
func benchCatalogue(tb testing.TB) (base, seen *sparse.Matrix, cfg Config) {
	tb.Helper()
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
		tb.Fatal(err)
	}
	n := p.R.NNZ()
	perm := rng.New(catalogSeed + 1).Perm(n)
	base, seen = p.R.SelectEntries(perm[:n*7/10]), p.R.SelectEntries(perm[:n*7/10+n/10])
	return base, seen, Config{K: k, Lambda: 5, MaxIter: 150, Seed: catalogSeed}
}

// BenchmarkTrainBenchCatalogue trains the benchmark's catalogue
// (benchCatalogue; serial under -cpu 1), so a training profile can be
// taken where the benchmark's cold_train_s and cycle_s are spent: `cold`
// is the first cycle's training from random factors, `warm` a retrain
// from that model once the ingest stream has been added. The README's
// training attribution is measured from it.
func BenchmarkTrainBenchCatalogue(b *testing.B) {
	base, seen, cfg := benchCatalogue(b)
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

// pinnedBits are the first 64 bits of the SHA-256 of the cold training,
// then of the warm retrain, that TestTrainedBitsPinned runs, in its case
// order: plain, R-OCuLaR and bias, each at K = 1, 5, 16, 64, 65 and 100.
var pinnedBits = []string{
	"42e2e31e7c9f5fd8cb705ed6862df7c3", "b943705b8e020798ab88fbc953987aba", "c11cc2c599b7c8a2c16f57dcec76fdf2",
	"e56456380a7f3672359174fbfae4fd83", "fb50f40e2c4f6549e13e3f5a850aed6a", "edab44648a0b1a7c40a8dcda7699b987",
	"9e18b52260466413e5957b5afef9eb1a", "01427d67a38294dbcbf26c712de305e6", "2f29e9e29923131764cf25e16628cb8f",
	"2d683894e8d6a74b3f2ed755d129dc1e", "d427b9833874e90be2f3d739734329a1", "5ca2b383f6588810f77422ed7f326d4b",
	"f6fda4c555784e5d40e6ae8bb18fa16c", "55eaa4fd53a4d847d5b6c9a5e0af97a5", "9d0359079f7eb51f95f93e723febe926",
	"71fbc6f37653798095bf2745f03e437b", "ffcf4182a71661a0800f298c30b27b5b", "9de7a971ff81342a628fc13ecba1a94d",
}

// trainingHash returns the first 64 bits, in hex, of the SHA-256 of a
// training's factors, biases and objective trace in math.Float64bits.
func trainingHash(res *Result) string {
	h := sha256.New()
	for _, vs := range [][]float64{res.Model.fu, res.Model.fi, res.Model.bu, res.Model.bi, res.Objective} {
		for _, v := range vs {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// TestTrainedBitsPinned holds what the fused kernels train to the bits they
// trained before the kernels learned to skip a factor's zero coordinates: a
// cold training and a warm retrain from it, on a planted catalogue whose
// factors turn sparse, at one and two workers. The K grid covers a single
// coordinate, the lanes and tail of linalg.Dot, and masks of one and two
// words. The hashes are of the amd64 build, which fuses no multiply-add.
func TestTrainedBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes recorded on amd64")
	}
	p, err := dataset.GeneratePlanted(dataset.PlantedConfig{
		Name: "pinned", Users: 300, Items: 400, Clusters: 6,
		MinClusterUsers: 20, MaxClusterUsers: 50, MinClusterItems: 10, MaxClusterItems: 20,
		WithinProb: 0.4, NoisePositives: 600, PopularitySkew: 1.0,
	}, rng.New(48))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, v := range []struct {
		name           string
		relative, bias bool
	}{{"plain", false, false}, {"relative", true, false}, {"bias", false, true}} {
		for _, k := range []int{1, 5, 16, 64, 65, 100} {
			var hashes [2]string
			for w, workers := range []int{1, 2} {
				cfg := Config{K: k, Lambda: 3, MaxIter: 12, Seed: 48, Relative: v.relative, Bias: v.bias, Workers: workers}
				cold, err := Train(p.R, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.WarmStart, cfg.Seed = cold.Model, 49
				warm, err := Train(p.R, cfg)
				if err != nil {
					t.Fatal(err)
				}
				hashes[w] = trainingHash(cold) + trainingHash(warm)
			}
			if hashes[0] != hashes[1] {
				t.Errorf("%s/K=%d: %s at one worker, %s at two", v.name, k, hashes[0], hashes[1])
			}
			if i := len(got); i < len(pinnedBits) && hashes[0] != pinnedBits[i] {
				t.Errorf("%s/K=%d: trained %s, pinned %s", v.name, k, hashes[0], pinnedBits[i])
			}
			got = append(got, hashes[0])
		}
	}
	if len(got) != len(pinnedBits) {
		t.Errorf("%d cases, %d pinned: %q", len(got), len(pinnedBits), got)
	}
}

// FuzzDotMask holds the support loops' lane dot product to linalg.Dot bit
// for bit, for K from 1 to 130, on rows with zeros where the bytes say:
// dotList over supp(f) must return Dot(f, g) for non-negative factor rows
// f and g, over the bits of g's mask Dot(∇, g) for a signed ∇ (dG's case),
// and over the bits of a's mask Dot(a, g) for a signed a with NaN, ±Inf and
// −0 entries — the non-finite rule's case.
func FuzzDotMask(f *testing.F) {
	for _, k := range []int{1, 3, 4, 5, 16, 63, 64, 65, 67, 100, 128, 130} {
		seed := make([]byte, 1+3*k)
		seed[0] = byte(k - 1)
		for i := range seed[1:] {
			seed[1+i] = byte(i * 37)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k, vals := 1+int(data[0])%130, data[1:]
		// Coordinate c's three bytes pick f_c, g_c and ∇_c: 0 for a third
		// of the bytes, else a value spread over sixty binades, and for ∇
		// negative on odd bytes.
		value := func(i int, signed bool) float64 {
			b := vals[i%len(vals)]
			if b%3 == 0 {
				return 0
			}
			v := math.Ldexp(1+float64(b)/251, int(b%61)-30)
			if signed && b&1 == 1 {
				v = -v
			}
			return v
		}
		fr, g, grad, a := make([]float64, k), make([]float64, k), make([]float64, k), make([]float64, k)
		var list []int
		for c := 0; c < k; c++ {
			fr[c], g[c], grad[c] = value(3*c, false), value(3*c+1, false), value(3*c+2, true)
			if fr[c] != 0 {
				list = append(list, c)
			}
			a[c] = grad[c]
			switch vals[(3*c+2)%len(vals)] % 17 {
			case 1:
				a[c] = math.NaN()
			case 2:
				a[c] = math.Inf(1)
			case 3:
				a[c] = math.Inf(-1)
			case 4:
				a[c] = math.Copysign(0, -1)
			}
		}
		mg, ma := make([]uint64, (k+63)/64), make([]uint64, (k+63)/64)
		setMask(mg, g)
		setMask(ma, a)
		for _, tc := range []struct {
			name      string
			got, want float64
		}{
			{"dotList(f, g, supp f)", dotList(fr, g, list), linalg.Dot(fr, g)},
			{"dotList(∇, g, mask g)", dotList(grad, g, appendBits(nil, mg)), linalg.Dot(grad, g)},
			{"dotList(a, g, mask a)", dotList(a, g, appendBits(nil, ma)), linalg.Dot(a, g)},
		} {
			if math.Float64bits(tc.got) != math.Float64bits(tc.want) && !(math.IsNaN(tc.got) && math.IsNaN(tc.want)) {
				t.Fatalf("K=%d: %s = %v, linalg.Dot %v", k, tc.name, tc.got, tc.want)
			}
		}
	})
}
