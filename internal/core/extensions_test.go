package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/linalg"
	"repro/internal/rng"
)

// --- Bias extension (Section IV-A) -----------------------------------------

func TestBiasModelTrains(t *testing.T) {
	m := smallMatrix(21, 30, 25, 150)
	res, err := Train(m, Config{K: 4, Lambda: 1, MaxIter: 25, Seed: 1, Bias: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Model.HasBias() {
		t.Fatal("bias flag lost")
	}
	for u := 0; u < 30; u++ {
		if b := res.Model.UserBias(u); b < 0 || math.IsNaN(b) {
			t.Fatalf("user bias %v invalid", b)
		}
	}
	for i := 0; i < 25; i++ {
		if b := res.Model.ItemBias(i); b < 0 || math.IsNaN(b) {
			t.Fatalf("item bias %v invalid", b)
		}
	}
	// Objective must still be monotone with biases in the loop.
	for n := 1; n < len(res.Objective); n++ {
		if res.Objective[n] > res.Objective[n-1]+1e-9*math.Abs(res.Objective[n-1]) {
			t.Fatalf("objective increased at iter %d with biases", n)
		}
	}
}

func TestBiasObjectiveMatchesNaive(t *testing.T) {
	m := smallMatrix(22, 8, 6, 15)
	res, err := Train(m, Config{K: 3, Lambda: 0.5, MaxIter: 4, Seed: 1, Bias: true})
	if err != nil {
		t.Fatal(err)
	}
	mod := res.Model
	lambda := 0.5
	naive := 0.0
	for u := 0; u < m.Rows(); u++ {
		for i := 0; i < m.Cols(); i++ {
			z := linalg.Dot(mod.UserFactor(u), mod.ItemFactor(i)) + mod.UserBias(u) + mod.ItemBias(i)
			if m.Has(u, i) {
				naive -= math.Log(1 - math.Exp(-clampDot(z)))
			} else {
				naive += z
			}
		}
		naive += lambda * (linalg.Norm2Sq(mod.UserFactor(u)) + mod.UserBias(u)*mod.UserBias(u))
	}
	for i := 0; i < m.Cols(); i++ {
		naive += lambda * (linalg.Norm2Sq(mod.ItemFactor(i)) + mod.ItemBias(i)*mod.ItemBias(i))
	}
	got := mod.Objective(m, lambda, false)
	if math.Abs(got-naive) > 1e-8*(1+math.Abs(naive)) {
		t.Fatalf("Objective=%v naive=%v", got, naive)
	}
}

func TestBiasPredictIncludesBiases(t *testing.T) {
	m := smallMatrix(23, 20, 15, 100)
	res, _ := Train(m, Config{K: 3, Lambda: 0.5, MaxIter: 10, Seed: 1, Bias: true})
	mod := res.Model
	u, i := 3, 5
	want := 1 - math.Exp(-(linalg.Dot(mod.UserFactor(u), mod.ItemFactor(i)) + mod.UserBias(u) + mod.ItemBias(i)))
	if got := mod.Predict(u, i); math.Abs(got-want) > 1e-15 {
		t.Fatalf("Predict=%v want %v", got, want)
	}
	dst := make([]float64, 15)
	mod.ScoreUser(u, dst)
	if math.Abs(dst[i]-want) > 1e-15 {
		t.Fatalf("ScoreUser=%v want %v", dst[i], want)
	}
}

func TestBiasAblationComparable(t *testing.T) {
	// The paper reports biases do not improve recommendation performance;
	// at minimum the bias model must stay in the same accuracy ballpark
	// (no catastrophic regression) on planted data.
	d := dataset.SyntheticSmall(24)
	sp := dataset.SplitEntries(d.R, 0.75, rng.New(24))
	plain, _ := Train(sp.Train, Config{K: 8, Lambda: 2, MaxIter: 60, Seed: 1})
	biased, _ := Train(sp.Train, Config{K: 8, Lambda: 2, MaxIter: 60, Seed: 1, Bias: true})
	mp := eval.Evaluate(plain.Model, sp.Train, sp.Test, 20)
	mb := eval.Evaluate(biased.Model, sp.Train, sp.Test, 20)
	if mb.RecallAtM < 0.7*mp.RecallAtM {
		t.Fatalf("bias model recall %v collapsed vs plain %v", mb.RecallAtM, mp.RecallAtM)
	}
	t.Logf("plain recall@20=%.4f, bias recall@20=%.4f (paper: biases don't help)", mp.RecallAtM, mb.RecallAtM)
}

// --- GradSteps ablation ------------------------------------------------------

func TestGradStepsValidation(t *testing.T) {
	m := smallMatrix(25, 5, 5, 10)
	if _, err := Train(m, Config{K: 2, GradSteps: -1}); err == nil {
		t.Fatal("negative GradSteps accepted")
	}
}

func TestGradStepsReachLowerObjectivePerIteration(t *testing.T) {
	// Solving subproblems more exactly must reach an equal or lower
	// objective in the same number of outer iterations (the paper's point
	// is that it is not *time*-efficient, not that it is worse per sweep).
	m := smallMatrix(26, 40, 30, 250)
	one, _ := Train(m, Config{K: 5, Lambda: 1, MaxIter: 5, Tol: 1e-12, Seed: 2, GradSteps: 1})
	five, _ := Train(m, Config{K: 5, Lambda: 1, MaxIter: 5, Tol: 1e-12, Seed: 2, GradSteps: 5})
	qOne := one.Objective[len(one.Objective)-1]
	qFive := five.Objective[len(five.Objective)-1]
	if qFive > qOne+1e-6*math.Abs(qOne) {
		t.Fatalf("GradSteps=5 objective %v worse than single-step %v after equal sweeps", qFive, qOne)
	}
}

func TestGradStepsDefaultIsOne(t *testing.T) {
	cfg := Config{K: 3}.withDefaults()
	if cfg.GradSteps != 1 {
		t.Fatalf("default GradSteps = %d, want 1 (the paper's choice)", cfg.GradSteps)
	}
}

// --- Fold-in ------------------------------------------------------------------

func TestFoldInMatchesTrainedUser(t *testing.T) {
	// Folding in the purchase history of an existing user must score
	// similarly to that user's trained factor: the top recommendations
	// should substantially overlap.
	d := dataset.SyntheticSmall(27)
	res, err := Train(d.R, Config{K: 8, Lambda: 2, MaxIter: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mod := res.Model
	matches := 0
	users := 0
	for u := 0; u < d.Users(); u += 7 {
		row := d.R.Row(u)
		if len(row) < 3 {
			continue
		}
		users++
		items := make([]int, len(row))
		for n, i := range row {
			items[n] = int(i)
		}
		f, bias, err := mod.FoldInUser(items, Config{Lambda: 2, MaxIter: 100, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		orig := make([]float64, d.Items())
		folded := make([]float64, d.Items())
		mod.ScoreUser(u, orig)
		mod.ScoreWithFactor(f, bias, folded)
		if topIndex(orig, d.R, u) == topIndex(folded, d.R, u) {
			matches++
		}
	}
	if users == 0 {
		t.Fatal("no users sampled")
	}
	if matches*2 < users {
		t.Fatalf("fold-in top recommendation matched trained user only %d/%d times", matches, users)
	}
}

func topIndex(scores []float64, r interface{ Has(u, i int) bool }, u int) int {
	best, bestV := -1, math.Inf(-1)
	for i, v := range scores {
		if r.Has(u, i) {
			continue
		}
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// TestFoldInAllocsPerCall: fold-in is a per-request path whose parallelism
// is the server's, so it must not fan out — the default Config (Workers 0,
// every core when training) allocates exactly what the serial one does. The
// catalogue spans several of SumVectors' 256-row blocks and GOMAXPROCS is
// 4, so a fan-out would spawn goroutines on every call. The count is
// testing.AllocsPerRun's without its GOMAXPROCS(1), under which "every
// core" is one and nothing would fan out.
func TestFoldInAllocsPerCall(t *testing.T) {
	withProcs(t, 4)
	res, err := Train(smallMatrix(31, 40, 900, 1500), Config{K: 4, Lambda: 2, MaxIter: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	items := []int{3, 17, 256, 511, 800}
	allocs := func(cfg Config) uint64 {
		const runs = 50
		call := func() {
			if _, _, err := res.Model.FoldInUser(items, cfg); err != nil {
				t.Fatal(err)
			}
		}
		call()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			call()
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs
	}
	if def, serial := allocs(Config{}), allocs(Config{Workers: 1}); def != serial {
		t.Fatalf("FoldInUser allocates %v per call with Workers 0 and %v with Workers 1", def, serial)
	}
}

func TestFoldInValidation(t *testing.T) {
	d := dataset.SyntheticSmall(28)
	res, _ := Train(d.R, Config{K: 4, Lambda: 2, MaxIter: 10, Seed: 1})
	if _, _, err := res.Model.FoldInUser([]int{-1}, Config{}); err == nil {
		t.Error("negative item accepted")
	}
	if _, _, err := res.Model.FoldInUser([]int{d.Items()}, Config{}); err == nil {
		t.Error("out-of-range item accepted")
	}
	if _, _, err := res.Model.FoldInUser([]int{0}, Config{K: res.Model.K() + 1}); err == nil {
		t.Error("mismatched K accepted")
	}
}

func TestFoldInEmptyHistory(t *testing.T) {
	d := dataset.SyntheticSmall(29)
	res, _ := Train(d.R, Config{K: 4, Lambda: 2, MaxIter: 10, Seed: 1})
	f, bias, err := res.Model.FoldInUser(nil, Config{Lambda: 2})
	if err != nil {
		t.Fatal(err)
	}
	// With no positives the subproblem is pure shrinkage: factor -> 0.
	if linalg.Norm2(f) > 1e-3 || bias != 0 {
		t.Fatalf("empty-history factor norm %v bias %v, want ~0", linalg.Norm2(f), bias)
	}
}

func TestFoldInWithBiasModel(t *testing.T) {
	d := dataset.SyntheticSmall(30)
	res, _ := Train(d.R, Config{K: 4, Lambda: 2, MaxIter: 20, Seed: 1, Bias: true})
	row := d.R.Row(1)
	items := make([]int, len(row))
	for n, i := range row {
		items[n] = int(i)
	}
	f, bias, err := res.Model.FoldInUser(items, Config{Lambda: 2, MaxIter: 60, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if bias < 0 || math.IsNaN(bias) {
		t.Fatalf("fold-in bias %v invalid", bias)
	}
	dst := make([]float64, d.Items())
	res.Model.ScoreWithFactor(f, bias, dst)
	for _, v := range dst {
		if v < 0 || v >= 1 || math.IsNaN(v) {
			t.Fatalf("fold-in score %v out of range", v)
		}
	}
}

// --- Serialization ---------------------------------------------------------------

func TestModelRoundTrip(t *testing.T) {
	for _, bias := range []bool{false, true} {
		m := smallMatrix(31, 20, 15, 90)
		res, err := Train(m, Config{K: 5, Lambda: 1, MaxIter: 10, Seed: 7, Bias: bias})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		n, err := res.Model.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
		}
		got, err := ReadModel(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.K() != 5 || got.NumUsers() != 20 || got.NumItems() != 15 || got.HasBias() != bias {
			t.Fatalf("round-trip shape wrong: %v bias=%v", got, got.HasBias())
		}
		for u := 0; u < 20; u++ {
			for i := 0; i < 15; i++ {
				if got.Predict(u, i) != res.Model.Predict(u, i) {
					t.Fatalf("bias=%v: prediction (%d,%d) differs after round trip", bias, u, i)
				}
			}
		}
	}
}

func TestReadModelRejectsCorruption(t *testing.T) {
	m := smallMatrix(32, 10, 8, 40)
	res, _ := Train(m, Config{K: 3, Lambda: 1, MaxIter: 5, Seed: 1})
	var buf bytes.Buffer
	if _, err := res.Model.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":            {},
		"bad magic":        append([]byte("NOTRIGHT"), good[8:]...),
		"truncated header": good[:20],
		"truncated body":   good[:len(good)-9],
		"trailing bytes":   append(append([]byte{}, good...), 0),
	}
	// Negative factor injected into the payload.
	negative := append([]byte{}, good...)
	negative[len(negative)-1] = 0xC0 // flips the last float's sign/exponent
	cases["negative factor"] = negative

	// Implausible K.
	badK := append([]byte{}, good...)
	for i := 8; i < 16; i++ {
		badK[i] = 0xFF
	}
	cases["implausible K"] = badK

	for name, data := range cases {
		if _, err := ReadModel(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
}

func TestReadModelRejectsOversizedHeader(t *testing.T) {
	// K, users, items huge but individually under the dim cap is still
	// caught by the product guard.
	hdr := make([]byte, v2HeaderSize)
	copy(hdr, magicV2)
	for n, v := range []uint64{1 << 20, 1 << 27, 4, 0} {
		binary.LittleEndian.PutUint64(hdr[8+8*n:], v)
	}
	if _, err := ReadModel(bytes.NewReader(hdr)); err == nil || !strings.Contains(err.Error(), "size guard") {
		t.Fatalf("oversized product: got %v, want the size guard's rejection", err)
	}
}

func BenchmarkModelRoundTrip(b *testing.B) {
	d := dataset.SyntheticSmall(1)
	res, _ := Train(d.R, Config{K: 10, Lambda: 2, MaxIter: 5, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := res.Model.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadModel(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGradSteps quantifies the paper's claim that a single
// projected-gradient step per subproblem is faster to equal quality than
// more exact solves: compare ns/op at equal outer-iteration budgets.
func BenchmarkAblationGradSteps(b *testing.B) {
	d := dataset.SyntheticSmall(2)
	for _, steps := range []int{1, 3, 10} {
		b.Run(map[int]string{1: "steps=1", 3: "steps=3", 10: "steps=10"}[steps], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Train(d.R, Config{K: 8, Lambda: 2, MaxIter: 10, Tol: 1e-12, Seed: 1, GradSteps: steps}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBias measures the training overhead of the Section IV-A
// bias extension the paper chose to disable.
func BenchmarkAblationBias(b *testing.B) {
	d := dataset.SyntheticSmall(3)
	for _, bias := range []bool{false, true} {
		name := "plain"
		if bias {
			name = "bias"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Train(d.R, Config{K: 8, Lambda: 2, MaxIter: 10, Tol: 1e-12, Seed: 1, Bias: bias}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Warm start --------------------------------------------------------------

func TestWarmStartConvergesFaster(t *testing.T) {
	d := dataset.SyntheticSmall(33)
	cold, err := Train(d.R, Config{K: 6, Lambda: 2, MaxIter: 200, Tol: 1e-5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Train(d.R, Config{K: 6, Lambda: 2, MaxIter: 200, Tol: 1e-5, Seed: 99, WarmStart: cold.Model})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations() > cold.Iterations()/2+1 {
		t.Fatalf("warm start took %d iterations vs cold %d", warm.Iterations(), cold.Iterations())
	}
	// Warm restart on the SAME data must not worsen the objective.
	qCold := cold.Objective[len(cold.Objective)-1]
	qWarm := warm.Objective[len(warm.Objective)-1]
	if qWarm > qCold+1e-6*math.Abs(qCold) {
		t.Fatalf("warm objective %v worse than cold %v", qWarm, qCold)
	}
}

func TestWarmStartWithNewData(t *testing.T) {
	// The deployment flow: train on the old matrix, new purchases arrive,
	// retrain warm on the union.
	d := dataset.SyntheticSmall(34)
	sp := dataset.SplitEntries(d.R, 0.8, rng.New(34))
	oldRes, err := Train(sp.Train, Config{K: 6, Lambda: 2, MaxIter: 100, Tol: 1e-5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Train(d.R, Config{K: 6, Lambda: 2, MaxIter: 100, Tol: 1e-5, Seed: 1, WarmStart: oldRes.Model})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Train(d.R, Config{K: 6, Lambda: 2, MaxIter: 100, Tol: 1e-5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Iterations() >= cold.Iterations() {
		t.Logf("warm %d vs cold %d iterations (warm not faster on this draw)", warm.Iterations(), cold.Iterations())
	}
	qWarm := warm.Objective[len(warm.Objective)-1]
	qCold := cold.Objective[len(cold.Objective)-1]
	if qWarm > qCold*1.02+1 {
		t.Fatalf("warm-start final objective %v much worse than cold %v", qWarm, qCold)
	}
}

func TestWarmStartValidation(t *testing.T) {
	d := dataset.SyntheticSmall(35)
	res, _ := Train(d.R, Config{K: 4, Lambda: 2, MaxIter: 5, Seed: 1})
	if _, err := Train(d.R, Config{K: 5, WarmStart: res.Model}); err == nil {
		t.Error("K mismatch accepted")
	}
	other := smallMatrix(35, 7, 7, 20)
	if _, err := Train(other, Config{K: 4, WarmStart: res.Model}); err == nil {
		t.Error("shape mismatch accepted")
	}
	if _, err := Train(d.R, Config{K: 4, Bias: true, WarmStart: res.Model}); err == nil {
		t.Error("bias-less warm start accepted for bias config")
	}
}
