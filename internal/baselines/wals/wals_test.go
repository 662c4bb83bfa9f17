package wals

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/linalg"
	"repro/internal/rng"
	"repro/internal/sparse"
)

func TestValidation(t *testing.T) {
	m := sparse.NewBuilder(3, 3).Build()
	bad := []Config{
		{K: 0, B: 0.01},
		{K: 2, B: 0},
		{K: 2, B: 1.5},
		{K: 2, B: 0.01, Lambda: -1},
		{K: 2, B: 0.01, Iters: -3},
	}
	for i, cfg := range bad {
		if _, err := Train(m, cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
}

func TestLossDecreasesMonotonically(t *testing.T) {
	// Exact block minimization must not increase the weighted loss.
	r := rng.New(1)
	b := sparse.NewBuilder(25, 20)
	for n := 0; n < 120; n++ {
		b.Add(r.Intn(25), r.Intn(20))
	}
	m := b.Build()
	cfg := Config{K: 4, B: 0.05, Lambda: 0.05, Seed: 3}
	prev := math.Inf(1)
	for iters := 1; iters <= 6; iters++ {
		cfg.Iters = iters
		mod, err := Train(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		loss := mod.Loss(m, cfg.B, cfg.Lambda)
		if loss > prev+1e-9*math.Abs(prev) {
			t.Fatalf("loss increased from %v to %v at %d iters", prev, loss, iters)
		}
		prev = loss
	}
}

func TestHalfStepSolvesExactly(t *testing.T) {
	// After a user half-step, each user row must satisfy its normal
	// equations: (b·G + (1−b)Σ g gᵀ + λI) f = Σ g.
	r := rng.New(2)
	b := sparse.NewBuilder(10, 8)
	for n := 0; n < 40; n++ {
		b.Add(r.Intn(10), r.Intn(8))
	}
	m := b.Build()
	cfg := Config{K: 3, B: 0.1, Lambda: 0.2, Iters: 1, Seed: 5}.withDefaults()
	mod, err := Train(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := cfg.K
	// Re-build the system for user 0 against the final item factors (the
	// user half-step runs first in each sweep, so verify the item side,
	// which ran last).
	rt := m.Transpose()
	gram := linalg.NewMat(k, k)
	for u := 0; u < m.Rows(); u++ {
		linalg.SymRankKUpdate(gram, mod.UserFactor(u))
	}
	for i := 0; i < m.Cols(); i++ {
		a := linalg.NewMat(k, k)
		for n := 0; n < k*k; n++ {
			a.Data[n] = cfg.B * gram.Data[n]
		}
		rhs := make([]float64, k)
		for _, uc := range rt.Row(i) {
			g := mod.UserFactor(int(uc))
			for ii := 0; ii < k; ii++ {
				for jj := 0; jj < k; jj++ {
					a.Data[ii*k+jj] += (1 - cfg.B) * g[ii] * g[jj]
				}
			}
			linalg.Axpy(1, g, rhs)
		}
		linalg.AddDiag(a, cfg.Lambda)
		lhs := make([]float64, k)
		linalg.MatVec(lhs, a, mod.ItemFactor(i))
		if linalg.MaxAbsDiff(lhs, rhs) > 1e-8 {
			t.Fatalf("item %d: normal equations violated by %v", i, linalg.MaxAbsDiff(lhs, rhs))
		}
	}
}

func TestDeterminism(t *testing.T) {
	d := dataset.SyntheticSmall(4)
	cfg := Config{K: 5, B: 0.01, Lambda: 0.01, Iters: 3, Seed: 9}
	a, err := Train(d.R, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Train(d.R, cfg)
	for i := range a.fu {
		if a.fu[i] != b.fu[i] {
			t.Fatal("same seed produced different factors")
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	d := dataset.SyntheticSmall(5)
	cfg := Config{K: 5, B: 0.01, Lambda: 0.01, Iters: 3, Seed: 9}
	s, _ := Train(d.R, cfg)
	cfg.Workers = 4
	p, _ := Train(d.R, cfg)
	for i := range s.fu {
		if s.fu[i] != p.fu[i] {
			t.Fatal("parallel factors differ from serial")
		}
	}
	for i := range s.fi {
		if s.fi[i] != p.fi[i] {
			t.Fatal("parallel item factors differ from serial")
		}
	}
}

func TestScoreUserMatchesPredict(t *testing.T) {
	d := dataset.SyntheticSmall(6)
	mod, _ := Train(d.R, Config{K: 4, B: 0.02, Lambda: 0.05, Iters: 3, Seed: 1})
	dst := make([]float64, d.Items())
	mod.ScoreUser(7, dst)
	for i := range dst {
		if dst[i] != mod.Predict(7, i) {
			t.Fatalf("ScoreUser[%d] = %v, Predict = %v", i, dst[i], mod.Predict(7, i))
		}
	}
}

func TestRecommendationQuality(t *testing.T) {
	d := dataset.SyntheticSmall(7)
	sp := dataset.SplitEntries(d.R, 0.75, rng.New(11))
	mod, err := Train(sp.Train, Config{K: 10, B: 0.01, Lambda: 0.01, Iters: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := eval.Evaluate(mod, sp.Train, sp.Test, 20)
	if m.RecallAtM < 0.4 {
		t.Errorf("wALS recall@20 = %v on planted data, want > 0.4", m.RecallAtM)
	}
}

func TestFitsPositivesAboveUnknowns(t *testing.T) {
	toy := dataset.PaperToy()
	mod, err := Train(toy.R, Config{K: 3, B: 0.01, Lambda: 0.01, Iters: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var posSum, posN, unkSum, unkN float64
	for u := 0; u < toy.Users(); u++ {
		for i := 0; i < toy.Items(); i++ {
			if toy.R.Has(u, i) {
				posSum += mod.Predict(u, i)
				posN++
			} else {
				unkSum += mod.Predict(u, i)
				unkN++
			}
		}
	}
	if posSum/posN < 3*(unkSum/unkN) {
		t.Errorf("mean positive score %v not well above mean unknown score %v", posSum/posN, unkSum/unkN)
	}
}

func BenchmarkTrainIteration(b *testing.B) {
	d := dataset.SyntheticSmall(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(d.R, Config{K: 10, B: 0.01, Lambda: 0.01, Iters: 1, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// Loss evaluates the weighted squared objective on r, for convergence tests
// and the ablation benchmarks. Cost is O(n_u·n_i·K); use on small inputs.
func (m *Model) Loss(r *sparse.Matrix, b, lambda float64) float64 {
	loss := 0.0
	for u := 0; u < m.users; u++ {
		for i := 0; i < m.items; i++ {
			d := m.Predict(u, i)
			if r.Has(u, i) {
				loss += (1 - d) * (1 - d)
			} else {
				loss += b * d * d
			}
		}
	}
	return loss + lambda*(linalg.Norm2Sq(m.fu)+linalg.Norm2Sq(m.fi))
}

// Predict returns the reconstructed affinity ⟨f_u, f_i⟩.
func (m *Model) Predict(u, i int) float64 {
	return linalg.Dot(m.UserFactor(u), m.ItemFactor(i))
}
