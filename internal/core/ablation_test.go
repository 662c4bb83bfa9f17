package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// naiveGradient computes eq. (6) without the sum trick, enumerating the
// unknowns explicitly at O(n_u·K) per item. It exists only as the ablation
// reference for the paper's complexity claim.
func naiveGradient(t *trainer, grad, f []float64, item int) {
	k := t.cfg.K
	for c := 0; c < k; c++ {
		grad[c] = 2 * t.cfg.Lambda * f[c]
	}
	posSet := make(map[int32]bool)
	for _, u := range t.rt.Row(item) {
		posSet[u] = true
	}
	for u := 0; u < t.m.users; u++ {
		g := t.m.fu[u*k : (u+1)*k]
		if posSet[int32(u)] {
			d := clampDot(linalg.Dot(f, g))
			e := math.Exp(-d)
			coef := e / (1 - e)
			for c := 0; c < k; c++ {
				grad[c] -= coef * g[c]
			}
		} else {
			for c := 0; c < k; c++ {
				grad[c] += g[c]
			}
		}
	}
}

// TestSumTrickMatchesNaiveGradient verifies that the O(deg·K) sum-trick
// gradient equals the O(n_u·K) naive enumeration, the correctness half of
// the paper's Section IV-D complexity argument.
func TestSumTrickMatchesNaiveGradient(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed) + 71)
		m := smallMatrix(uint64(seed)+71, 8+r.Intn(20), 6+r.Intn(15), 60)
		cfg := Config{K: 1 + r.Intn(5), Lambda: r.Float64() * 2, Seed: uint64(seed)}.withDefaults()
		tr := newTrainer(m, cfg)
		parallel.SumVectors(tr.sum, tr.m.fu, cfg.K, 1)

		item := r.Intn(m.Cols())
		fi := append([]float64(nil), tr.m.fi[item*cfg.K:(item+1)*cfg.K]...)
		for c := range fi {
			fi[c] += 0.1 // keep away from the clamp kink
		}
		fast := make([]float64, cfg.K)
		slow := make([]float64, cfg.K)
		tr.gradient(fast, fi, &sideCtx{pos: tr.rt.Row(item), others: tr.m.fu, wScalar: 1})
		naiveGradient(tr, slow, fi, item)
		for c := range fast {
			if math.Abs(fast[c]-slow[c]) > 1e-9*(1+math.Abs(slow[c])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSingleUpdateNeverIncreasesPartialObjective: the Armijo-guarded step
// is a descent step on every subproblem, for all weight/bias variants.
func TestSingleUpdateNeverIncreasesPartialObjective(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed) + 91)
		m := smallMatrix(uint64(seed)+91, 10+r.Intn(20), 8+r.Intn(15), 80)
		cfg := Config{
			K: 1 + r.Intn(6), Lambda: r.Float64() * 3,
			Relative: r.Bernoulli(0.5), Seed: uint64(seed),
		}.withDefaults()
		tr := newTrainer(m, cfg)
		parallel.SumVectors(tr.sum, tr.m.fu, cfg.K, 1)

		item := r.Intn(m.Cols())
		fi := tr.m.fi[item*cfg.K : (item+1)*cfg.K]
		side := &sideCtx{pos: tr.rt.Row(item), others: tr.m.fu, masks: tr.uMasks, wTable: tr.weights, wScalar: 1}
		before := tr.partialObjective(fi, side)
		tr.updateFactor(fi, side, &parallel.Scratch{})
		after := tr.partialObjective(fi, side)
		return after <= before+1e-9*math.Abs(before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAblationSumTrick quantifies the speedup of the precomputed-sum
// gradient over naive enumeration — the mechanism behind Fig 7's linear
// scaling. Compare ns/op of the two sub-benchmarks.
func BenchmarkAblationSumTrick(b *testing.B) {
	d := dataset.SyntheticSmall(5)
	cfg := Config{K: 10, Lambda: 2, Seed: 1}.withDefaults()
	tr := newTrainer(d.R, cfg)
	parallel.SumVectors(tr.sum, tr.m.fu, cfg.K, 1)
	grad := make([]float64, cfg.K)

	b.Run("sum-trick", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			item := i % d.Items()
			fi := tr.m.fi[item*cfg.K : (item+1)*cfg.K]
			tr.gradient(grad, fi, &sideCtx{pos: tr.rt.Row(item), others: tr.m.fu, wScalar: 1})
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			item := i % d.Items()
			fi := tr.m.fi[item*cfg.K : (item+1)*cfg.K]
			naiveGradient(tr, grad, fi, item)
		}
	})
}
