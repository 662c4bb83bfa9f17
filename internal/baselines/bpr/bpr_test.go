package bpr

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
		{K: 0},
		{K: 2, LearnRate: -1},
		{K: 2, Lambda: -1},
		{K: 2, Epochs: -1},
	}
	for i, cfg := range bad {
		if _, err := Train(m, cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
}

func TestEmptyMatrixTrains(t *testing.T) {
	m := sparse.NewBuilder(4, 4).Build()
	mod, err := Train(m, Config{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if mod.NumUsers() != 4 || mod.NumItems() != 4 {
		t.Fatal("shape wrong")
	}
}

func TestDeterminism(t *testing.T) {
	d := dataset.SyntheticSmall(1)
	cfg := Config{K: 4, Epochs: 2, Seed: 5}
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

func TestTrainingReducesRankLoss(t *testing.T) {
	d := dataset.SyntheticSmall(2)
	before, err := Train(d.R, Config{K: 8, Epochs: 1, LearnRate: 1e-9, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	after, err := Train(d.R, Config{K: 8, Epochs: 25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lossBefore := before.MeanRankLoss(d.R, 5000, rng.New(7))
	lossAfter := after.MeanRankLoss(d.R, 5000, rng.New(7))
	if lossAfter >= lossBefore {
		t.Fatalf("rank loss did not improve: %v -> %v", lossBefore, lossAfter)
	}
}

func TestRanksPositivesAboveUnknowns(t *testing.T) {
	toy := dataset.PaperToy()
	mod, err := Train(toy.R, Config{K: 4, Epochs: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// For users with positives, the mean score of positives should exceed
	// the mean score of unknowns.
	for u := 0; u < toy.Users(); u++ {
		if toy.R.RowNNZ(u) == 0 {
			continue
		}
		var pos, posN, unk, unkN float64
		for i := 0; i < toy.Items(); i++ {
			if toy.R.Has(u, i) {
				pos += mod.Predict(u, i)
				posN++
			} else {
				unk += mod.Predict(u, i)
				unkN++
			}
		}
		if pos/posN <= unk/unkN {
			t.Errorf("user %d: mean positive score %v <= mean unknown score %v", u, pos/posN, unk/unkN)
		}
	}
}

func TestRecommendationQuality(t *testing.T) {
	d := dataset.SyntheticSmall(3)
	sp := dataset.SplitEntries(d.R, 0.75, rng.New(13))
	mod, err := Train(sp.Train, Config{K: 10, Epochs: 40, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := eval.Evaluate(mod, sp.Train, sp.Test, 20)
	if m.RecallAtM < 0.3 {
		t.Errorf("BPR recall@20 = %v on planted data, want > 0.3", m.RecallAtM)
	}
}

func TestSamplerProducesValidTriples(t *testing.T) {
	d := dataset.SyntheticSmall(4)
	s := newSampler(d.R)
	if s == nil {
		t.Fatal("sampler nil on non-empty data")
	}
	r := rng.New(17)
	for n := 0; n < 2000; n++ {
		u, i, j := s.draw(r)
		if !d.R.Has(u, i) {
			t.Fatalf("triple (%d,%d,%d): i not positive", u, i, j)
		}
		if d.R.Has(u, j) {
			t.Fatalf("triple (%d,%d,%d): j is positive", u, i, j)
		}
	}
}

func TestSamplerNilWhenNoTriples(t *testing.T) {
	// All users bought everything: no (i, j) contrast exists.
	full := sparse.FromDense([][]bool{{true, true}, {true, true}})
	if newSampler(full) != nil {
		t.Fatal("sampler should be nil for full matrix")
	}
	if newSampler(sparse.NewBuilder(3, 3).Build()) != nil {
		t.Fatal("sampler should be nil for empty matrix")
	}
}

func TestScoreUserMatchesPredict(t *testing.T) {
	d := dataset.SyntheticSmall(5)
	mod, _ := Train(d.R, Config{K: 4, Epochs: 2, Seed: 1})
	dst := make([]float64, d.Items())
	mod.ScoreUser(3, dst)
	for i := range dst {
		if dst[i] != mod.Predict(3, i) {
			t.Fatalf("ScoreUser[%d] mismatch", i)
		}
	}
}

func BenchmarkTrainEpoch(b *testing.B) {
	d := dataset.SyntheticSmall(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(d.R, Config{K: 10, Epochs: 1, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// MeanRankLoss estimates the BPR criterion −E ln σ(x_uij) over nSamples
// random triples, for convergence monitoring and tests.
func (m *Model) MeanRankLoss(r *sparse.Matrix, nSamples int, rnd *rng.RNG) float64 {
	s := newSampler(r)
	if s == nil {
		return 0
	}
	total := 0.0
	for n := 0; n < nSamples; n++ {
		u, i, j := s.draw(rnd)
		x := m.Predict(u, i) - m.Predict(u, j)
		total += math.Log1p(math.Exp(-x)) // −ln σ(x)
	}
	return total / float64(nSamples)
}

// Predict returns the ranking score ⟨f_u, f_i⟩.
func (m *Model) Predict(u, i int) float64 {
	return linalg.Dot(m.UserFactor(u), m.ItemFactor(i))
}
