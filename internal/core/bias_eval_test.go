package core_test

// An external test package: eval ranks through internal/rank, which
// imports core, so no test inside package core can import eval.

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/rng"
)

func TestBiasAblationComparable(t *testing.T) {
	// The paper reports biases do not improve recommendation performance;
	// at minimum the bias model must stay in the same accuracy ballpark
	// (no catastrophic regression) on planted data.
	d := dataset.SyntheticSmall(24)
	sp := dataset.SplitEntries(d.R, 0.75, rng.New(24))
	plain, _ := core.Train(sp.Train, core.Config{K: 8, Lambda: 2, MaxIter: 60, Seed: 1})
	biased, _ := core.Train(sp.Train, core.Config{K: 8, Lambda: 2, MaxIter: 60, Seed: 1, Bias: true})
	mp := eval.Evaluate(plain.Model, sp.Train, sp.Test, 20)
	mb := eval.Evaluate(biased.Model, sp.Train, sp.Test, 20)
	if mb.RecallAtM < 0.7*mp.RecallAtM {
		t.Fatalf("bias model recall %v collapsed vs plain %v", mb.RecallAtM, mp.RecallAtM)
	}
	t.Logf("plain recall@20=%.4f, bias recall@20=%.4f (paper: biases don't help)", mp.RecallAtM, mb.RecallAtM)
}
