package core

import (
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/rng"
)

// FoldInUser computes an affiliation vector (and bias, for bias-enabled
// models) for a user unseen at training time, given the items the user has
// interacted with. It solves the single-user subproblem of Section IV-D to
// convergence against the fixed item factors — the warm-path answer to the
// B2B deployment need of onboarding a new client without retraining.
//
// cfg supplies the solver settings and the regularization weight; K is
// taken from the model (a mismatching cfg.K is rejected). items may be in
// any order; duplicates are ignored. The returned factor can be passed to
// Model.ScoreWithFactor.
func (m *Model) FoldInUser(items []int, cfg Config) (factor []float64, bias float64, err error) {
	if cfg.K == 0 {
		cfg.K = m.k
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, 0, err
	}
	if cfg.K != m.k {
		return nil, 0, fmt.Errorf("core: fold-in K=%d does not match model K=%d", cfg.K, m.k)
	}
	seen := make(map[int]bool, len(items))
	pos := make([]int32, 0, len(items))
	for _, i := range items {
		if i < 0 || i >= m.items {
			return nil, 0, fmt.Errorf("core: fold-in item %d out of range (%d items)", i, m.items)
		}
		if !seen[i] {
			seen[i] = true
			pos = append(pos, int32(i))
		}
	}

	// One worker: the server's concurrency is this path's parallelism, and a
	// per-request fan-out over the catalogue would spawn goroutines on every
	// call. The fixed-block sum gives the same bits for any count.
	t := &trainer{cfg: cfg, m: m, sum: make([]float64, m.k)}
	parallel.SumVectors(t.sum, m.fi, m.k, 1)

	f := make([]float64, m.k)
	rnd := rng.New(cfg.Seed)
	scale := initScale(cfg.K)
	for c := range f {
		f[c] = rnd.Float64() * scale
	}
	w := 1.0
	if cfg.Relative && len(pos) > 0 {
		w = float64(m.items-len(pos)) / float64(len(pos))
	}
	// The subproblem reads only its positives' item rows: copied in order,
	// they are the fixed block whose masks the kernels walk, so a request
	// pays no mask pass over the catalogue.
	side := &sideCtx{pos: make([]int32, len(pos)), others: make([]float64, 0, len(pos)*m.k), wScalar: w}
	for j, i := range pos {
		side.pos[j] = int32(j)
		side.others = append(side.others, m.fi[int(i)*m.k:(int(i)+1)*m.k]...)
		if m.bu != nil {
			side.otherBias = append(side.otherBias, m.bi[i])
		}
	}
	side.masks = rowMasks(side.others, m.k)
	nZeros := float64(m.items - len(pos))
	scratch := &parallel.Scratch{}

	total := func() float64 {
		q := t.partialObjective(f, side)
		if m.bu != nil {
			q += bias*nZeros + cfg.Lambda*bias*bias
		}
		return q
	}
	prev := total()
	for it := 0; it < cfg.MaxIter; it++ {
		side.selfBias = bias
		// updateFactor returns the subproblem objective at the factor it
		// leaves behind — the convergence value for bias-free models. With
		// biases the subsequent 1-D step moves b after that partial was
		// computed, so the objective is re-evaluated at the final (f, b).
		q := t.updateFactor(f, side, scratch)
		if m.bu != nil {
			bias = t.updateBias(bias, f, side, nZeros, scratch)
			q = total()
		}
		if prev-q <= cfg.Tol*math.Abs(prev) {
			break
		}
		prev = q
	}
	return f, bias, nil
}
