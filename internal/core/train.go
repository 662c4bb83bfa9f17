package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/linalg"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// The Armijo line search of Section IV-D: a step of length α is accepted
// once it decreases Q by at least σ times the directional derivative, and
// α halves (β = ½) at most maxBacktrack times from 1, down to 2⁻²⁹.
const (
	sigma        = 0.1
	beta         = 0.5
	maxBacktrack = 30
)

// initScale is the upper bound of the uniform factor initialization,
// √(1/K), which makes initial affinities O(1).
func initScale(k int) float64 { return math.Sqrt(1 / float64(k)) }

// Config holds OCuLaR hyper-parameters and solver settings. The two model
// hyper-parameters of the paper are K and Lambda; everything else is solver
// machinery with defaults matching Section IV-D.
type Config struct {
	// K is the number of co-clusters. Required, K >= 1.
	K int
	// Lambda is the ℓ2 regularization weight λ >= 0 of eq. (4).
	Lambda float64
	// Relative selects the R-OCuLaR objective of Section V, which weights
	// each user's positive log-likelihood terms by
	// w_u = |{i: r_ui=0}| / |{i: r_ui=1}|.
	Relative bool
	// Bias enables the extended model of Section IV-A:
	// P[r_ui = 1] = 1 − exp(−⟨f_u,f_i⟩ − b_u − b_i), with non-negative
	// learned user and item biases (a learned overall bias b is redundant —
	// the per-user biases absorb it). The paper found biases do not improve
	// accuracy on its datasets and disabled them; the option exists to
	// reproduce that ablation.
	Bias bool
	// GradSteps is the number of projected-gradient steps per factor per
	// sweep. The paper argues a single step ("performing only one gradient
	// descent step significantly speeds up the algorithm"); larger values
	// approximate exact subproblem solves for the ablation benchmarks.
	// Default 1.
	GradSteps int

	// MaxIter bounds the number of outer iterations (one item sweep plus
	// one user sweep each). Default 150.
	MaxIter int
	// Tol declares convergence when the objective decreases by less than
	// Tol·|Q| between outer iterations ("convergence is declared if Q stops
	// decreasing"). Default 1e-4.
	Tol float64
	// Seed seeds factor initialization.
	Seed uint64
	// Workers sets the number of parallel workers for the factor-update
	// kernels: 0 = every core (parallel.DefaultWorkers, the default),
	// 1 = serial. Factor updates within a block are independent and every
	// cross-row reduction uses a fixed-block deterministic tree, so every
	// worker count produces the same model bit for bit. FoldInUser, a
	// per-request path, always solves with 1.
	Workers int
	// reference selects the unfused kernels (updateFactorRef) that
	// kernels_test.go holds the fused ones to: same quantities, sums in a
	// different order, so objective traces agree within 1e-9 relative, not
	// bitwise. Only tests in this package can set it.
	reference bool
	// exhaustive switches the fused line search's certificates (kernels.go)
	// off, so every candidate is evaluated in full; audit, when set, is
	// told of the line search's work (auditEvent) with the row's count of
	// positives, which is what pass 2 costs in exponentials, and of every
	// candidate a certificate rejected whether that full evaluation would
	// have passed the Armijo test (never, if they are sound). Setting it
	// changes no decision. Only tests in this package can set them.
	exhaustive bool
	audit      func(ev auditEvent, positives int, acceptable bool)
	// OnIteration, when non-nil, is called after every outer iteration with
	// the iteration index (from 0) and the objective value — progress
	// reporting for long trainings and the hook behind cmd/ocular -v.
	OnIteration func(iter int, objective float64)
	// WarmStart, when non-nil, initializes the factors (and biases) from an
	// existing model instead of random values — the deployment path for
	// periodic retraining as new purchases arrive. The model's K and shape
	// must match the configuration and matrix; Train errors otherwise.
	// Seed is ignored for the copied parameters.
	WarmStart *Model
}

func (c Config) withDefaults() Config {
	if c.MaxIter == 0 {
		c.MaxIter = 150
	}
	if c.Tol == 0 {
		c.Tol = 1e-4
	}
	if c.GradSteps == 0 {
		c.GradSteps = 1
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.K < 1:
		return fmt.Errorf("core: K must be >= 1, got %d", c.K)
	case c.Lambda < 0:
		return fmt.Errorf("core: Lambda must be >= 0, got %v", c.Lambda)
	case c.MaxIter < 1:
		return fmt.Errorf("core: MaxIter must be >= 1, got %d", c.MaxIter)
	case c.GradSteps < 1:
		return fmt.Errorf("core: GradSteps must be >= 1, got %d", c.GradSteps)
	}
	return nil
}

// Result bundles a trained model with its convergence trace, which the
// scalability (Fig 7) and engine-comparison (Fig 8) experiments consume.
type Result struct {
	Model *Model
	// Objective holds Q after every outer iteration, starting with the
	// value at initialization; it is non-increasing by the line-search
	// descent guarantee.
	Objective []float64
	// IterTime holds the wall-clock duration of each outer iteration,
	// excluding any separate objective evaluation used for the convergence
	// check. (On the default fused path there is none — the objective is
	// assembled from the sweep's own line-search partials at O(users) cost,
	// which is included.)
	IterTime []time.Duration
	// Converged reports whether the tolerance was reached before MaxIter.
	Converged bool
}

// Iterations returns the number of outer iterations performed.
func (r *Result) Iterations() int { return len(r.IterTime) }

// Train fits an OCuLaR (or R-OCuLaR) model to the positive examples in r.
func Train(r *sparse.Matrix, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if w := cfg.WarmStart; w != nil {
		switch {
		case w.k != cfg.K:
			return nil, fmt.Errorf("core: warm start K=%d does not match config K=%d", w.k, cfg.K)
		case w.users != r.Rows() || w.items != r.Cols():
			return nil, fmt.Errorf("core: warm start shape %dx%d does not match matrix %dx%d",
				w.users, w.items, r.Rows(), r.Cols())
		case cfg.Bias && !w.HasBias():
			return nil, fmt.Errorf("core: warm start lacks bias terms required by config")
		}
	}
	return newTrainer(r, cfg).run(), nil
}

// trainer carries the state of one Train call.
type trainer struct {
	cfg     Config
	r       *sparse.Matrix // users x items
	rt      *sparse.Matrix // items x users (transpose view)
	m       *Model
	weights []float64 // R-OCuLaR w_u indexed by user, nil for plain OCuLaR
	sum     []float64 // Σ of the fixed block's factors (sum trick)
	// uMasks and iMasks hold each factor row's nonzero-coordinate mask,
	// ⌈K/64⌉ words a row (kernels.go point 6): set here, and rewritten by
	// the sweeps after each row's update, so the other half-sweep finds its
	// fixed block's masks current without a pass over the block.
	uMasks, iMasks []uint64
	// qRow collects the per-user partial objectives emitted by the user
	// sweep's line search; non-nil only when the fused path assembles the
	// convergence objective from them (see traceObjective).
	qRow []float64
}

func newTrainer(r *sparse.Matrix, cfg Config) *trainer {
	m := &Model{
		k:     cfg.K,
		users: r.Rows(),
		items: r.Cols(),
		fu:    make([]float64, r.Rows()*cfg.K),
		fi:    make([]float64, r.Cols()*cfg.K),
	}
	if w := cfg.WarmStart; w != nil {
		copy(m.fu, w.fu)
		copy(m.fi, w.fi)
		// Revive exactly-zero coordinates with a small jitter: under the
		// non-negativity projection a coordinate at 0 on both sides of a
		// pair has zero gradient pull and would stay dead forever, so a
		// warm start could never grow a co-cluster the old model had
		// pruned. The jitter is two orders below the cold-start scale, so
		// convergence speed is preserved.
		rnd := rng.New(cfg.Seed ^ 0xd1f7)
		jitter := 0.01 * initScale(cfg.K)
		for _, arr := range [][]float64{m.fu, m.fi} {
			for i, v := range arr {
				if v == 0 {
					arr[i] = rnd.Float64() * jitter
				}
			}
		}
	} else {
		rnd, scale := rng.New(cfg.Seed), initScale(cfg.K)
		for i := range m.fu {
			m.fu[i] = rnd.Float64() * scale
		}
		for i := range m.fi {
			m.fi[i] = rnd.Float64() * scale
		}
	}
	if cfg.Bias {
		m.bu = make([]float64, r.Rows())
		m.bi = make([]float64, r.Cols())
		if w := cfg.WarmStart; w != nil && w.HasBias() {
			copy(m.bu, w.bu)
			copy(m.bi, w.bi)
		}
		// Without a warm start, biases begin at zero: the pure co-cluster
		// model, with biases only growing where factors cannot explain the
		// data.
	}
	return &trainer{
		cfg:     cfg,
		r:       r,
		rt:      r.Transpose(),
		m:       m,
		weights: userWeights(r, cfg.Relative),
		sum:     make([]float64, cfg.K),
		uMasks:  rowMasks(m.fu, cfg.K),
		iMasks:  rowMasks(m.fi, cfg.K),
	}
}

func (t *trainer) run() *Result {
	res := &Result{Model: t.m}
	q := t.objective()
	res.Objective = append(res.Objective, q)
	// The fused kernels hand back each user subproblem's line-search
	// objective, from which the full Q is assembled for free. The bias
	// extension moves the biases after those partials are computed, so
	// bias runs (like the reference path) pay the explicit objective pass.
	fusedTrace := !t.cfg.reference && !t.cfg.Bias
	if fusedTrace {
		t.qRow = make([]float64, t.m.users)
	}
	for iter := 0; iter < t.cfg.MaxIter; iter++ {
		start := time.Now()
		t.sweepItems()
		t.sweepUsers()
		var qNew float64
		if fusedTrace {
			qNew = t.traceObjective()
			res.IterTime = append(res.IterTime, time.Since(start))
		} else {
			res.IterTime = append(res.IterTime, time.Since(start))
			qNew = t.objective()
		}
		res.Objective = append(res.Objective, qNew)
		if t.cfg.OnIteration != nil {
			t.cfg.OnIteration(iter, qNew)
		}
		converged := q-qNew <= t.cfg.Tol*math.Abs(q)
		q = qNew
		if converged {
			res.Converged = true
			break
		}
	}
	return res
}

// traceObjective assembles the eq. (4) objective of the just-finished outer
// iteration from the user sweep's per-row line-search partials:
// Q = Σ_u q_u + λ‖f_i‖² (the identity documented in kernels.go). Cost is
// O(users + items·K) — no pass over the positives and no exponentials —
// versus the O(nnz·K) ObjectiveWeighted evaluation it replaces. The block
// reduction is the same fixed-width deterministic tree, so the trace stays
// bit-identical across worker counts.
func (t *trainer) traceObjective() float64 {
	q := parallel.ReduceSum(t.m.users, t.cfg.Workers, func(lo, hi int) float64 {
		var s float64
		for u := lo; u < hi; u++ {
			s += t.qRow[u]
		}
		return s
	})
	return q + t.cfg.Lambda*linalg.Norm2Sq(t.m.fi)
}

// objective evaluates the convergence-check objective, threading the
// trainer's cached R-OCuLaR weight table and worker pool through so the
// per-iteration pass neither re-derives the weights nor runs serially.
func (t *trainer) objective() float64 {
	return t.m.ObjectiveWeighted(t.r, t.cfg.Lambda, t.weights, t.cfg.Workers)
}

// sweepItems updates every item factor by one projected gradient step,
// holding user factors fixed. Items are independent given Σ_u f_u, so the
// sweep parallelizes across items; this mirrors the structure of the
// paper's GPU kernels (Section VI, Fig 4), where the precomputed constant
// C = Σ_u f_u plays the same role.
//
// For item updates, the R-OCuLaR weight of a positive pair depends on which
// user it involves, so the per-user weight table is passed through.
func (t *trainer) sweepItems() {
	parallel.SumVectors(t.sum, t.m.fu, t.cfg.K, t.cfg.Workers)
	k, nw := t.cfg.K, (t.cfg.K+63)>>6
	parallel.For(t.m.items, t.cfg.Workers, func(i int, scratch *parallel.Scratch) {
		side := &sideCtx{
			pos: t.rt.Row(i), others: t.m.fu, masks: t.uMasks,
			wTable: t.weights, wScalar: 1,
		}
		if t.cfg.Bias {
			side.selfBias, side.otherBias = t.m.bi[i], t.m.bu
		}
		t.updateFactor(t.m.fi[i*k:(i+1)*k], side, scratch)
		setMask(t.iMasks[i*nw:(i+1)*nw], t.m.fi[i*k:(i+1)*k])
		if t.cfg.Bias {
			// Then the 1-D bias step against the just-updated factor. The
			// count of unknowns in this column is n_u − deg(i).
			t.m.bi[i] = t.updateBias(t.m.bi[i], t.m.fi[i*k:(i+1)*k], side,
				float64(t.m.users-len(side.pos)), scratch)
		}
	})
}

// sweepUsers is the symmetric sweep over user factors. For a fixed user u,
// every positive pair shares the same weight w_u, passed as the scalar.
func (t *trainer) sweepUsers() {
	parallel.SumVectors(t.sum, t.m.fi, t.cfg.K, t.cfg.Workers)
	k, nw := t.cfg.K, (t.cfg.K+63)>>6
	parallel.For(t.m.users, t.cfg.Workers, func(u int, scratch *parallel.Scratch) {
		w := 1.0
		if t.weights != nil {
			w = t.weights[u]
		}
		side := &sideCtx{pos: t.r.Row(u), others: t.m.fi, masks: t.iMasks, wScalar: w}
		if t.cfg.Bias {
			side.selfBias, side.otherBias = t.m.bu[u], t.m.bi
		}
		qu := t.updateFactor(t.m.fu[u*k:(u+1)*k], side, scratch)
		setMask(t.uMasks[u*nw:(u+1)*nw], t.m.fu[u*k:(u+1)*k])
		if t.qRow != nil {
			t.qRow[u] = qu
		}
		if t.cfg.Bias {
			t.m.bu[u] = t.updateBias(t.m.bu[u], t.m.fu[u*k:(u+1)*k], side,
				float64(t.m.items-len(side.pos)), scratch)
		}
	})
}

// rowMasks returns the nonzero-coordinate masks of rows, ⌈k/64⌉ words for
// each k-wide row.
func rowMasks(rows []float64, k int) []uint64 {
	nw := (k + 63) >> 6
	masks := make([]uint64, len(rows)/k*nw)
	for r := range len(rows) / k {
		setMask(masks[r*nw:(r+1)*nw], rows[r*k:(r+1)*k])
	}
	return masks
}

// sideCtx carries the fixed-side context of one factor update: the indices
// of the positive counterparts, the fixed block's factor array and masks,
// the R-OCuLaR weights (a per-counterpart table for item sweeps, a scalar
// for user sweeps), and the bias terms when the Section IV-A extension is
// on. The kernels take it by pointer.
type sideCtx struct {
	pos       []int32
	others    []float64
	masks     []uint64  // ⌈K/64⌉ words per row of others
	wTable    []float64 // indexed by counterpart id; nil -> use wScalar
	wScalar   float64
	selfBias  float64   // this row's own bias (constant during factor step)
	otherBias []float64 // counterpart biases, nil when biases are off
}

func (s *sideCtx) weight(idx int32) float64 {
	if s.wTable != nil {
		return s.wTable[idx]
	}
	return s.wScalar
}

func (s *sideCtx) bias(idx int32) float64 {
	if s.otherBias == nil {
		return 0
	}
	return s.selfBias + s.otherBias[idx]
}

// updateFactor performs the projected-gradient-with-backtracking update of
// Section IV-D on factor f (length K); GradSteps > 1 repeats the step to
// approximate an exact subproblem solve. It dispatches to the fused
// one-pass kernels (kernels.go) unless a test asked for the unfused
// reference implementation below. Both return the partial objective
// (eq. 5) at the factor left in f.
func (t *trainer) updateFactor(f []float64, side *sideCtx, scratch *parallel.Scratch) float64 {
	if t.cfg.reference {
		return t.updateFactorRef(f, side, scratch)
	}
	return t.updateFactorFused(f, side, scratch)
}

// updateFactorRef is the reference implementation: partialObjective and
// gradient each walk the positives list, and every backtracking candidate
// is re-evaluated in full O(|pos|·K).
func (t *trainer) updateFactorRef(f []float64, side *sideCtx, scratch *parallel.Scratch) float64 {
	k := t.cfg.K
	buf := scratch.Float64sRaw(2 * k) // gradient() and the candidate loop fully overwrite it
	grad := buf[0:k]
	cand := buf[k : 2*k]

	var qFinal float64
	for step := 0; step < t.cfg.GradSteps; step++ {
		qOld := t.partialObjective(f, side)
		t.gradient(grad, f, side)
		qFinal = qOld

		alpha := 1.0
		accepted := false
		for bt := 0; bt < maxBacktrack; bt++ {
			for c := 0; c < k; c++ {
				v := f[c] - alpha*grad[c]
				if v < 0 {
					v = 0
				}
				cand[c] = v
			}
			qNew := t.partialObjective(cand, side)
			// Armijo along the projection arc: Q(f⁺)−Q(f) ≤ σ⟨∇Q(f), f⁺−f⟩.
			dir := 0.0
			for c := 0; c < k; c++ {
				dir += grad[c] * (cand[c] - f[c])
			}
			if qNew-qOld <= sigma*dir {
				copy(f, cand)
				qFinal = qNew
				accepted = true
				break
			}
			alpha *= beta
		}
		if !accepted {
			// No step satisfied the Armijo condition within the budget;
			// keep the current factor (a zero step preserves descent) and
			// stop iterating this subproblem.
			break
		}
	}
	return qFinal
}

// partialObjective evaluates the terms of Q that depend on factor f
// (eq. 5): −Σ_+ w·log(1−e^{−z}) + ⟨f, Σ_0 g⟩ + λ‖f‖², with z the affinity
// including any bias terms, and Σ_0 g = sum − Σ_+ g obtained from the
// precomputed block sum (sum trick). Bias contributions to the Σ_0 part
// are constant during a factor step and omitted. Reference kernel; the hot
// path uses fusedObjGrad, which computes this and the gradient in one pass.
func (t *trainer) partialObjective(f []float64, side *sideCtx) float64 {
	k := t.cfg.K
	q := linalg.Dot(f, t.sum) + t.cfg.Lambda*linalg.Norm2Sq(f)
	for _, idx := range side.pos {
		g := side.others[int(idx)*k : (int(idx)+1)*k]
		d := linalg.Dot(f, g)
		q -= d // move this positive pair out of the ⟨f, Σ_all⟩ term
		z := d + side.bias(idx)
		q -= side.weight(idx) * math.Log(1-math.Exp(-clampDot(z)))
	}
	return q
}

// gradient computes ∇Q(f) per eq. (6):
// −Σ_+ w·g·e^{−z}/(1−e^{−z}) + Σ_0 g + 2λf, using the sum trick.
// Reference kernel; see fusedObjGrad for the fused hot path.
func (t *trainer) gradient(grad, f []float64, side *sideCtx) {
	k := t.cfg.K
	for c := 0; c < k; c++ {
		grad[c] = t.sum[c] + 2*t.cfg.Lambda*f[c]
	}
	for _, idx := range side.pos {
		g := side.others[int(idx)*k : (int(idx)+1)*k]
		z := clampDot(linalg.Dot(f, g) + side.bias(idx))
		e := math.Exp(-z)
		// Remove g from the Σ_0 part and add the log-term gradient:
		// combined coefficient −(1 + w·e^{−z}/(1−e^{−z})).
		coef := 1 + side.weight(idx)*e/(1-e)
		for c := 0; c < k; c++ {
			grad[c] -= coef * g[c]
		}
	}
}

// updateBias performs the 1-D projected-gradient step on a row's bias b
// with the row's factor f fixed. nZeros is the number of unknown pairs in
// the row, whose Σ_0 term contributes b·nZeros to the objective. Returns
// the updated bias.
//
// The inner products d_j = ⟨f, g_j⟩ do not depend on b, so they are hoisted
// into a scratch table once; every objective and gradient evaluation of the
// 1-D line search is then O(|pos|) exp/log work instead of O(|pos|·K).
func (t *trainer) updateBias(b float64, f []float64, side *sideCtx, nZeros float64, scratch *parallel.Scratch) float64 {
	k := t.cfg.K
	dots := scratch.Float64sRaw(len(side.pos)) // fully written below
	for j, idx := range side.pos {
		dots[j] = linalg.Dot(f, side.others[int(idx)*k:(int(idx)+1)*k])
	}
	// Q(b) = −Σ_+ w log(1−e^{−(d_j + b + b_other)}) + b·nZeros + λb².
	obj := func(b float64) float64 {
		q := b*nZeros + t.cfg.Lambda*b*b
		for j, idx := range side.pos {
			z := dots[j] + b + side.otherBias[idx]
			q -= side.weight(idx) * math.Log(1-math.Exp(-clampDot(z)))
		}
		return q
	}
	grad := nZeros + 2*t.cfg.Lambda*b
	for j, idx := range side.pos {
		z := clampDot(dots[j] + b + side.otherBias[idx])
		e := math.Exp(-z)
		grad -= side.weight(idx) * e / (1 - e)
	}
	qOld := obj(b)
	alpha := 1.0
	for bt := 0; bt < maxBacktrack; bt++ {
		cand := b - alpha*grad
		if cand < 0 {
			cand = 0
		}
		if obj(cand)-qOld <= sigma*grad*(cand-b) {
			return cand
		}
		alpha *= beta
	}
	return b
}
