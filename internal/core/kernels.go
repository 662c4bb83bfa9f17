package core

import (
	"math"
	"slices"

	"repro/internal/linalg"
	"repro/internal/parallel"
)

// This file holds the fused training kernels — the CPU counterpart of the
// paper's Section VI GPU kernels, which compute the objective and gradient
// of a subproblem in a single pass over its positive examples.
//
// The reference implementation (train.go: partialObjective + gradient) walks
// the positives list twice per projected-gradient step, recomputing
// d = ⟨f, g⟩ and e^{−z} in each walk, and then re-walks the list in full
// O(|pos|·K) for every Armijo backtracking candidate. The fused path
// removes both redundancies:
//
//  1. fusedObjGrad emits Q(f), ∇Q(f) and the per-positive inner products
//     dF[j] = ⟨f, g_j⟩ in ONE pass, computing each dot product and
//     exponential once. The Armijo reference value qOld falls out for free.
//
//  2. The line search is incremental. A backtracking candidate is
//     f⁺ = (f − α·∇Q)₊, so with dG[j] = ⟨∇Q, g_j⟩ precomputed,
//
//     ⟨f⁺, g_j⟩ = dF[j] − α·dG[j] + Σ_{c ∈ clamped} (α·∇Q_c − f_c)·g_jc,
//
//     which costs O(|clamped|) per positive instead of O(K). When most
//     coordinates clamp (factors are sparse near convergence), the dual
//     form Σ_{c ∈ live} f⁺_c·g_jc over the surviving coordinates is used
//     instead; the evaluation is never worse than O(min(|clamped|, |live|))
//     per positive. dG is computed lazily — candidates that resolve through
//     the live-coordinate path never pay for it.
//
//  3. The convergence-check objective is assembled from the line-search
//     partials instead of a separate O(nnz·K) pass. Summing eq. (5) over
//     all users gives Σ_u q_u = ⟨Σf_u, Σf_i⟩ − Σ_+ z − Σ_+ w·log(1−e^{−z})
//     + λ‖f_u‖², i.e. the full eq. (4) objective short of λ‖f_i‖² — and
//     the user sweep (the second half-sweep, which sees the iteration's
//     final state) already computes every q_u for the Armijo test. See
//     trainer.traceObjective.
//
//  4. The line search proves most failing candidates fail before paying
//     for an exponential. Every log term of Q(f⁺) is ≤ 0, so
//     L = ⟨f⁺, Σ − Σ₊g_j⟩ + λ‖f⁺‖² ≤ Q(f⁺) (fusedObjGrad's pass hands
//     over Σ₊g_j), and with u(z) = min(1, 2z/(2+z)) ≥ 1 − e^{−z} so is
//     L − w·log Π_{j≤n} u(z_j) for every prefix n of a one-weight row. A
//     candidate whose lower bound exceeds qOld + σ·dir + margin cannot
//     pass the Armijo test: it is skipped in O(K), or abandoned part-way
//     through candObjective's pass 1. Survivors run pass 2, the exp/logProd
//     loop over the same d_j in the same order as ever, so whatever is
//     accepted keeps its bits — factors, trace, stopping iteration
//     (certificates_test.go). The margin, 1e-9·(⟨f⁺,Σ⟩ + λ‖f⁺‖² + |qOld| + 1),
//     is one-sided: L sums non-negative products, so its rounding error is
//     ≤ (K+p)·ε of that magnitude and a certificate can only be less eager
//     than the exact test. A step that moves no coordinate moves none at a
//     smaller α either and returns qOld at once. Left alone: a row with a
//     positive pair floored at minDot has a 1e10 gradient coefficient no
//     2⁻²⁹ step tames, exhausts MaxBacktrack every sweep (12,683 of 100,000
//     cold updates on the benchmark catalogue) and never moves. It now
//     costs O(K) per halving, not O(p) exps; moving it changes models.
//
// The fused path changes floating-point summation order relative to the
// reference kernels, so trained models agree to rounding (objective traces
// within 1e-9 relative — asserted by kernels_test.go) rather than bitwise.
// Serial and parallel schedules of the SAME path remain bit-identical: the
// kernels are deterministic per subproblem and all cross-row reductions go
// through the fixed-block parallel.SumVectors/ReduceSum.

// updateFactorFused performs the projected-gradient-with-backtracking update
// of Section IV-D on factor f (length K) using the fused one-pass kernels
// and the incremental line search. scratch provides the per-worker arenas.
//
// The returned value is the partial objective (eq. 5) at the factor left in
// f — the accepted candidate's line-search value, or the fused-pass qOld
// when no step was accepted. The user sweep sums these per-row partials
// into the full objective (see trainer.traceObjective), which makes the
// per-iteration convergence check free.
func (t *trainer) updateFactorFused(f []float64, side sideCtx, scratch *parallel.Scratch) float64 {
	k := t.cfg.K
	p := len(side.pos)
	// Raw borrows: every region is fully written before it is read (grad, gPos
	// and dF by fusedObjGrad, cand and dC per candidate, dG under dGReady, the
	// index arenas up to their counters), so the zeroing pass is skipped.
	buf := scratch.Float64sRaw(3*k + 3*p)
	grad, cand, gPos := buf[0:k], buf[k:2*k], buf[2*k:3*k]
	dF, dG, dC := buf[3*k:3*k+p], buf[3*k+p:3*k+2*p], buf[3*k+2*p:]
	ib := scratch.IntsRaw(2 * k)
	clampArena, liveArena := ib[0:k], ib[k:2*k]

	var qFinal float64
	for step := 0; step < t.cfg.GradSteps; step++ {
		qOld := t.fusedObjGrad(f, side, grad, gPos, dF)
		qFinal = qOld
		dGReady := false

		alpha := 1.0
		accepted := false
		for bt := 0; bt < t.cfg.MaxBacktrack; bt++ {
			nc, nl := 0, 0
			dir := 0.0
			for c := 0; c < k; c++ {
				v := f[c] - alpha*grad[c]
				if v < 0 {
					v = 0
					clampArena[nc] = c
					nc++
				} else if v != 0 {
					liveArena[nl] = c
					nl++
				}
				cand[c] = v
				// Armijo along the projection arc:
				// Q(f⁺) − Q(f) ≤ σ⟨∇Q(f), f⁺ − f⟩.
				dir += grad[c] * (v - f[c])
			}
			if dir == 0 && !t.cfg.exhaustive && slices.Equal(cand, f) {
				break // stationary: no smaller α moves f either, so Q stays qOld
			}
			clamp, live := clampArena[:nc], liveArena[:nl]
			incremental := nc <= nl
			// slack < 0 certifies L − qOld > σ·dir; otherwise a one-weight
			// row's pass 1 may still certify it of L − w·log Π u(z_j), which
			// is what a running product below exp(−slack/w) means.
			base := linalg.Dot(cand, t.sum) + t.cfg.Lambda*linalg.Norm2Sq(cand)
			margin := 1e-9 * (base + math.Abs(qOld) + 1)
			if t.cfg.exhaustive {
				margin = math.Inf(1)
			}
			slack := t.cfg.Sigma*dir + qOld + margin - (base - linalg.Dot(cand, gPos))
			if incremental && !dGReady && p > 0 && (!(slack < 0) || t.cfg.audit != nil) {
				for j, idx := range side.pos {
					g := side.others[int(idx)*k : (int(idx)+1)*k]
					dG[j] = linalg.Dot(grad, g)
				}
				dGReady = true
			}
			qNew := math.Inf(1) // what a certified candidate is worth to the test below
			if !(slack < 0) {
				thresh := 0.0
				if side.wTable == nil {
					// −1e-290: near the subnormal range a product's rounding is not relative.
					thresh = math.Exp(-slack/side.wScalar) - 1e-290
				}
				qNew = t.candObjective(cand, side, alpha, f, grad, dF, dG, dC, clamp, live, incremental, base, thresh)
			}
			if t.cfg.audit != nil && math.IsInf(qNew, 1) {
				full := t.candObjective(cand, side, alpha, f, grad, dF, dG, dC, clamp, live, incremental, base, 0)
				t.cfg.audit(full-qOld <= t.cfg.Sigma*dir)
			}
			if qNew-qOld <= t.cfg.Sigma*dir {
				copy(f, cand)
				qFinal = qNew
				accepted = true
				break
			}
			alpha *= t.cfg.Beta
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

// logProd accumulates a product Π x_j of values in (0, 1] with periodic
// renormalization, so that Σ log x_j can be evaluated as a single logarithm
// at the end: log x_1 + … + log x_p = log(mant) + exp·log 2. math.Log is
// the single most expensive operation of the training inner loops
// (profiles put it near 40% of a serial sweep), and when a subproblem's
// positives share one weight the batched form replaces |pos| logarithms
// with one. Renormalization triggers well above the subnormal range, so no
// precision is lost; the absolute error of the batched sum is O(p·ε),
// within the 1e-9 kernel-equivalence budget for any realistic row.
type logProd struct {
	mant float64
	exp  int
}

func (lp *logProd) init() { lp.mant, lp.exp = 1, 0 }

func (lp *logProd) mul(x float64) {
	lp.mant *= x
	if lp.mant < 0x1p-512 {
		m, e := math.Frexp(lp.mant)
		lp.mant = m
		lp.exp += e
	}
}

func (lp *logProd) log() float64 { return math.Log(lp.mant) + float64(lp.exp)*math.Ln2 }

// fusedObjGrad computes, in a single pass over side.pos, the partial
// objective Q(f) of eq. (5), its gradient ∇Q(f) of eq. (6), and the
// per-positive inner products dF[j] = ⟨f, g_j⟩. Each dot product and
// e^{−z} is evaluated once and feeds both outputs. When the positives
// share one weight (user sweeps always; item sweeps unless R-OCuLaR
// supplies per-user weights) the log terms are batched through logProd.
func (t *trainer) fusedObjGrad(f []float64, side sideCtx, grad, gPos, dF []float64) float64 {
	k := t.cfg.K
	lam := t.cfg.Lambda
	for c := 0; c < k; c++ {
		grad[c] = t.sum[c] + 2*lam*f[c]
		gPos[c] = 0
	}
	q := linalg.Dot(f, t.sum) + lam*linalg.Norm2Sq(f)
	batch := side.wTable == nil
	var lp logProd
	lp.init()
	for j, idx := range side.pos {
		g := side.others[int(idx)*k : (int(idx)+1)*k]
		d := linalg.Dot(f, g)
		dF[j] = d
		z := clampDot(d + side.bias(idx))
		e := math.Exp(-z)
		w := side.weight(idx)
		q -= d // move this positive pair out of the ⟨f, Σ_all⟩ term
		if batch {
			lp.mul(1 - e)
		} else {
			q -= w * math.Log(1-e)
		}
		// Remove g from the Σ_0 part and add the log-term gradient:
		// combined coefficient −(1 + w·e^{−z}/(1−e^{−z})).
		linalg.Axpy(-(1 + w*e/(1-e)), g, grad)
		linalg.Axpy(1, g, gPos)
	}
	if batch && len(side.pos) > 0 {
		q -= side.wScalar * lp.log()
	}
	return q
}

// candObjective evaluates the partial objective at the line-search candidate
// cand = (f − α·grad)₊ using the incremental inner products. clamp holds the
// coordinates projected to zero, live the coordinates with cand[c] > 0
// (coordinates that land exactly on zero without clamping contribute nothing
// to either form). incremental selects the dF/dG correction form; otherwise
// the dot products are rebuilt from the live coordinates only. Pass 1 leaves
// them in dC and, for thresh > 0, gives up with +Inf once the product of the
// u(z_j) so far is below it; pass 2 subtracts them and the log terms from q,
// the caller's ⟨cand, Σ⟩ + λ‖cand‖².
func (t *trainer) candObjective(cand []float64, side sideCtx, alpha float64,
	f, grad, dF, dG, dC []float64, clamp, live []int, incremental bool, q, thresh float64) float64 {
	k := t.cfg.K
	prod := 1.0
	for j, idx := range side.pos {
		g := side.others[int(idx)*k : (int(idx)+1)*k]
		var d float64
		if incremental {
			d = dF[j] - alpha*dG[j]
			for _, c := range clamp {
				d += (alpha*grad[c] - f[c]) * g[c]
			}
		} else {
			for _, c := range live {
				d += cand[c] * g[c]
			}
		}
		dC[j] = d
		if thresh > 0 {
			z := clampDot(d + side.bias(idx))
			// +2⁻⁵¹: pass 2's 1 − Exp(−z) is off by up to an ulp of 1.
			if prod *= min(1, 2*z/(2+z)+0x1p-51); prod < thresh {
				return math.Inf(1)
			}
		}
	}
	batch := side.wTable == nil
	var lp logProd
	lp.init()
	for j, idx := range side.pos {
		d := dC[j]
		z := d + side.bias(idx)
		q -= d
		if batch {
			lp.mul(1 - math.Exp(-clampDot(z)))
		} else {
			q -= side.weight(idx) * math.Log(1-math.Exp(-clampDot(z)))
		}
	}
	if batch && len(side.pos) > 0 {
		q -= side.wScalar * lp.log()
	}
	return q
}
