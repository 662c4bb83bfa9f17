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
//     over Σ₊g_j), and with u(z) ≥ 1 − e^{−z} so is
//     L − w·log Π_{j≤n} u(z_j) for every prefix n of a one-weight row. u is
//     min(1, ·) of the [3/3] Padé bound (120z + 2z³)/(120 + 60z + 12z² + z³),
//     which is 1 − (120 − 60z + 12z² − z³)/D(z) for the denominator D: the
//     approximant of e^{−z} lies below it at every z > 0, since
//     e^{−z}·D(z) − (120 − 60z + 12z² − z³) = (z⁷/6)·∫₀¹ t³(1−t)³e^{−zt}dt,
//     and the bound saturates at 1 from z ≈ 4.64 on. Pass 1 carries Π n_j
//     against thresh·Π d_j, renormalized by 2⁵¹² as logProd is, so no
//     positive pays a division. It stays one-sided in floats: each n_j is
//     raised by 2⁻⁵¹·d_j, more than the rounding of n_j/d_j and of pass 2's
//     1 − Exp(−z) can take from the gap (padeBound), and the two running
//     products round by at most p·ε relative, which the margin below
//     absorbs as it absorbs L's rounding. A
//     candidate whose lower bound exceeds qOld + σ·dir + margin cannot
//     pass the Armijo test: it is skipped in O(K), or abandoned part-way
//     through candObjective's pass 1. Survivors run pass 2, the exp/logProd
//     loop over the same d_j in the same order as ever, so whatever is
//     accepted keeps its bits — factors, trace, stopping iteration
//     (certificates_test.go). The margin, 1e-9·(⟨f⁺,Σ⟩ + λ‖f⁺‖² + |qOld| + 1),
//     is one-sided: L sums non-negative products, so its rounding error is
//     ≤ (K+p)·ε of that magnitude, in whatever order they are summed, and a
//     certificate can only be less eager than the exact test. L's sums come
//     from the candidate build's one pass over the live coordinates
//     (project); pass 2 recomputes ⟨f⁺,Σ⟩ + λ‖f⁺‖² in linalg's order, the
//     value an evaluated candidate has always had. A step that moves no
//     coordinate moves none at a smaller α either and returns qOld at once.
//
//  5. A zero row's halvings cost O(1) until one survives. With f = 0 the
//     candidate at α is exactly α times the one at α = 1 when β is a power
//     of two, so dir, ⟨f⁺,Σ⟩, ⟨f⁺,Σ₊g⟩ (×α) and ‖f⁺‖² (×α²) are the first
//     candidate's sums scaled, in bits: every term of them has one sign, so
//     no partial sum is smaller than a term, and a power-of-two scaling of
//     a normal number is exact. The candidate is built, as before, only when
//     the certificate above does not reject it. scales keeps today's
//     per-α build where a term at α = 1, scaled to the last α, would leave
//     the normal range or a sum is not finite, when β is not a power of two,
//     and under exhaustive; the audit hook builds what the closed form
//     rejected, to evaluate it. These rows are the ones left alone: a
//     positive pair floored at minDot gives a 1e10 gradient coefficient no
//     2⁻²⁹ step tames, so the row exhausts MaxBacktrack every sweep (11,723
//     of the 100,000 cold updates on the benchmark catalogue are such zero
//     rows) and never moves; moving it changes models (ROADMAP item 18).
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
		nc, nl := 0, 0
		// closed: f = 0, and the first candidate's sums, s1, scale exactly (point 5).
		closed := false
		var s1 lsSums
		for bt := 0; bt < t.cfg.MaxBacktrack; bt++ {
			var s lsSums
			built := !closed // cand holds (f − α·grad)₊
			if built {
				nc, nl, s = t.project(cand, f, grad, gPos, alpha, clampArena, liveArena)
				if t.cfg.audit != nil {
					t.cfg.audit(auditBuilt, p, false)
				}
				if s.dir == 0 && !t.cfg.exhaustive && slices.Equal(cand, f) {
					break // stationary: no smaller α moves f either, so Q stays qOld
				}
				closed, s1 = bt == 0 && t.scales(f, cand, gPos, s), s
			} else {
				// float64(): a product fused into a later sum would round
				// apart from the built candidate's.
				s = lsSums{float64(alpha * s1.dir), float64(alpha * s1.dot), float64(alpha * alpha * s1.nrm), float64(alpha * s1.pos)}
			}
			clamp, live := clampArena[:nc], liveArena[:nl]
			incremental := nc <= nl
			// slack < 0 certifies L − qOld > σ·dir; otherwise a one-weight
			// row's pass 1 may still certify it of L − w·log Π u(z_j), which
			// is what a running product below exp(−slack/w) means.
			base := s.dot + t.cfg.Lambda*s.nrm
			margin := 1e-9 * (base + math.Abs(qOld) + 1)
			if t.cfg.exhaustive {
				margin = math.Inf(1)
			}
			slack := t.cfg.Sigma*s.dir + qOld + margin - (base - s.pos)
			if !built && !(slack < 0) {
				t.project(cand, f, grad, gPos, alpha, clampArena, liveArena)
				built = true
				if t.cfg.audit != nil {
					t.cfg.audit(auditBuilt, p, false)
				}
			}
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
				qNew = t.candObjective(cand, side, alpha, f, grad, dF, dG, dC, clamp, live, incremental, thresh)
			}
			if t.cfg.audit != nil {
				ev, acceptable := auditEvaluated, false
				if math.IsInf(qNew, 1) {
					switch ev = auditAbandoned; {
					case slack < 0 && built:
						ev = auditSkipped
					case slack < 0:
						ev = auditClosed
						t.project(cand, f, grad, gPos, alpha, clampArena, liveArena)
					}
					full := t.candObjective(cand, side, alpha, f, grad, dF, dG, dC, clamp, live, incremental, 0)
					acceptable = full-qOld <= t.cfg.Sigma*s.dir
				}
				t.cfg.audit(ev, p, acceptable)
			}
			if qNew-qOld <= t.cfg.Sigma*s.dir {
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

// auditEvent is what the line search tells Config.audit: a candidate built
// coordinate by coordinate where production builds one, or how a candidate
// was decided — evaluated in pass 2, or rejected by the O(K) certificate,
// by its closed form (point 5) or in pass 1.
type auditEvent uint8

const (
	auditBuilt auditEvent = iota
	auditEvaluated
	auditSkipped
	auditClosed
	auditAbandoned
)

// lsSums are the line-search certificate's O(K) quantities of a candidate
// f⁺: dir = ⟨∇Q, f⁺ − f⟩ (Armijo along the projection arc asks
// Q(f⁺) − Q(f) ≤ σ·dir), ⟨f⁺,Σ⟩, ‖f⁺‖² and ⟨f⁺,Σ₊g⟩.
type lsSums struct{ dir, dot, nrm, pos float64 }

// project writes the candidate (f − α·grad)₊ into cand and the indices of
// its clamped and live coordinates into the arenas, and returns their
// counts and the candidate's sums, taken in one pass over the coordinates.
// dir sums every coordinate in order, as the Armijo test has always read
// it; the other three sum the live ones, in an order only the certificates
// read (candObjective's pass 2 takes its own ⟨f⁺,Σ⟩ + λ‖f⁺‖²).
func (t *trainer) project(cand, f, grad, gPos []float64, alpha float64, clamp, live []int) (nc, nl int, s lsSums) {
	for c := range cand {
		v := f[c] - alpha*grad[c]
		if v < 0 {
			v = 0
			clamp[nc] = c
			nc++
		} else if v != 0 {
			live[nl] = c
			nl++
			s.dot += v * t.sum[c]
			s.nrm += v * v
			s.pos += v * gPos[c]
		}
		cand[c] = v
		s.dir += grad[c] * (v - f[c])
	}
	return nc, nl, s
}

// scales reports whether the halvings of a line search from f, whose
// candidate at α = 1 is cand with the sums s, may be certified in closed
// form (point 5): f = 0, β a power of two, the sums and λ‖cand‖² finite,
// and every non-zero term of them at least lo, so that it is still normal
// at the last α's scaling.
func (t *trainer) scales(f, cand, gPos []float64, s lsSums) bool {
	if frac, _ := math.Frexp(t.cfg.Beta); t.cfg.exhaustive || frac != 0.5 {
		return false
	}
	last := math.Pow(t.cfg.Beta, float64(t.cfg.MaxBacktrack-1))
	lo := 0x1p-1022 / (last * last)
	ln := t.cfg.Lambda * s.nrm
	if all := s.dir + s.dot + s.nrm + s.pos + ln; math.IsInf(all, 0) || math.IsNaN(all) || ln != 0 && !(ln >= lo) {
		return false
	}
	for c, v := range cand {
		if f[c] != 0 || v != 0 && (!(v*v >= lo) || t.sum[c] != 0 && !(v*t.sum[c] >= lo) ||
			gPos[c] != 0 && !(v*gPos[c] >= lo)) {
			return false
		}
	}
	return true
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

// padeBound returns n and d with n/d ≥ 1 − e^{−z} for z ≥ 0 as pass 2
// computes it in floats: the [3/3] Padé bound (120z + 2z³)/(120 + 60z +
// 12z² + z³), with n raised by 2⁻⁵¹·d. Pass 2's 1 − Exp(−z) exceeds
// 1 − e^{−z} by at most an ulp of 1 (2⁻⁵³), and rounding takes at most 9ε
// of the quotient, which what is left of 2⁻⁵¹ covers while 1 − e^{−z} ≤ 1/3;
// above that the bound's own gap to 1 − e^{−z}, over 1e-8, dwarfs both.
// Once n ≥ d the bound says 1.
func padeBound(z float64) (n, d float64) {
	d = 120 + z*(60+z*(12+z))
	return z*(120+2*z*z) + 0x1p-51*d, d
}

// candObjective evaluates the partial objective at the line-search candidate
// cand = (f − α·grad)₊ using the incremental inner products. clamp holds the
// coordinates projected to zero, live the coordinates with cand[c] > 0
// (coordinates that land exactly on zero without clamping contribute nothing
// to either form). incremental selects the dF/dG correction form; otherwise
// the dot products are rebuilt from the live coordinates only. Pass 1 leaves
// them in dC and, for thresh > 0, gives up with +Inf once the product of the
// Padé bounds u(z_j) so far is below it; pass 2 subtracts them and the log
// terms from ⟨cand, Σ⟩ + λ‖cand‖².
func (t *trainer) candObjective(cand []float64, side sideCtx, alpha float64,
	f, grad, dF, dG, dC []float64, clamp, live []int, incremental bool, thresh float64) float64 {
	k := t.cfg.K
	num, bar := 1.0, thresh // Π n_j against thresh·Π d_j, both renormalized alike
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
			if n, dn := padeBound(clampDot(d + side.bias(idx))); n < dn {
				if num, bar = num*n, bar*dn; num < bar {
					return math.Inf(1)
				}
				if bar > 0x1p512 {
					num, bar = num*0x1p-512, bar*0x1p-512
				}
			}
		}
	}
	q := linalg.Dot(cand, t.sum) + t.cfg.Lambda*linalg.Norm2Sq(cand)
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
