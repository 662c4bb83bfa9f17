package core

import (
	"math"
	"math/bits"
	"slices"

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
//     L − w·log Π_{j≤n} u(z_j) for every prefix n of a one-weight row, which
//     exceeds qOld + σ·dir + margin once Π u(z_j) < e^{−slack/w} (taken
//     without an exponential, by expBelow). u is
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
//     absorbs as it absorbs L's rounding. A candidate whose lower bound
//     exceeds qOld + σ·dir + margin cannot pass the Armijo test: it is
//     skipped on project's sums, or abandoned part-way through
//     candObjective's pass 1. Survivors run pass 2, the exp/logProd loop
//     over the same d_j in the same order as ever, so whatever is
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
//     candidate at α is exactly α times the one at α = 1, since β = ½, so
//     dir, ⟨f⁺,Σ⟩, ⟨f⁺,Σ₊g⟩ (×α) and ‖f⁺‖² (×α²) are the first
//     candidate's sums scaled, in bits: every term of them has one sign, so
//     no partial sum is smaller than a term, and a power-of-two scaling of
//     a normal number is exact. The candidate is built, as before, only when
//     the certificate above does not reject it. scales keeps today's
//     per-α build where a term at α = 1, scaled to the last α, would leave
//     the normal range or a sum is not finite, and under exhaustive; the
//     audit hook builds what the closed form rejected, to evaluate it.
//     These rows are the ones left alone: a positive pair floored at minDot
//     gives a 1e10 gradient coefficient no 2⁻²⁹ step tames, so the row
//     exhausts maxBacktrack every sweep (11,723 of the 100,000 cold updates
//     on the benchmark catalogue are such zero rows) and never moves;
//     moving it changes models (ROADMAP item 18).
//
//  6. The loops run over a factor's support, not over K. Every factor row
//     keeps a nonzero-coordinate mask of ⌈K/64⌉ words, rewritten after its
//     update. A row step lists supp(f) and classifies S = supp(f) ∪
//     {c : ∇_c < 0, subnormal or not finite}: off S, f⁺_c = 0 at every α,
//     and P = {c ∉ S : ∇_c > 0} clamps at every α > 2⁻⁵³. ⟨f,g_j⟩ and
//     ⟨f,Σ⟩ + λ‖f‖² run over supp(f), the gradient update and dG over
//     supp(g_j), the build over S, pass 1 over the candidate's clamped or
//     live coordinates and pass 2 over the live ones (cutting a row's lists
//     by supp(g_j) too mispredicts more than it saves). A product left out
//     is ±0, a zero times a finite value, and the sum it would join is never
//     −0: it starts at +0, and in round-to-nearest a sum is −0 only if both
//     addends are. dotList keeps each product in linalg.Dot's lane, so every
//     trained bit stays at every K (TestTrainedBitsPinned, FuzzDotMask). A
//     non-finite ∇_c counts as set in every mask it meets: dG then runs
//     over supp(∇).
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
func (t *trainer) updateFactorFused(f []float64, side *sideCtx, scratch *parallel.Scratch) float64 {
	k := t.cfg.K
	p := len(side.pos)
	// Raw borrows: every region is fully written before it is read (grad, gPos
	// and dF by fusedObjGrad, cand by classify and project, dC per candidate,
	// dG under dGReady, the index lists up to their lengths), so the zeroing
	// pass is skipped.
	buf := scratch.Float64sRaw(3*k + 3*p)
	grad, cand, gPos := buf[0:k], buf[k:2*k], buf[2*k:3*k]
	dF, dG, dC := buf[3*k:3*k+p], buf[3*k+p:3*k+2*p], buf[3*k+2*p:]
	// The masks stay on the stack for K ≤ 128; the lists get k ints each.
	nw, words, idx := (k+63)>>6, [4 * 2]uint64{}, scratch.IntsRaw(4*k)
	w := words[:]
	if len(w) < 4*nw {
		w = make([]uint64, 4*nw)
	}
	var st support // set field by field: a literal would be built aside and copied
	st.s, st.p, st.clamp, st.grad = w[:nw], w[nw:2*nw], w[2*nw:3*nw], w[3*nw:4*nw]
	st.f, st.live, st.clamped, st.row = idx[:0:k], idx[k:k:2*k], idx[2*k:2*k:3*k], idx[3*k:3*k:4*k]

	var qFinal float64
	for step := 0; step < t.cfg.GradSteps; step++ {
		qOld := t.fusedObjGrad(f, side, grad, gPos, dF, &st)
		st.classify(f, grad, cand)
		qFinal = qOld
		dGReady := false

		alpha := 1.0
		accepted := false
		nc := 0
		// closed: f = 0, and the first candidate's sums, s1, scale exactly (point 5).
		closed := false
		var s1 lsSums
		for bt := 0; bt < maxBacktrack; bt++ {
			var s lsSums
			built := !closed // cand holds (f − α·grad)₊
			if built {
				nc, s = t.project(cand, f, grad, gPos, alpha, &st)
				if t.cfg.audit != nil {
					t.cfg.audit(auditBuilt, p, false)
				}
				if s.dir == 0 && !t.cfg.exhaustive && slices.Equal(cand, f) {
					break // stationary: no smaller α moves f either, so Q stays qOld
				}
				closed, s1 = bt == 0 && t.scales(cand, gPos, s, &st), s
			} else {
				// float64(): a product fused into a later sum would round
				// apart from the built candidate's.
				s = lsSums{float64(alpha * s1.dir), float64(alpha * s1.dot), float64(alpha * alpha * s1.nrm), float64(alpha * s1.pos)}
			}
			incremental := nc <= len(st.live)
			// slack < 0 certifies L − qOld > σ·dir; otherwise a one-weight
			// row's pass 1 may still certify it of L − w·log Π u(z_j), which
			// is what a running product below e^{−slack/w} means.
			base := s.dot + t.cfg.Lambda*s.nrm
			margin := 1e-9 * (base + math.Abs(qOld) + 1)
			if t.cfg.exhaustive {
				margin = math.Inf(1)
			}
			slack := sigma*s.dir + qOld + margin - (base - s.pos)
			if !built && !(slack < 0) {
				t.project(cand, f, grad, gPos, alpha, &st)
				built = true
				if t.cfg.audit != nil {
					t.cfg.audit(auditBuilt, p, false)
				}
			}
			if incremental && (!(slack < 0) || t.cfg.audit != nil) {
				st.clamped = appendBits(st.clamped[:0], st.clamp)
				if !dGReady {
					t.gradDots(grad, side, dG, &st)
					dGReady = true
				}
			}
			qNew := math.Inf(1) // what a certified candidate is worth to the test below
			if !(slack < 0) {
				thresh := 0.0
				if side.wTable == nil {
					// −1e-290: near the subnormal range a product's rounding is not relative.
					thresh = expBelow(slack/side.wScalar) - 1e-290
				}
				qNew = t.candObjective(cand, side, alpha, f, grad, dF, dG, dC, &st, incremental, thresh)
			}
			if t.cfg.audit != nil {
				ev, acceptable := auditEvaluated, false
				if math.IsInf(qNew, 1) {
					quiet := *t // the audit's own work is no product the kernels take
					quiet.cfg.audit = nil
					switch ev = auditAbandoned; {
					case slack < 0 && built:
						ev = auditSkipped
					case slack < 0:
						ev = auditClosed
						quiet.project(cand, f, grad, gPos, alpha, &st)
					}
					full := quiet.candObjective(cand, side, alpha, f, grad, dF, dG, dC, &st, incremental, 0)
					acceptable = full-qOld <= sigma*s.dir
				}
				t.cfg.audit(ev, p, acceptable)
			}
			if qNew-qOld <= sigma*s.dir {
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

// auditEvent is what the line search tells Config.audit: a candidate built
// coordinate by coordinate where production builds one, or how a candidate
// was decided — evaluated in pass 2, or rejected by the O(K) certificate,
// by its closed form (point 5) or in pass 1 — or, for auditProducts, how
// many coordinate products a loop of the fused kernels took (point 6).
type auditEvent uint8

const (
	auditBuilt auditEvent = iota
	auditEvaluated
	auditSkipped
	auditClosed
	auditAbandoned
	auditProducts
)

// lsSums are the line-search certificate's O(K) quantities of a candidate
// f⁺: dir = ⟨∇Q, f⁺ − f⟩ (Armijo along the projection arc asks
// Q(f⁺) − Q(f) ≤ σ·dir), ⟨f⁺,Σ⟩, ‖f⁺‖² and ⟨f⁺,Σ₊g⟩.
type lsSums struct{ dir, dot, nrm, pos float64 }

// support holds one row step's coordinate sets (point 6). As masks of
// ⌈K/64⌉ words, bit c%64 of word c/64 standing for coordinate c: S, P,
// the last built candidate's clamped coordinates and, when some ∇_c is not
// finite, supp(∇). As ascending lists, which the loops walk: supp(f), the
// candidate's live and clamped coordinates, and the row dG is taking.
type support struct {
	s, p, clamp, grad     []uint64
	f, live, clamped, row []int
	nonFinite             bool // some ∇_c is NaN or ±Inf
}

// classify sorts the coordinates of a row step whose gradient is grad into
// S and P, and zeroes cand, which project then writes over S. P holds the
// coordinates with f_c = 0 and ∇_c positive and normal, S the others but
// those with f_c = 0 and ∇_c = ±0; a subnormal ∇_c, whose α·∇_c may round
// to 0, is in S. Its tests are on bits, so no branch depends on the data.
func (st *support) classify(f, grad, cand []float64) {
	clear(cand)
	nonFinite := uint64(0)
	for w := range st.s {
		var sw, pw uint64
		for c := w << 6; c < min(len(grad), w<<6+64); c++ {
			b := math.Float64bits(grad[c])
			fc := bit(math.Float64bits(f[c])<<1 != 0)                // f_c ≠ 0
			normal := bit(b-0x0010000000000000 < 0x7fe0000000000000) // ∇_c positive and normal
			sw |= (fc | bit(b<<1 != 0)&^normal) << (c & 63)
			pw |= normal &^ fc << (c & 63)
			nonFinite |= bit(b<<1 >= 0xffe0000000000000)
		}
		st.s[w], st.p[w] = sw, pw
	}
	st.nonFinite = nonFinite != 0
	if st.nonFinite {
		setMask(st.grad, grad)
	}
}

// bit is 1 when c holds and 0 otherwise, compiled to a SETcc, not a branch.
func bit(c bool) uint64 {
	var b uint64
	if c {
		b = 1
	}
	return b
}

// setMask writes v's nonzero-coordinate mask into m; NaN counts as
// nonzero, −0 as zero.
func setMask(m []uint64, v []float64) {
	for w := range m {
		var mw uint64
		for c := w << 6; c < min(len(v), w<<6+64); c++ {
			mw |= bit(math.Float64bits(v[c])<<1 != 0) << (c & 63)
		}
		m[w] = mw
	}
}

// appendBits appends the coordinates set in m to dst, ascending.
func appendBits(dst []int, m []uint64) []int {
	for w, x := range m {
		for ; x != 0; x &= x - 1 {
			dst = append(dst, w<<6|bits.TrailingZeros64(x))
		}
	}
	return dst
}

// count tells audit of n coordinate products the kernels took (point 6).
func (t *trainer) count(n int) {
	if t.cfg.audit != nil {
		t.cfg.audit(auditProducts, n, false)
	}
}

// dotList is linalg.Dot(a, b) over the ascending coordinates idx: each
// product goes to the lane Dot gives it, in Dot's order, and the tail past
// the last group of four is added after the lanes combine. It equals Dot
// in bits when every product it leaves out is ±0 (point 6).
func dotList(a, b []float64, idx []int) float64 {
	n4, body := len(a)&^3, len(idx)
	for body > 0 && idx[body-1] >= n4 {
		body--
	}
	var lane [4]float64
	for _, c := range idx[:body] {
		lane[c&3] += a[c] * b[c]
	}
	s := (lane[0] + lane[2]) + (lane[1] + lane[3])
	for _, c := range idx[body:] {
		s += a[c] * b[c]
	}
	return s
}

// gradDots writes dG[j] = ⟨∇, g_j⟩ over supp(g_j), or over supp(∇) when
// some ∇_c is not finite.
func (t *trainer) gradDots(grad []float64, side *sideCtx, dG []float64, st *support) {
	k, nw, n := t.cfg.K, len(st.s), 0
	for j, idx := range side.pos {
		m := side.masks[int(idx)*nw : (int(idx)+1)*nw]
		if st.nonFinite {
			m = st.grad
		}
		row := appendBits(st.row[:0], m)
		dG[j] = dotList(grad, side.others[int(idx)*k:(int(idx)+1)*k], row)
		n += len(row)
	}
	t.count(n)
}

// project writes the candidate (f − α·grad)₊ into cand over S, and over P
// too when α·∇_c may round to 0 there, lists its live coordinates and
// masks its clamped ones in st, and returns the clamped count and the
// candidate's sums, taken in one pass. dir sums the coordinates in order,
// as the Armijo test has always read it; the other three sum the live
// ones, in an order only the certificates read (candObjective's pass 2
// takes its own ⟨f⁺,Σ⟩ + λ‖f⁺‖²).
func (t *trainer) project(cand, f, grad, gPos []float64, alpha float64, st *support) (nc int, s lsSums) {
	// Every coordinate of P clamps at this α: α·∇_c > 2⁻⁵³·2⁻¹⁰²² = 2⁻¹⁰⁷⁵,
	// so it rounds above 0.
	every := alpha > 0x1p-53
	live := st.live[:0]
	visited := 0
	for w, m := range st.s {
		clamp := uint64(0)
		if every {
			clamp = st.p[w]
		} else {
			m |= st.p[w]
		}
		visited += bits.OnesCount64(m)
		for ; m != 0; m &= m - 1 {
			c := w<<6 | bits.TrailingZeros64(m)
			v := f[c] - alpha*grad[c]
			if v < 0 {
				v = 0
				clamp |= m & -m
			} else if v != 0 {
				live = append(live, c)
				s.dot += v * t.sum[c]
				s.nrm += v * v
				s.pos += v * gPos[c]
			}
			cand[c] = v
			s.dir += grad[c] * (v - f[c])
		}
		st.clamp[w] = clamp
		nc += bits.OnesCount64(clamp)
	}
	st.live = st.live[:len(live)] // a self-slice, so st stays on the stack
	t.count(visited)
	return nc, s
}

// scales reports whether the halvings of a line search from f, whose
// candidate at α = 1 is cand with the sums s, may be certified in closed
// form (point 5): f = 0, the sums and λ‖cand‖² finite, and every non-zero
// term of them at least lo, so that it is still normal at the last α's
// scaling, β^(maxBacktrack−1) = 2⁻²⁹.
func (t *trainer) scales(cand, gPos []float64, s lsSums, st *support) bool {
	if t.cfg.exhaustive || len(st.f) != 0 {
		return false
	}
	const last = 1.0 / (1 << (maxBacktrack - 1))
	const lo = 0x1p-1022 / (last * last)
	ln := t.cfg.Lambda * s.nrm
	if all := s.dir + s.dot + s.nrm + s.pos + ln; math.IsInf(all, 0) || math.IsNaN(all) || ln != 0 && !(ln >= lo) {
		return false
	}
	for _, c := range st.live {
		if v := cand[c]; !(v*v >= lo) || t.sum[c] != 0 && !(v*t.sum[c] >= lo) || gPos[c] != 0 && !(v*gPos[c] >= lo) {
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
// It also lists supp(f) in st.f.
func (t *trainer) fusedObjGrad(f []float64, side *sideCtx, grad, gPos, dF []float64, st *support) float64 {
	k, nw := t.cfg.K, len(st.s)
	lam := t.cfg.Lambda
	list, n := st.f[:k], 0
	for c := 0; c < k; c++ {
		grad[c] = t.sum[c] + 2*lam*f[c]
		gPos[c] = 0
		list[n] = c
		n += int(bit(math.Float64bits(f[c])<<1 != 0))
	}
	list = list[:n]
	st.f = st.f[:n]
	q := dotList(f, t.sum, list) + lam*dotList(f, f, list)
	batch := side.wTable == nil
	var lp logProd
	lp.init()
	touched := 0
	for j, idx := range side.pos {
		g := side.others[int(idx)*k : (int(idx)+1)*k]
		mg := side.masks[int(idx)*nw : (int(idx)+1)*nw]
		d := dotList(f, g, list)
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
		coef := -(1 + w*e/(1-e))
		for wd, m := range mg {
			for ; m != 0; m &= m - 1 {
				c := wd<<6 | bits.TrailingZeros64(m)
				grad[c] += coef * g[c]
				gPos[c] += g[c]
				touched++
			}
		}
	}
	if batch && len(side.pos) > 0 {
		q -= side.wScalar * lp.log()
	}
	t.count((2+len(side.pos))*n + 2*touched)
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
// cand = (f − α·grad)₊ using the incremental inner products, over the
// clamped or live coordinates project left in st (coordinates that land
// exactly on zero without clamping contribute nothing to either form), and
// of those only the ones g_j holds. incremental selects the dF/dG correction
// form; otherwise the dot products are rebuilt from the live coordinates.
// Pass 1 leaves them in dC and, for thresh > 0, gives up with +Inf once the
// product of the Padé bounds u(z_j) so far is below it; pass 2 subtracts
// them and the log terms from ⟨cand, Σ⟩ + λ‖cand‖².
func (t *trainer) candObjective(cand []float64, side *sideCtx, alpha float64,
	f, grad, dF, dG, dC []float64, st *support, incremental bool, thresh float64) float64 {
	k := t.cfg.K
	clamp, live := st.clamped, st.live
	walked := len(live) // coordinates pass 1 walks per positive
	if incremental {
		walked = len(clamp)
	}
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
					t.count((j + 1) * walked)
					return math.Inf(1)
				}
				if bar > 0x1p512 {
					num, bar = num*0x1p-512, bar*0x1p-512
				}
			}
		}
	}
	q := dotList(cand, t.sum, live) + t.cfg.Lambda*dotList(cand, cand, live)
	t.count(len(side.pos)*walked + 2*len(live))
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

// expBelow returns a lower bound of e^{−x} for 0 ≤ x ≤ 708, and 0 for any
// other x, NaN included, without an exponential (point 4's threshold). With
// n = round(x·log₂e), e^{−x} = 2⁻ⁿ·eᵗ for t = (n·ln2Hi − x) + n·ln2Lo,
// |t| ≤ 0.3466: n·ln2Hi (32 + 10 bits) and, by Sterbenz, the difference
// are exact, and the sum's rounding (≤ 0.347ε, ε = 2⁻⁵³) moves eᵗ by
// ≤ 0.50ε. eᵗ ≥ T(t), its degree-13 Taylor polynomial, at every t (the
// remainder e^ξ·t¹⁴/14! is ≥ 0). T is
// (1 + t) + t²·H(t), H by Estrin's scheme; each rounding scales the terms
// c_k·t^k it touches by 1 + δ, |δ| ≤ ε, and the terms meet 2, 2, 6, 7, 8, …
// of them, so the computed T exceeds T(t) by at most (2 + 2·0.347 +
// 6·0.060 + 7.5·0.0069 + 9·0.0006)ε < 3.2ε, and eᵗ by at most 3.7ε.
// Subtracting 12ε = 3·2⁻⁵¹ is exact (T ∈ [0.70, 1.42]) and leaves 8ε below
// eᵗ, more than math.Exp's own shortfall (up to 3.2ε measured on amd64);
// scaling by 2⁻ⁿ, n ≤ 1021, is exact. TestExpBelowHolds checks it.
func expBelow(x float64) float64 {
	const (
		ln2Hi = 6.93147180369123816490e-01 // math.Exp's split of ln 2
		ln2Lo = 1.90821492927058770002e-10
	)
	if !(x >= 0 && x <= 708) {
		return 0
	}
	n := int(x*math.Log2E + 0.5)
	t := (float64(n)*ln2Hi - x) + float64(n)*ln2Lo
	t2 := t * t
	t4 := t2 * t2
	h := ((1.0/2 + t*(1.0/6)) + t2*(1.0/24+t*(1.0/120))) +
		t4*(((1.0/720+t*(1.0/5040))+t2*(1.0/40320+t*(1.0/362880)))+
			t4*((1.0/3628800+t*(1.0/39916800))+t2*(1.0/479001600+t*(1.0/6227020800))))
	return ((1 + t) + t2*h - 3*0x1p-51) * math.Float64frombits(uint64(1023-n)<<52)
}
