package linalg

import "math"

// DotF32 returns the inner product ⟨a, b⟩ of two float32 vectors as a
// float64. It panics if lengths differ.
//
// This is the serving-side counterpart of Dot for models carrying a
// float32-quantized factor section: the operands stream from memory at
// half the bandwidth of float64 factors. The loop is unrolled 4-wide with
// independent float32 accumulators combined in float64 in a fixed order —
// float32 accumulation keeps the kernel as fast as the float64 Dot even
// when the factors are cache-resident (widening every operand to float64
// costs ~1.5× in the compute-bound regime), at the price of a K-dependent
// error term; see ScoreErrorBoundF32 for the resulting bound. The result
// is deterministic for a given input.
func DotF32(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("linalg: DotF32 length mismatch")
	}
	// Reslicing b to len(a) lets the compiler prove all four b indices in
	// bounds from the loop condition alone, dropping the per-lane checks.
	b = b[:len(a)]
	var s0, s1, s2, s3 float32
	n := len(a)
	i := 0
	for ; i <= n-4; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := (float64(s0) + float64(s2)) + (float64(s1) + float64(s3))
	for ; i < n; i++ {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// ScoreF32 writes the OCuLaR probability 1 − exp(−z_i) for every item
// into dst, where z_i = ⟨fu, fi[i·k:(i+1)·k]⟩ + userBias + bi[i] and
// k = len(fu). fi is the flat item-factor matrix with stride k; bi may be
// nil for models without item biases. It panics on shape mismatches.
//
// The absolute error of a reported probability against the float64 score
// of the unquantized factors is at most ScoreErrorBoundF32(k).
func ScoreF32(dst []float64, fu, fi []float32, bi []float32, userBias float64) {
	k := len(fu)
	if len(fi) != len(dst)*k {
		panic("linalg: ScoreF32 factor shape mismatch")
	}
	if bi != nil && len(bi) != len(dst) {
		panic("linalg: ScoreF32 bias length mismatch")
	}
	// The nil-bias branch is hoisted out of the item loop and the factor
	// row advances by reslicing instead of recomputing i*k — both loops
	// perform the identical float operations in the identical order as the
	// single-loop form ((dot + userBias) + bi[i]), so scores stay
	// bit-identical; reassociating that chain would break the binary/JSON
	// transport property tests, which compare math.Float64bits.
	//
	// Note on core.score_f32_us against core.score_us (bench/README.md):
	// the first pass over a fresh mapping measures page touch, not
	// compute. Once resident, the float32 path streams half the bytes per
	// item but is not twice as fast: it still performs the dot in float32
	// lanes that the compiler does not vectorize as aggressively as the
	// float64 loop. The reslice hints above recover ~10% of that.
	row := fi
	if bi == nil {
		for i := range dst {
			z := DotF32(fu, row[:k]) + userBias
			row = row[k:]
			dst[i] = 1 - math.Exp(-z)
		}
		return
	}
	for i := range dst {
		z := DotF32(fu, row[:k]) + userBias
		row = row[k:]
		z += float64(bi[i])
		dst[i] = 1 - math.Exp(-z)
	}
}

// ScoreErrorBoundF32 returns the worst-case absolute error of a
// probability computed by ScoreF32 over k-dimensional float32-quantized
// factors, relative to the float64 score of the unquantized model.
//
// Derivation, for the OCuLaR domain (all factors and biases
// non-negative): each stored operand carries one float32 rounding
// (relative error ≤ u = 2⁻²⁴), each float32 product one more, and each
// accumulator chain performs ⌈k/4⌉−1 float32 additions, so by the
// standard summation bound for non-negative terms the affinity satisfies
// |z̃ − z| ≤ (⌈k/4⌉ + 3)·u·z (quantized biases, added in float64,
// contribute ≤ u·z of that). The probability 1 − e^{−z} has derivative
// e^{−z} and z·e^{−z} ≤ 1/e, hence
//
//	|Δscore| ≤ (⌈k/4⌉ + 3) · 2⁻²⁴ / e,
//
// which is 1.3e−7 at K=10, 3.5e−7 at K=50 and still under 1.5e−6 at
// K=256 — orders of magnitude below the score differences top-M ranking
// depends on. (math.Exp's sub-ulp error is absorbed by the ceiling in
// the chain-length term.)
func ScoreErrorBoundF32(k int) float64 {
	return (math.Ceil(float64(k)/4) + 3) * 0x1p-24 / math.E
}
