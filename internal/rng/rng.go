// Package rng provides fast, deterministic pseudo-random number generation
// for reproducible experiments.
//
// The experiments in the paper average over repeated problem instances; to
// make every table and figure regenerable bit-for-bit, all stochastic
// components of this repository (dataset synthesis, train/test splits,
// factor initialization, SGD sampling) draw from generators in this package,
// seeded explicitly. The core generator is xoshiro256**, seeded through
// splitmix64, following the reference construction by Blackman and Vigna.
package rng

import "math"

// splitmix64 advances a 64-bit state and returns the next output. It is used
// to expand a single user seed into the four words of xoshiro256** state so
// that similar seeds yield uncorrelated streams.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a xoshiro256** pseudo-random generator. It is not safe for
// concurrent use; use Split to derive independent generators per goroutine.
type RNG struct {
	s [4]uint64
	// cached second normal variate from the Box-Muller transform
	hasGauss bool
	gauss    float64
}

// New returns a generator seeded from seed. Distinct seeds produce
// independent-looking streams; the same seed always produces the same stream.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro state must not be all zero; splitmix64 guarantees this except
	// for astronomically unlikely outputs, which we guard against anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Split derives a new generator from the current one. The derived generator
// is statistically independent of the parent's subsequent output, which makes
// Split suitable for handing one generator to each worker goroutine.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xa3ec647659359acd)
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	un := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			x = r.Uint64()
			hi, lo = mul64(x, un)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t&mask32 + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Float64 returns a uniformly random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// NormFloat64 returns a standard normal variate using the Box-Muller
// transform. Two variates are produced per transform; one is cached.
func (r *RNG) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return u * f
}

// Exp returns an exponentially distributed variate with rate lambda.
// It panics if lambda <= 0.
func (r *RNG) Exp(lambda float64) float64 {
	if lambda <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	return -math.Log(1-r.Float64()) / lambda
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle applies a Fisher-Yates shuffle over n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// Sample returns k distinct integers drawn uniformly from [0, n) in random
// order. It panics if k > n or k < 0. For k close to n it shuffles a full
// permutation; for small k it uses Floyd's algorithm to avoid O(n) work.
func (r *RNG) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Sample k out of range")
	}
	if k == 0 {
		return nil
	}
	if k*4 >= n {
		p := r.Perm(n)
		return p[:k]
	}
	// Floyd's algorithm: O(k) expected time, O(k) space.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Zipf returns integers in [0, n) with probability proportional to
// 1/(i+1)^s, using precomputed cumulative weights. Construct once with
// NewZipf and draw repeatedly.
type Zipf struct {
	cum []float64
	r   *RNG
}

// NewZipf builds a Zipf sampler over [0, n) with exponent s >= 0, drawing
// randomness from r. It panics if n <= 0.
func NewZipf(r *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with non-positive n")
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &Zipf{cum: cum, r: r}
}

// Draw returns the next Zipf-distributed index.
func (z *Zipf) Draw() int {
	u := z.r.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
