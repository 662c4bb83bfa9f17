package community

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/linalg"
	"repro/internal/rng"
)

// BigClamConfig parameterizes the BIGCLAM fit. BIGCLAM shares OCuLaR's
// generative model P[edge] = 1 − exp(−⟨F_u, F_v⟩) but differs in exactly
// the ways Section II highlights: it runs on the unipartite graph (it would
// happily model user-user edges), and it uses no ℓ2 regularization.
type BigClamConfig struct {
	// K is the number of communities. Required, >= 1.
	K int
	// Seed seeds factor initialization.
	Seed uint64
}

// A fit runs at most bigClamMaxIter outer iterations and stops once the
// log-likelihood improves by less than bigClamTol·|L|.
const (
	bigClamMaxIter = 100
	bigClamTol     = 1e-4
)

// BigClam holds fitted node-community affiliations.
type BigClam struct {
	k int
	f []float64 // node affiliations, flat, stride k
	g *graph.Graph
}

// Factor returns node v's affiliation vector (aliases model storage).
func (b *BigClam) Factor(v int) []float64 { return b.f[v*b.k : (v+1)*b.k] }

// Communities thresholds the affiliations at delta and returns the node
// sets with at least one member. Yang & Leskovec use
// delta = sqrt(−log(1−ε)) with ε the background edge density; pass
// DefaultDelta for that choice.
func (b *BigClam) Communities(delta float64) [][]int {
	var out [][]int
	for c := 0; c < b.k; c++ {
		var set []int
		for v := 0; v < len(b.f)/b.k; v++ {
			if b.f[v*b.k+c] >= delta {
				set = append(set, v)
			}
		}
		if len(set) > 0 {
			out = append(out, set)
		}
	}
	return out
}

// DefaultDelta returns the membership threshold √(−log(1−ε)) with ε set to
// the graph's edge density, the rule from the BIGCLAM paper.
func DefaultDelta(g *graph.Graph) float64 {
	n := float64(g.N())
	if n < 2 {
		return 0
	}
	eps := 2 * float64(g.M()) / (n * (n - 1))
	if eps >= 1 {
		eps = 1 - 1e-9
	}
	return math.Sqrt(-math.Log(1 - eps))
}

// FitBigClam fits the cluster-affiliation model to g by projected gradient
// ascent on the log-likelihood, one node at a time, with the same sum trick
// as OCuLaR (which the OCuLaR paper credits to BIGCLAM).
func FitBigClam(g *graph.Graph, cfg BigClamConfig) (*BigClam, error) {
	if cfg.K < 1 {
		return nil, fmt.Errorf("community: K must be >= 1, got %d", cfg.K)
	}
	n := g.N()
	b := &BigClam{k: cfg.K, f: make([]float64, n*cfg.K), g: g}
	rnd := rng.New(cfg.Seed)
	scale := math.Sqrt(1 / float64(cfg.K))
	for i := range b.f {
		b.f[i] = rnd.Float64() * scale
	}
	sum := make([]float64, cfg.K)
	grad := make([]float64, cfg.K)
	cand := make([]float64, cfg.K)
	ll := b.logLikelihood(sum)
	for iter := 0; iter < bigClamMaxIter; iter++ {
		// Precompute ΣF once per sweep; maintain it incrementally as nodes
		// update so later nodes see fresh sums (Gauss-Seidel style, as in
		// the reference implementation).
		sumAll(sum, b.f, cfg.K)
		for v := 0; v < n; v++ {
			fv := b.Factor(v)
			b.nodeGradient(grad, sum, v)
			// Backtracking line search on the per-node likelihood.
			alpha := 1.0
			lOld := b.nodeLikelihood(sum, v, fv)
			improved := false
			for bt := 0; bt < 20; bt++ {
				for c := 0; c < cfg.K; c++ {
					w := fv[c] + alpha*grad[c]
					if w < 0 {
						w = 0
					}
					cand[c] = w
				}
				if b.nodeLikelihood(sum, v, cand) > lOld {
					improved = true
					break
				}
				alpha *= 0.5
			}
			if improved {
				for c := 0; c < cfg.K; c++ {
					sum[c] += cand[c] - fv[c]
				}
				copy(fv, cand)
			}
		}
		llNew := b.logLikelihood(sum)
		if llNew-ll <= bigClamTol*math.Abs(ll) {
			break
		}
		ll = llNew
	}
	return b, nil
}

// nodeGradient computes ∂L/∂F_v =
// Σ_{u∈N(v)} F_u·e^{−d}/(1−e^{−d}) − (ΣF − F_v − Σ_{u∈N(v)} F_u).
func (b *BigClam) nodeGradient(grad, sum []float64, v int) {
	k := b.k
	fv := b.Factor(v)
	for c := 0; c < k; c++ {
		grad[c] = -(sum[c] - fv[c])
	}
	for _, u := range b.g.Neighbors(v) {
		fu := b.Factor(int(u))
		d := linalg.Dot(fv, fu)
		if d < 1e-10 {
			d = 1e-10
		}
		e := math.Exp(-d)
		coef := 1 + e/(1-e) // +1 restores the non-neighbor subtraction
		for c := 0; c < k; c++ {
			grad[c] += coef * fu[c]
		}
	}
}

// nodeLikelihood evaluates the part of the log-likelihood depending on
// node v with candidate factor f:
// Σ_{u∈N(v)} log(1−e^{−⟨f,F_u⟩}) − ⟨f, ΣF − F_v − Σ_{u∈N(v)} F_u⟩.
// sum must be the current ΣF including v's current factor.
func (b *BigClam) nodeLikelihood(sum []float64, v int, f []float64) float64 {
	fv := b.Factor(v)
	l := 0.0
	dotSum := 0.0
	for c := 0; c < b.k; c++ {
		dotSum += f[c] * (sum[c] - fv[c])
	}
	for _, u := range b.g.Neighbors(v) {
		fu := b.Factor(int(u))
		d := linalg.Dot(f, fu)
		dotSum -= d
		if d < 1e-10 {
			d = 1e-10
		}
		l += math.Log(1 - math.Exp(-d))
	}
	return l - dotSum
}

// logLikelihood evaluates the full model log-likelihood
// Σ_{edges} log(1−e^{−d}) − Σ_{non-edges} d (each unordered pair once).
func (b *BigClam) logLikelihood(scratch []float64) float64 {
	n := b.g.N()
	sumAll(scratch, b.f, b.k)
	// Σ over all ordered pairs (u≠v) of d = ⟨ΣF,ΣF⟩ − Σ_v ⟨F_v,F_v⟩;
	// halve for unordered.
	total := linalg.Dot(scratch, scratch)
	for v := 0; v < n; v++ {
		total -= linalg.Norm2Sq(b.Factor(v))
	}
	total /= 2
	l := 0.0
	for v := 0; v < n; v++ {
		for _, u := range b.g.Neighbors(v) {
			if int(u) <= v {
				continue
			}
			d := linalg.Dot(b.Factor(v), b.Factor(int(u)))
			total -= d
			if d < 1e-10 {
				d = 1e-10
			}
			l += math.Log(1 - math.Exp(-d))
		}
	}
	return l - total
}

func sumAll(dst, flat []float64, k int) {
	for c := range dst {
		dst[c] = 0
	}
	for off := 0; off < len(flat); off += k {
		for c := 0; c < k; c++ {
			dst[c] += flat[off+c]
		}
	}
}
