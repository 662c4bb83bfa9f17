// Package core implements the paper's primary contribution: the OCuLaR
// (Overlapping co-CLuster Recommendation) algorithm of Section IV and its
// relative-preference variant R-OCuLaR of Section V.
//
// The generative model assigns every user u and item i non-negative
// K-dimensional co-cluster affiliation vectors f_u, f_i and posits
//
//	P[r_ui = 1] = 1 − exp(−⟨f_u, f_i⟩).
//
// Training maximizes the ℓ2-regularized likelihood by cyclic block
// coordinate descent: all item factors are updated by one projected
// gradient step with Armijo backtracking, then all user factors, until the
// objective stops decreasing. The "sum trick" of Section IV-D makes one
// sweep O(nnz·K).
//
// The optional bias extension of Section IV-A
// (P = 1 − exp(−⟨f_u,f_i⟩ − b_u − b_i)) is available through Config.Bias.
package core

import (
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/parallel"
	"repro/internal/sparse"
)

// Model holds fitted OCuLaR factors. A Model implements eval.Recommender.
// Models are immutable after training and safe for concurrent use.
type Model struct {
	k      int
	users  int
	items  int
	fu, fi []float64 // flat, stride k, non-negative
	// bu, bi are the optional non-negative biases of Section IV-A; both
	// nil unless the model was trained with Config.Bias.
	bu, bi []float64
	// pin is the mapping the factor slices alias when the model is the
	// zero-copy view of an mmapped file (MappedModelRange.Model): holding
	// the view keeps the mapping alive. nil for heap models.
	pin *MappedModelRange
}

// K returns the number of co-clusters.
func (m *Model) K() int { return m.k }

// NumUsers returns the number of users the model was trained on.
func (m *Model) NumUsers() int { return m.users }

// NumItems returns the number of items the model was trained on.
func (m *Model) NumItems() int { return m.items }

// HasBias reports whether the model carries the Section IV-A bias terms.
func (m *Model) HasBias() bool { return m.bu != nil }

// UserBias returns b_u, or 0 for a model without biases.
func (m *Model) UserBias(u int) float64 {
	if m.bu == nil {
		return 0
	}
	return m.bu[u]
}

// ItemBias returns b_i, or 0 for a model without biases.
func (m *Model) ItemBias(i int) float64 {
	if m.bi == nil {
		return 0
	}
	return m.bi[i]
}

// UserFactor returns user u's affiliation vector. The slice aliases model
// storage and must not be modified.
func (m *Model) UserFactor(u int) []float64 { return m.fu[u*m.k : (u+1)*m.k] }

// ItemFactor returns item i's affiliation vector. The slice aliases model
// storage and must not be modified.
func (m *Model) ItemFactor(i int) []float64 { return m.fi[i*m.k : (i+1)*m.k] }

// Predict returns the model probability
// P[r_ui = 1] = 1 − exp(−⟨f_u, f_i⟩ − b_u − b_i).
func (m *Model) Predict(u, i int) float64 {
	return 1 - math.Exp(-m.Affinity(u, i))
}

// Affinity returns ⟨f_u, f_i⟩ plus any bias terms — the quantity whose
// exponential complement is the probability.
func (m *Model) Affinity(u, i int) float64 {
	z := linalg.Dot(m.UserFactor(u), m.ItemFactor(i))
	if m.bu != nil {
		z += m.bu[u] + m.bi[i]
	}
	return z
}

// PairContributions returns the per-co-cluster products [f_u]_c · [f_i]_c
// whose sum is the co-cluster part of Affinity(u, i). Explanations rank
// co-clusters by these contributions (Section IV-C).
func (m *Model) PairContributions(u, i int) []float64 {
	fu, fi := m.UserFactor(u), m.ItemFactor(i)
	out := make([]float64, m.k)
	for c := range out {
		out[c] = fu[c] * fi[c]
	}
	return out
}

// ScoreUser writes P[r_ui = 1] for every item into dst, implementing
// eval.Recommender.
func (m *Model) ScoreUser(u int, dst []float64) {
	m.ScoreWithFactor(m.UserFactor(u), m.UserBias(u), dst)
}

// ScoreWithFactor scores every item against an explicit user factor (and
// bias), which FoldInUser produces for users unseen at training time.
func (m *Model) ScoreWithFactor(fu []float64, bias float64, dst []float64) {
	linalg.Score(dst[:m.items], fu, m.fi, m.bi, bias)
}

// String describes the model shape.
func (m *Model) String() string {
	return fmt.Sprintf("core.Model(K=%d, %d users, %d items)", m.k, m.users, m.items)
}

// Grow returns a model extended to users × items, the warm-start bridge
// of the continuous-training pipeline: when the interaction feed brings
// positives for users or items unseen by the last model, the trained
// factors are kept verbatim and the new rows start at exactly zero — the
// deterministic choice, which Train's warm-start jitter then revives with
// the same seeded perturbation it applies to pruned co-clusters, so a
// grown warm start remains reproducible for a fixed Config.Seed. Biases,
// when present, grow the same way. Growing by zero rows returns m itself
// (models are immutable). Shrinking is refused: dropping trained factor
// rows would silently forget users and items, so a feed that shrank (or a
// mismatched base matrix) must be surfaced to the operator instead.
func (m *Model) Grow(users, items int) (*Model, error) {
	if users < m.users || items < m.items {
		return nil, fmt.Errorf("core: cannot grow model %dx%d down to %dx%d: shrinking would drop trained factors",
			m.users, m.items, users, items)
	}
	if users == m.users && items == m.items {
		return m, nil
	}
	g := &Model{
		k:     m.k,
		users: users,
		items: items,
		fu:    make([]float64, users*m.k),
		fi:    make([]float64, items*m.k),
	}
	copy(g.fu, m.fu)
	copy(g.fi, m.fi)
	if m.bu != nil {
		g.bu = make([]float64, users)
		g.bi = make([]float64, items)
		copy(g.bu, m.bu)
		copy(g.bi, m.bi)
	}
	return g, nil
}

// Objective evaluates the full regularized negative log-likelihood Q
// (eq. 4 of the paper) of this model on matrix r, with R-OCuLaR user
// weights when relative is true. Bias terms, when present, are included in
// the affinities and regularized with the same lambda. It is exported for
// tests and for the Fig 8 distance-to-optimal-likelihood experiment.
//
// Objective derives the weight table on every call and uses all cores; hot
// paths that evaluate Q repeatedly (the trainer's per-iteration convergence
// check) call ObjectiveWeighted with a cached table instead.
func (m *Model) Objective(r *sparse.Matrix, lambda float64, relative bool) float64 {
	return m.ObjectiveWeighted(r, lambda, userWeights(r, relative), 0)
}

// ObjectiveWeighted is Objective with the R-OCuLaR weight table supplied by
// the caller (nil for the unweighted OCuLaR objective; otherwise one weight
// per user) and an explicit worker count (0 = all cores). The O(nnz·K)
// positive-pair scan and the factor block sums run in parallel through
// fixed-block deterministic reductions, so the result is bit-identical for
// every worker count.
func (m *Model) ObjectiveWeighted(r *sparse.Matrix, lambda float64, weights []float64, workers int) float64 {
	if r.Rows() != m.users || r.Cols() != m.items {
		panic("core: Objective matrix shape mismatch")
	}
	if weights != nil && len(weights) != m.users {
		panic("core: Objective weight table length mismatch")
	}
	// Σ over unknowns of z = Σ over all pairs − Σ over positives, with
	// Σ over all pairs of ⟨fu,fi⟩ = ⟨Σu fu, Σi fi⟩ and the bias part
	// n_i·Σ b_u + n_u·Σ b_i.
	sumFU := make([]float64, m.k)
	sumFI := make([]float64, m.k)
	parallel.SumVectors(sumFU, m.fu, m.k, workers)
	parallel.SumVectors(sumFI, m.fi, m.k, workers)
	q := linalg.Dot(sumFU, sumFI)
	if m.bu != nil {
		var sbu, sbi float64
		for _, b := range m.bu {
			sbu += b
		}
		for _, b := range m.bi {
			sbi += b
		}
		q += float64(m.items)*sbu + float64(m.users)*sbi
	}
	q += parallel.ReduceSum(m.users, workers, func(lo, hi int) float64 {
		var part float64
		for u := lo; u < hi; u++ {
			row := r.Row(u)
			if len(row) == 0 {
				continue
			}
			fu := m.UserFactor(u)
			w := 1.0
			if weights != nil {
				w = weights[u]
			}
			// The weight is constant within a row, so the row's log terms
			// batch into a single logarithm of a renormalized product —
			// one math.Log per user instead of one per positive.
			var lp logProd
			lp.init()
			for _, ic := range row {
				i := int(ic)
				z := linalg.Dot(fu, m.ItemFactor(i))
				if m.bu != nil {
					z += m.bu[u] + m.bi[i]
				}
				part -= z // remove the positive pair from the unknown-sum term
				lp.mul(1 - math.Exp(-clampDot(z)))
			}
			part -= w * lp.log()
		}
		return part
	})
	q += lambda * (linalg.Norm2Sq(m.fu) + linalg.Norm2Sq(m.fi))
	if m.bu != nil {
		q += lambda * (linalg.Norm2Sq(m.bu) + linalg.Norm2Sq(m.bi))
	}
	return q
}

// minDot floors affinities of positive pairs so log(1−e^{−z}) stays finite
// when a factor pair is (numerically) orthogonal. The same floor is applied
// in objective and gradient so the Armijo comparisons are consistent.
// BIGCLAM uses the same safeguard.
const minDot = 1e-10

func clampDot(d float64) float64 {
	if d < minDot {
		return minDot
	}
	return d
}

// userWeights returns the R-OCuLaR weights w_u = |{i: r_ui=0}| / |{i:
// r_ui=1}| (Section V), or nil when relative is false. Users with no
// positives get weight 0; they contribute no positive terms anyway.
func userWeights(r *sparse.Matrix, relative bool) []float64 {
	if !relative {
		return nil
	}
	w := make([]float64, r.Rows())
	ni := r.Cols()
	for u := range w {
		pos := r.RowNNZ(u)
		if pos > 0 {
			w[u] = float64(ni-pos) / float64(pos)
		}
	}
	return w
}
