// Package wals implements weighted Alternating Least Squares, the
// state-of-the-art one-class matrix factorization baseline of the paper
// (Pan et al., "One-class collaborative filtering", ICDM 2008; eq. (8) of
// the OCuLaR paper).
//
// The model minimizes
//
//	Σ_{u,i} w_ui (r_ui − ⟨f_u, f_i⟩)² + λ Σ‖f_u‖² + λ Σ‖f_i‖²
//
// with w_ui = 1 on positives and w_ui = b < 1 on unknowns (which are
// treated as weak negatives). Each ALS half-step solves a K×K
// ridge-regularized normal system per row exactly (Cholesky), using the
// Gram-matrix trick: FᵀWF = b·FᵀF + (1−b)·Σ_{positives} f fᵀ, so a full
// sweep costs O(nnz·K² + (n_u+n_i)·K³).
package wals

import (
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// Config holds wALS hyper-parameters. The paper's experiments fix B = 0.01
// and Lambda = 0.01 and grid-search K.
type Config struct {
	// K is the latent dimension. Required, >= 1.
	K int
	// B is the weight w_ui given to unknown (r_ui = 0) examples, 0 < B <= 1.
	B float64
	// Lambda is the ℓ2 regularization weight, >= 0.
	Lambda float64
	// Iters is the number of ALS sweeps (item half-step plus user
	// half-step). Default 15.
	Iters int
	// Seed seeds the factor initialization.
	Seed uint64
	// Workers parallelizes the per-row solves: 0 = every core
	// (parallel.DefaultWorkers, the default), 1 = serial. Rows are solved
	// independently, so every worker count gives the same factors.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Iters == 0 {
		c.Iters = 15
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.K < 1:
		return fmt.Errorf("wals: K must be >= 1, got %d", c.K)
	case c.B <= 0 || c.B > 1:
		return fmt.Errorf("wals: B must be in (0,1], got %v", c.B)
	case c.Lambda < 0:
		return fmt.Errorf("wals: Lambda must be >= 0, got %v", c.Lambda)
	case c.Iters < 1:
		return fmt.Errorf("wals: Iters must be >= 1, got %d", c.Iters)
	}
	return nil
}

// Model holds fitted wALS factors; it implements eval.Recommender. Unlike
// OCuLaR factors, these are unconstrained in sign, which is precisely why
// the paper deems them hard to interpret.
type Model struct {
	k            int
	users, items int
	fu, fi       []float64 // flat, stride k
}

// K returns the latent dimension.
func (m *Model) K() int { return m.k }

// NumUsers returns the number of users the model was trained on.
func (m *Model) NumUsers() int { return m.users }

// NumItems returns the number of items the model was trained on.
func (m *Model) NumItems() int { return m.items }

// UserFactor returns user u's latent vector (aliases model storage).
func (m *Model) UserFactor(u int) []float64 { return m.fu[u*m.k : (u+1)*m.k] }

// ItemFactor returns item i's latent vector (aliases model storage).
func (m *Model) ItemFactor(i int) []float64 { return m.fi[i*m.k : (i+1)*m.k] }

// Predict returns the reconstructed affinity ⟨f_u, f_i⟩.
func (m *Model) Predict(u, i int) float64 {
	return linalg.Dot(m.UserFactor(u), m.ItemFactor(i))
}

// ScoreUser writes ⟨f_u, f_i⟩ for all items into dst.
func (m *Model) ScoreUser(u int, dst []float64) {
	fu := m.UserFactor(u)
	for i := 0; i < m.items; i++ {
		dst[i] = linalg.Dot(fu, m.ItemFactor(i))
	}
}

// Loss evaluates the weighted squared objective on r, for convergence tests
// and the ablation benchmarks. Cost is O(n_u·n_i·K); use on small inputs.
func (m *Model) Loss(r *sparse.Matrix, b, lambda float64) float64 {
	loss := 0.0
	for u := 0; u < m.users; u++ {
		for i := 0; i < m.items; i++ {
			d := m.Predict(u, i)
			if r.Has(u, i) {
				loss += (1 - d) * (1 - d)
			} else {
				loss += b * d * d
			}
		}
	}
	return loss + lambda*(linalg.Norm2Sq(m.fu)+linalg.Norm2Sq(m.fi))
}

// Train fits a wALS model to the positives in r.
func Train(r *sparse.Matrix, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	k := cfg.K
	m := &Model{
		k:     k,
		users: r.Rows(),
		items: r.Cols(),
		fu:    make([]float64, r.Rows()*k),
		fi:    make([]float64, r.Cols()*k),
	}
	rnd := rng.New(cfg.Seed)
	scale := math.Sqrt(1 / float64(k))
	for i := range m.fu {
		m.fu[i] = rnd.Float64() * scale
	}
	for i := range m.fi {
		m.fi[i] = rnd.Float64() * scale
	}
	rt := r.Transpose()
	for it := 0; it < cfg.Iters; it++ {
		halfStep(m.fu, m.fi, r, cfg)  // solve users against fixed items
		halfStep(m.fi, m.fu, rt, cfg) // solve items against fixed users
	}
	return m, nil
}

// halfStep solves, for every row of rows (a n_rows x n_cols positives
// matrix), the ridge system
//
//	(b·G + (1−b)·Σ_{c ∈ row} g_c g_cᵀ + λI) f = Σ_{c ∈ row} g_c
//
// where G = Σ_c g_c g_cᵀ is the Gram matrix of the fixed block fixed.
func halfStep(target, fixed []float64, rows *sparse.Matrix, cfg Config) {
	k := cfg.K
	gram := linalg.NewMat(k, k)
	for off := 0; off < len(fixed); off += k {
		linalg.SymRankKUpdate(gram, fixed[off:off+k])
	}
	parallel.For(rows.Rows(), cfg.Workers, func(row int, scratch *parallel.Scratch) {
		buf := scratch.Float64s(k*k + k)
		a := &linalg.Mat{RowsN: k, ColsN: k, Data: buf[:k*k]}
		rhs := buf[k*k:]
		for i := 0; i < k*k; i++ {
			a.Data[i] = cfg.B * gram.Data[i]
		}
		for _, c := range rows.Row(row) {
			g := fixed[int(c)*k : (int(c)+1)*k]
			// (1−b) upgrade of the positive examples' weight from b to 1.
			for ii := 0; ii < k; ii++ {
				gi := g[ii] * (1 - cfg.B)
				if gi == 0 {
					continue
				}
				arow := a.Row(ii)
				for jj := 0; jj < k; jj++ {
					arow[jj] += gi * g[jj]
				}
			}
			linalg.Axpy(1, g, rhs)
		}
		linalg.AddDiag(a, cfg.Lambda)
		// SolveSPD overwrites rhs with the solution; only commit it to the
		// factor row on success. λ > 0 makes the system SPD; with λ = 0 and
		// a degenerate Gram matrix the row is left unchanged.
		if err := linalg.SolveSPD(a, rhs); err == nil {
			copy(target[row*k:(row+1)*k], rhs)
		}
	})
}
