// Package bpr implements Bayesian Personalized Ranking matrix factorization
// (Rendle et al., UAI 2009), the relative-preference baseline of Section
// VII-B2 of the paper.
//
// BPR converts the positives into the training triple set
// D_S = {(u,i,j) : r_ui = 1, r_uj = 0} and maximizes
//
//	Σ_{(u,i,j)} ln σ(⟨f_u,f_i⟩ − ⟨f_u,f_j⟩) − λ(‖f_u‖² + ‖f_i‖² + ‖f_j‖²)
//
// by stochastic gradient ascent with uniformly bootstrap-sampled triples
// (the LearnBPR algorithm of the original paper).
package bpr

import (
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// Config holds BPR hyper-parameters. The paper grid-searches K and Lambda.
type Config struct {
	// K is the latent dimension. Required, >= 1.
	K int
	// LearnRate is the SGD step size α. Default 0.05.
	LearnRate float64
	// Lambda is the ℓ2 regularization weight applied to all three factors
	// of a triple. Default 0.0025 (the original paper's choice).
	Lambda float64
	// Epochs is the number of sweeps; each epoch draws nnz bootstrap
	// triples. Default 30.
	Epochs int
	// Seed seeds initialization and triple sampling.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.LearnRate == 0 {
		c.LearnRate = 0.05
	}
	if c.Lambda == 0 {
		c.Lambda = 0.0025
	}
	if c.Epochs == 0 {
		c.Epochs = 30
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.K < 1:
		return fmt.Errorf("bpr: K must be >= 1, got %d", c.K)
	case c.LearnRate <= 0:
		return fmt.Errorf("bpr: LearnRate must be > 0, got %v", c.LearnRate)
	case c.Lambda < 0:
		return fmt.Errorf("bpr: Lambda must be >= 0, got %v", c.Lambda)
	case c.Epochs < 1:
		return fmt.Errorf("bpr: Epochs must be >= 1, got %d", c.Epochs)
	}
	return nil
}

// Model holds fitted BPR factors; it implements eval.Recommender. Scores
// are ⟨f_u, f_i⟩ — only their per-user ordering is meaningful, matching
// BPR's ranking objective.
type Model struct {
	k            int
	users, items int
	fu, fi       []float64
}

// NumUsers returns the number of users the model was trained on.
func (m *Model) NumUsers() int { return m.users }

// NumItems returns the number of items the model was trained on.
func (m *Model) NumItems() int { return m.items }

// UserFactor returns user u's latent vector (aliases model storage).
func (m *Model) UserFactor(u int) []float64 { return m.fu[u*m.k : (u+1)*m.k] }

// ItemFactor returns item i's latent vector (aliases model storage).
func (m *Model) ItemFactor(i int) []float64 { return m.fi[i*m.k : (i+1)*m.k] }

// ScoreUser writes ⟨f_u, f_i⟩ for all items into dst.
func (m *Model) ScoreUser(u int, dst []float64) {
	fu := m.UserFactor(u)
	for i := 0; i < m.items; i++ {
		dst[i] = linalg.Dot(fu, m.ItemFactor(i))
	}
}

// Train fits a BPR model to the positives in r.
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
		m.fu[i] = (rnd.Float64() - 0.5) * scale
	}
	for i := range m.fi {
		m.fi[i] = (rnd.Float64() - 0.5) * scale
	}
	s := newSampler(r)
	if s == nil {
		return m, nil // no usable triples: nothing to learn
	}
	steps := cfg.Epochs * r.NNZ()
	lr, lam := cfg.LearnRate, cfg.Lambda
	for n := 0; n < steps; n++ {
		u, i, j := s.draw(rnd)
		fu := m.fu[u*k : (u+1)*k]
		fi := m.fi[i*k : (i+1)*k]
		fj := m.fi[j*k : (j+1)*k]
		x := linalg.Dot(fu, fi) - linalg.Dot(fu, fj)
		e := 1 / (1 + math.Exp(x)) // σ(−x) = 1 − σ(x)
		for c := 0; c < k; c++ {
			gu := e*(fi[c]-fj[c]) - lam*fu[c]
			gi := e*fu[c] - lam*fi[c]
			gj := -e*fu[c] - lam*fj[c]
			fu[c] += lr * gu
			fi[c] += lr * gi
			fj[c] += lr * gj
		}
	}
	return m, nil
}

// sampler draws uniform bootstrap triples (u, i, j) with r_ui = 1 and
// r_uj = 0. Users are drawn proportionally to their number of positives
// (uniform over positive examples, as in LearnBPR's bootstrap over D_S).
type sampler struct {
	r        *sparse.Matrix
	rowOf    []int32 // positive example index -> user
	anyValid bool
}

func newSampler(r *sparse.Matrix) *sampler {
	if r.NNZ() == 0 {
		return nil
	}
	rows, _ := r.Coords()
	s := &sampler{r: r, rowOf: rows}
	// A triple needs a user with at least one positive and one unknown.
	for u := 0; u < r.Rows(); u++ {
		if n := r.RowNNZ(u); n > 0 && n < r.Cols() {
			s.anyValid = true
			break
		}
	}
	if !s.anyValid {
		return nil
	}
	return s
}

func (s *sampler) draw(rnd *rng.RNG) (u, i, j int) {
	for {
		n := rnd.Intn(len(s.rowOf))
		u = int(s.rowOf[n])
		row := s.r.Row(u)
		if len(row) == s.r.Cols() {
			continue // user bought everything; no negative item exists
		}
		i = int(row[rnd.Intn(len(row))])
		for {
			j = rnd.Intn(s.r.Cols())
			if !s.r.Has(u, j) {
				return u, i, j
			}
		}
	}
}
