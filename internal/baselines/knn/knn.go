// Package knn implements the two interpretable neighborhood baselines of
// Section VII-B2: user-based and item-based collaborative filtering with
// cosine similarity (Sarwar et al. 2000; Deshpande & Karypis 2004).
//
// On binary one-class data, the cosine similarity of users u and v reduces
// to |I_u ∩ I_v| / √(|I_u|·|I_v|), and analogously for items. A model keeps
// the top-N neighbor lists; scoring aggregates neighbor similarity mass
// over their purchases, producing the "similar users also bought" /
// "user bought similar items" style of recommendation the paper compares
// against.
package knn

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/parallel"
	"repro/internal/sparse"
)

// Config holds the single hyper-parameter of both baselines: the
// neighborhood size, tuned by grid search in the paper's protocol.
type Config struct {
	// Neighbors is the number of nearest neighbors kept per user (or item).
	// Required, >= 1.
	Neighbors int
	// Workers parallelizes the all-pairs similarity computation: 0 = every
	// core (parallel.DefaultWorkers, the default), 1 = serial. Neighbor lists
	// are computed per row, so every worker count gives the same model.
	Workers int
}

func (c Config) validate() error {
	if c.Neighbors < 1 {
		return fmt.Errorf("knn: Neighbors must be >= 1, got %d", c.Neighbors)
	}
	return nil
}

// neighbor is one entry of a similarity list.
type neighbor struct {
	idx int32
	sim float64
}

// UserModel scores items through similar users. It implements
// eval.Recommender.
type UserModel struct {
	users, items int
	r            *sparse.Matrix
	nbrs         [][]neighbor // per user, sorted by descending similarity
}

// TrainUser builds a user-based CF model from the positives in r.
func TrainUser(r *sparse.Matrix, cfg Config) (*UserModel, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &UserModel{users: r.Rows(), items: r.Cols(), r: r}
	m.nbrs = topNeighbors(r, cfg)
	return m, nil
}

// NumUsers returns the number of users the model was trained on.
func (m *UserModel) NumUsers() int { return m.users }

// NumItems returns the number of items the model was trained on.
func (m *UserModel) NumItems() int { return m.items }

// ScoreUser accumulates, for every item, the similarity mass of the
// neighbors of u that bought it: score(u,i) = Σ_{v ∈ N(u)} sim(u,v)·r_vi.
func (m *UserModel) ScoreUser(u int, dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	for _, nb := range m.nbrs[u] {
		for _, i := range m.r.Row(int(nb.idx)) {
			dst[i] += nb.sim
		}
	}
}

// ItemModel scores items through the user's own purchases. It implements
// eval.Recommender.
type ItemModel struct {
	users, items int
	r            *sparse.Matrix
	nbrs         [][]neighbor // per item, sorted by descending similarity
}

// TrainItem builds an item-based CF model from the positives in r.
func TrainItem(r *sparse.Matrix, cfg Config) (*ItemModel, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rt := r.Transpose()
	m := &ItemModel{users: r.Rows(), items: r.Cols(), r: r}
	m.nbrs = topNeighbors(rt, cfg)
	return m, nil
}

// NumUsers returns the number of users the model was trained on.
func (m *ItemModel) NumUsers() int { return m.users }

// NumItems returns the number of items the model was trained on.
func (m *ItemModel) NumItems() int { return m.items }

// ScoreUser accumulates similarity from each purchased item j to its
// neighbor items: score(u,i) = Σ_{j ∈ I_u} sim(i,j)·1{i ∈ N(j)}.
func (m *ItemModel) ScoreUser(u int, dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	for _, j := range m.r.Row(u) {
		for _, nb := range m.nbrs[int(j)] {
			dst[nb.idx] += nb.sim
		}
	}
}

// topNeighbors computes, for every row of r, its Neighbors most cosine-
// similar other rows. Intersections are accumulated by walking co-occurring
// rows through the transpose, which costs Σ_r Σ_{c ∈ r} deg(c) — far below
// the dense all-pairs bound on sparse data.
func topNeighbors(r *sparse.Matrix, cfg Config) [][]neighbor {
	rt := r.Transpose()
	n := r.Rows()
	out := make([][]neighbor, n)
	parallel.For(n, cfg.Workers, func(u int, scratch *parallel.Scratch) {
		counts := scratch.Float64s(n)
		row := r.Row(u)
		for _, c := range row {
			for _, v := range rt.Row(int(c)) {
				counts[v]++
			}
		}
		du := float64(len(row))
		if du == 0 {
			out[u] = nil
			return
		}
		cands := make([]neighbor, 0, 64)
		for v := range counts {
			if v == u || counts[v] == 0 {
				continue
			}
			sim := counts[v] / math.Sqrt(du*float64(r.RowNNZ(v)))
			cands = append(cands, neighbor{idx: int32(v), sim: sim})
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].sim != cands[b].sim {
				return cands[a].sim > cands[b].sim
			}
			return cands[a].idx < cands[b].idx
		})
		if len(cands) > cfg.Neighbors {
			cands = cands[:cfg.Neighbors]
		}
		out[u] = append([]neighbor(nil), cands...)
	})
	return out
}
