package cv

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sparse"
)

// Folds partitions the positives of m into k disjoint test matrices with
// matching training complements. Fold f's test holds roughly nnz/k
// positives; its train holds all others. The union of the test folds is
// exactly the positives of m.
func Folds(m *sparse.Matrix, k int, seed uint64) ([]Split2, error) {
	if k < 2 {
		return nil, fmt.Errorf("cv: need at least 2 folds, got %d", k)
	}
	if m.NNZ() < k {
		return nil, fmt.Errorf("cv: %d positives cannot fill %d folds", m.NNZ(), k)
	}
	perm := rng.New(seed).Perm(m.NNZ())
	out := make([]Split2, k)
	for f := 0; f < k; f++ {
		lo := f * m.NNZ() / k
		hi := (f + 1) * m.NNZ() / k
		test := perm[lo:hi]
		train := make([]int, 0, m.NNZ()-(hi-lo))
		train = append(train, perm[:lo]...)
		train = append(train, perm[hi:]...)
		out[f] = Split2{
			Train: m.SelectEntries(train),
			Test:  m.SelectEntries(test),
		}
	}
	return out, nil
}

// Split2 is a train/test pair (mirrors dataset.Split without the import
// cycle; both halves keep the full matrix shape).
type Split2 struct {
	Train, Test *sparse.Matrix
}

// SearchKFold runs the grid search of Section IV-B with k-fold
// cross-validation: every (K, λ) cell is trained and evaluated once per
// fold and its metrics are averaged, which is the paper's "determined from
// the data via cross-validation" protocol in full. Cell training errors
// abort the cell (recorded in Cell.Err) but not the search.
func SearchKFold(m *sparse.Matrix, grid Grid, folds int, seed uint64, opts Options) (*Result, error) {
	splits, err := Folds(m, folds, seed)
	if err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	var agg *Result
	for fi, sp := range splits {
		res, err := Search(sp.Train, sp.Test, grid, opts)
		if err != nil {
			return nil, fmt.Errorf("cv: fold %d: %w", fi, err)
		}
		if agg == nil {
			agg = res
			continue
		}
		for ci := range agg.Cells {
			a, b := &agg.Cells[ci], res.Cells[ci]
			if a.Err == nil && b.Err != nil {
				a.Err = b.Err
				continue
			}
			a.Metrics.RecallAtM += b.Metrics.RecallAtM
			a.Metrics.MAPAtM += b.Metrics.MAPAtM
			a.Metrics.PrecisionAtM += b.Metrics.PrecisionAtM
			a.Metrics.Users += b.Metrics.Users
		}
	}
	inv := 1 / float64(folds)
	for ci := range agg.Cells {
		c := &agg.Cells[ci]
		c.Metrics.RecallAtM *= inv
		c.Metrics.MAPAtM *= inv
		c.Metrics.PrecisionAtM *= inv
	}
	agg.Best = pickBest(agg.Cells)
	return agg, nil
}
