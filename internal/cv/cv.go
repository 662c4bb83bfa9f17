// Package cv implements the hyper-parameter selection protocol of the
// paper: grid search over the number of co-clusters K and the
// regularization weight λ, scored by held-out recommendation performance
// (Section IV-B "Choice of K and λ"; Figs 6 and 9).
//
// Grid cells are independent, so the search fans out over a worker pool —
// the same scheduling structure as the paper's Spark-over-8-GPUs grid
// search, with goroutines standing in for cluster workers (DESIGN.md §4).
package cv

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/sparse"
)

// Grid is the (K, λ) search space.
type Grid struct {
	Ks      []int
	Lambdas []float64
}

// Cells returns the size of the grid.
func (g Grid) Cells() int { return len(g.Ks) * len(g.Lambdas) }

// Cell is one evaluated grid point.
type Cell struct {
	K       int
	Lambda  float64
	Metrics eval.Metrics
	// Err records a training failure; Metrics is zero in that case.
	Err error
}

// Result is a completed grid search.
type Result struct {
	// Cells holds every grid point, ordered K-major then λ (row-major over
	// Grid.Ks × Grid.Lambdas).
	Cells []Cell
	// Best is the cell maximizing recall@M, the paper's selection metric;
	// ties break toward smaller K then smaller λ (cheaper, more regularized
	// models).
	Best Cell
}

// Options tunes the search.
type Options struct {
	// M is the recommendation cutoff for the selection metric. Default 50,
	// as in the paper's recall@50 heatmap.
	M int
	// Base supplies every core.Config field except K and Lambda, which the
	// grid overrides (solver budget, seed, Relative, Workers).
	Base core.Config
	// Workers is the number of concurrent grid cells. Default 1. Parallelism
	// stays at one level: with Workers > 1 the grid is the fan-out, and a
	// cell whose Base.Workers is 0 (every core) trains serially; an explicit
	// Base.Workers is honoured. Models are the same bits either way.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.M == 0 {
		o.M = 50
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.Workers > 1 && o.Base.Workers == 0 {
		o.Base.Workers = 1
	}
	return o
}

// Search trains one OCuLaR model per grid cell on train and evaluates it on
// test. It returns an error only for an invalid grid; per-cell training
// errors are recorded in the cells.
func Search(train, test *sparse.Matrix, grid Grid, opts Options) (*Result, error) {
	if len(grid.Ks) == 0 || len(grid.Lambdas) == 0 {
		return nil, fmt.Errorf("cv: empty grid")
	}
	for _, k := range grid.Ks {
		if k < 1 {
			return nil, fmt.Errorf("cv: invalid K=%d in grid", k)
		}
	}
	for _, l := range grid.Lambdas {
		if l < 0 {
			return nil, fmt.Errorf("cv: invalid lambda=%v in grid", l)
		}
	}
	opts = opts.withDefaults()

	cells := make([]Cell, grid.Cells())
	idx := 0
	for _, k := range grid.Ks {
		for _, l := range grid.Lambdas {
			cells[idx] = Cell{K: k, Lambda: l}
			idx++
		}
	}

	var wg sync.WaitGroup
	sem := make(chan struct{}, opts.Workers)
	for n := range cells {
		wg.Add(1)
		sem <- struct{}{}
		go func(c *Cell) {
			defer wg.Done()
			defer func() { <-sem }()
			cfg := opts.Base
			cfg.K = c.K
			cfg.Lambda = c.Lambda
			res, err := core.Train(train, cfg)
			if err != nil {
				c.Err = err
				return
			}
			c.Metrics = eval.Evaluate(res.Model, train, test, opts.M)
		}(&cells[n])
	}
	wg.Wait()

	r := &Result{Cells: cells}
	r.Best = pickBest(cells)
	return r, nil
}

func pickBest(cells []Cell) Cell {
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := cells[order[a]], cells[order[b]]
		if (ca.Err == nil) != (cb.Err == nil) {
			return ca.Err == nil
		}
		if sa, sb := ca.Metrics.RecallAtM, cb.Metrics.RecallAtM; sa != sb {
			return sa > sb
		}
		if ca.K != cb.K {
			return ca.K < cb.K
		}
		return ca.Lambda < cb.Lambda
	})
	return cells[order[0]]
}

// Heatmap formats the grid as rows of λ by columns of K with recall@M per
// cell — the textual analogue of the Fig 9 heatmap. Cells with errors print
// as "err".
func (r *Result) Heatmap() string {
	// Recover the axes from the cells.
	kSet, lSet := map[int]bool{}, map[float64]bool{}
	for _, c := range r.Cells {
		kSet[c.K] = true
		lSet[c.Lambda] = true
	}
	ks := make([]int, 0, len(kSet))
	for k := range kSet {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	ls := make([]float64, 0, len(lSet))
	for l := range lSet {
		ls = append(ls, l)
	}
	sort.Float64s(ls)

	lookup := make(map[[2]float64]Cell, len(r.Cells))
	for _, c := range r.Cells {
		lookup[[2]float64{float64(c.K), c.Lambda}] = c
	}
	var b []byte
	b = append(b, fmt.Sprintf("%10s", "lambda\\K")...)
	for _, k := range ks {
		b = append(b, fmt.Sprintf("%8d", k)...)
	}
	b = append(b, '\n')
	for _, l := range ls {
		b = append(b, fmt.Sprintf("%10.4g", l)...)
		for _, k := range ks {
			c, ok := lookup[[2]float64{float64(k), l}]
			switch {
			case !ok:
				b = append(b, fmt.Sprintf("%8s", "-")...)
			case c.Err != nil:
				b = append(b, fmt.Sprintf("%8s", "err")...)
			default:
				b = append(b, fmt.Sprintf("%8.4f", c.Metrics.RecallAtM)...)
			}
		}
		b = append(b, '\n')
	}
	return string(b)
}
