package cv

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/sparse"
)

func TestFoldsPartition(t *testing.T) {
	d := dataset.SyntheticSmall(60)
	const k = 4
	splits, err := Folds(d.R, k, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != k {
		t.Fatalf("got %d folds", len(splits))
	}
	// Test folds are disjoint and cover all positives exactly once.
	b := sparse.NewBuilder(d.R.Rows(), d.R.Cols())
	totalTest := 0
	for fi, sp := range splits {
		totalTest += sp.Test.NNZ()
		if sp.Train.NNZ()+sp.Test.NNZ() != d.R.NNZ() {
			t.Fatalf("fold %d: train+test != all", fi)
		}
		sp.Test.Each(func(u, i int) {
			if sp.Train.Has(u, i) {
				t.Fatalf("fold %d: entry in both halves", fi)
			}
			b.Add(u, i)
		})
	}
	if totalTest != d.R.NNZ() {
		t.Fatalf("test folds total %d, want %d", totalTest, d.R.NNZ())
	}
	if !b.Build().Equal(d.R) {
		t.Fatal("union of test folds != original (overlap or loss)")
	}
}

func TestFoldsValidation(t *testing.T) {
	d := dataset.SyntheticSmall(61)
	if _, err := Folds(d.R, 1, 1); err == nil {
		t.Error("1 fold accepted")
	}
	tiny := sparse.FromDense([][]bool{{true}})
	if _, err := Folds(tiny, 3, 1); err == nil {
		t.Error("more folds than positives accepted")
	}
}

func TestSearchKFold(t *testing.T) {
	d := dataset.SyntheticSmall(62)
	grid := Grid{Ks: []int{3, 6}, Lambdas: []float64{1, 4}}
	res, err := SearchKFold(d.R, grid, 3, 5, Options{
		M:    10,
		Base: core.Config{MaxIter: 8, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Err != nil {
			t.Fatalf("cell (%d,%v): %v", c.K, c.Lambda, c.Err)
		}
		if c.Metrics.RecallAtM <= 0 || c.Metrics.RecallAtM > 1 {
			t.Fatalf("cell (%d,%v) recall %v out of range", c.K, c.Lambda, c.Metrics.RecallAtM)
		}
	}
	// Best maximizes the averaged recall@M.
	for _, c := range res.Cells {
		if c.Metrics.RecallAtM > res.Best.Metrics.RecallAtM {
			t.Fatal("best is not the max")
		}
	}
}

func TestSearchKFoldDeterministic(t *testing.T) {
	d := dataset.SyntheticSmall(63)
	grid := Grid{Ks: []int{3}, Lambdas: []float64{1, 4}}
	opts := Options{M: 10, Base: core.Config{MaxIter: 5, Seed: 2}}
	a, err := SearchKFold(d.R, grid, 3, 7, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := SearchKFold(d.R, grid, 3, 7, opts)
	for i := range a.Cells {
		if a.Cells[i].Metrics != b.Cells[i].Metrics {
			t.Fatal("k-fold search not deterministic")
		}
	}
}
