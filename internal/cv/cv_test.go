package cv

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rng"
)

func TestSearchValidation(t *testing.T) {
	d := dataset.SyntheticSmall(1)
	sp := dataset.SplitEntries(d.R, 0.75, rng.New(1))
	if _, err := Search(sp.Train, sp.Test, Grid{}, Options{}); err == nil {
		t.Error("empty grid accepted")
	}
	if _, err := Search(sp.Train, sp.Test, Grid{Ks: []int{0}, Lambdas: []float64{1}}, Options{}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := Search(sp.Train, sp.Test, Grid{Ks: []int{2}, Lambdas: []float64{-1}}, Options{}); err == nil {
		t.Error("negative lambda accepted")
	}
}

func TestSearchEvaluatesAllCells(t *testing.T) {
	d := dataset.SyntheticSmall(2)
	sp := dataset.SplitEntries(d.R, 0.75, rng.New(2))
	grid := Grid{Ks: []int{2, 4}, Lambdas: []float64{0.5, 2, 8}}
	res, err := Search(sp.Train, sp.Test, grid, Options{
		M:    10,
		Base: core.Config{MaxIter: 5, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 6 {
		t.Fatalf("got %d cells, want 6", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Err != nil {
			t.Fatalf("cell (%d,%v) failed: %v", c.K, c.Lambda, c.Err)
		}
		if c.Metrics.Users == 0 {
			t.Fatalf("cell (%d,%v) evaluated no users", c.K, c.Lambda)
		}
	}
}

func TestSearchBestIsMax(t *testing.T) {
	d := dataset.SyntheticSmall(3)
	sp := dataset.SplitEntries(d.R, 0.75, rng.New(3))
	grid := Grid{Ks: []int{2, 6}, Lambdas: []float64{1, 4}}
	res, err := Search(sp.Train, sp.Test, grid, Options{
		M:    10,
		Base: core.Config{MaxIter: 8, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		if c.Metrics.RecallAtM > res.Best.Metrics.RecallAtM {
			t.Fatalf("cell (%d,%v)=%v beats Best (%d,%v)=%v",
				c.K, c.Lambda, c.Metrics.RecallAtM,
				res.Best.K, res.Best.Lambda, res.Best.Metrics.RecallAtM)
		}
	}
}

// TestSearchParallelMatchesSerial: no schedule changes a cell. The
// reference trains every cell serially one after another; the others fan
// out over cells (Base.Workers 0 then trains each cell serially) or, with
// one cell at a time, over every core inside the cell.
func TestSearchParallelMatchesSerial(t *testing.T) {
	d := dataset.SyntheticSmall(4)
	sp := dataset.SplitEntries(d.R, 0.75, rng.New(4))
	grid := Grid{Ks: []int{2, 3}, Lambdas: []float64{1, 2}}
	opts := Options{M: 10, Base: core.Config{MaxIter: 4, Seed: 5, Workers: 1}}
	serial, err := Search(sp.Train, sp.Test, grid, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 1} {
		opts.Workers, opts.Base.Workers = workers, 0
		par, err := Search(sp.Train, sp.Test, grid, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial.Cells {
			if serial.Cells[i].Metrics != par.Cells[i].Metrics {
				t.Fatalf("Workers %d: cell %d differs from the serial search", workers, i)
			}
		}
		if serial.Best.K != par.Best.K || serial.Best.Lambda != par.Best.Lambda {
			t.Fatalf("Workers %d: best cell differs", workers)
		}
	}
}

func TestHeatmapFormat(t *testing.T) {
	d := dataset.SyntheticSmall(6)
	sp := dataset.SplitEntries(d.R, 0.75, rng.New(6))
	grid := Grid{Ks: []int{2, 3}, Lambdas: []float64{0.5, 1}}
	res, err := Search(sp.Train, sp.Test, grid, Options{M: 10, Base: core.Config{MaxIter: 3, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	hm := res.Heatmap()
	lines := strings.Split(strings.TrimRight(hm, "\n"), "\n")
	if len(lines) != 3 { // header + 2 lambda rows
		t.Fatalf("heatmap has %d lines:\n%s", len(lines), hm)
	}
	if !strings.Contains(lines[0], "2") || !strings.Contains(lines[0], "3") {
		t.Errorf("header missing K values: %q", lines[0])
	}
	if !strings.HasPrefix(strings.TrimSpace(lines[1]), "0.5") {
		t.Errorf("first row should be lambda=0.5: %q", lines[1])
	}
}

func TestGridCells(t *testing.T) {
	g := Grid{Ks: []int{1, 2, 3}, Lambdas: []float64{0, 1}}
	if g.Cells() != 6 {
		t.Fatalf("Cells() = %d", g.Cells())
	}
}
