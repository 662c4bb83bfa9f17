package main

import (
	"time"

	ocular "repro"

	"repro/internal/dataset"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// runFig7 reproduces the linear-scalability experiment of Fig 7: training
// time per iteration over increasing fractions of the Netflix substitute,
// for K in {10, 50, 100}. The claim under test is linearity in nnz and in
// K, not any absolute time.
func runFig7(rc runConfig) {
	rc.header("Figure 7: running time per iteration vs dataset fraction (Netflix substitute)")
	scale := 0.35
	iters := 3
	fracs := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	ks := []int{10, 50, 100}
	if rc.quick {
		scale, iters = 0.1, 2
		fracs = []float64{0.25, 0.5, 1.0}
		ks = []int{10, 50}
	}
	d := ocular.SyntheticNetflix(rc.seed, scale)
	rc.printf("base dataset: %s\n\n", d)
	rc.printf("  %-10s %-12s %-8s %14s %16s\n", "fraction", "positives", "K", "sec/iter", "us/(nnz*K)")
	r := rng.New(rc.seed * 77)
	for _, frac := range fracs {
		sub := dataset.SubsampleEntries(d.R, frac, r)
		for _, k := range ks {
			res, err := ocular.Train(sub, ocular.Config{
				K: k, Lambda: 5, MaxIter: iters, Tol: 1e-12, Seed: rc.seed,
			})
			if err != nil {
				panic(err)
			}
			var total time.Duration
			for _, t := range res.IterTime {
				total += t
			}
			perIter := total.Seconds() / float64(len(res.IterTime))
			// Normalized cost: should be roughly constant if time is
			// linear in nnz*K (the paper's claim).
			norm := perIter * 1e6 / (float64(sub.NNZ()) * float64(k))
			rc.printf("  %-10.2f %-12d %-8d %14.4f %16.4f\n",
				frac, sub.NNZ(), k, perIter, norm)
		}
	}
	rc.printf("\n(us/(nnz*K) roughly constant across rows => time linear in positives and in K)\n")
}

// runFig8 substitutes the paper's CPU-vs-GPU comparison with the serial
// reference engine versus the goroutine-parallel engine (DESIGN.md §4):
// same numerics, distance-to-optimal-objective vs wall-clock time, and the
// speedup at equal accuracy.
func runFig8(rc runConfig) {
	rc.header("Figure 8: serial vs parallel engine (GPU substitute), distance to optimal objective vs time")
	scale := 0.35
	k := 50
	maxIter := 25
	if rc.quick {
		scale, k, maxIter = 0.1, 20, 10
	}
	d := ocular.SyntheticNetflix(rc.seed, scale)
	workers := parallel.DefaultWorkers()
	rc.printf("dataset: %s, K=%d, workers(parallel)=%d\n\n", d, k, workers)

	type trace struct {
		name    string
		times   []float64 // cumulative seconds after each iteration
		objGap  []float64 // objective distance to the best seen across engines
		obj     []float64
		totalS  float64
		perIter float64
	}
	run := func(name string, workersN int) trace {
		res, err := ocular.Train(d.R, ocular.Config{
			K: k, Lambda: 5, MaxIter: maxIter, Tol: 1e-12, Seed: rc.seed, Workers: workersN,
		})
		if err != nil {
			panic(err)
		}
		tr := trace{name: name}
		cum := 0.0
		for n, t := range res.IterTime {
			cum += t.Seconds()
			tr.times = append(tr.times, cum)
			tr.obj = append(tr.obj, res.Objective[n+1])
		}
		tr.totalS = cum
		tr.perIter = cum / float64(len(res.IterTime))
		return tr
	}

	serial := run("serial", 1)
	par := run("parallel", workers)

	best := serial.obj[len(serial.obj)-1]
	if p := par.obj[len(par.obj)-1]; p < best {
		best = p
	}
	for _, tr := range []*trace{&serial, &par} {
		for _, o := range tr.obj {
			tr.objGap = append(tr.objGap, o-best)
		}
	}
	rc.printf("  %-10s %12s %12s %16s\n", "engine", "iter", "time (s)", "obj - best")
	for _, tr := range []trace{serial, par} {
		for n := range tr.times {
			if n%5 == 0 || n == len(tr.times)-1 {
				rc.printf("  %-10s %12d %12.3f %16.1f\n", tr.name, n+1, tr.times[n], tr.objGap[n])
			}
		}
	}
	rc.printf("\nper-iteration speedup (serial/parallel): %.2fx on %d worker(s)\n",
		serial.perIter/par.perIter, workers)
	rc.printf("(identical numerics: engines differ only in wall-clock; the paper reports 57x on a TITAN X GPU)\n")
}

// runFig9 reproduces the grid-search heatmap of Fig 9 on the B2B
// substitute: recall@50 over a (K, lambda) grid, fanned out over workers as
// the paper fanned cells over a Spark+GPU cluster.
func runFig9(rc runConfig) {
	rc.header("Figure 9: (K, lambda) grid search heatmap on the B2B substitute (recall@50)")
	d := ocular.SyntheticB2B(rc.seed)
	sp := ocular.SplitDataset(d.Dataset, 0.75, rc.seed*1000)
	grid := ocular.GridSearchGrid{
		Ks:      []int{5, 10, 15, 20, 30, 45, 60},
		Lambdas: []float64{0, 1, 2, 5, 10, 20, 50},
	}
	if rc.quick {
		grid = ocular.GridSearchGrid{Ks: []int{10, 30}, Lambdas: []float64{1, 10}}
	}
	res, err := ocular.GridSearch(sp.Train, sp.Test, grid, ocular.GridSearchOptions{
		M:       50,
		Base:    ocular.Config{MaxIter: 40, Seed: rc.seed},
		Workers: parallel.DefaultWorkers(),
	})
	if err != nil {
		panic(err)
	}
	rc.printf("%s\n", res.Heatmap())
	rc.printf("best cell: K=%d lambda=%.4g with recall@50=%.4f (%d cells searched)\n",
		res.Best.K, res.Best.Lambda, res.Best.Metrics.RecallAtM, len(res.Cells))
}
