// Command gridsearch runs the (K, lambda) cross-validated grid search of
// Section IV-B and prints the recall@M heatmap (the Fig 9 view) and the
// best cell.
//
// Examples:
//
//	gridsearch -preset b2b -ks 10,20,40 -lambdas 0,2,10
//	gridsearch -data ratings.csv -sep , -ks 20,50 -lambdas 1,5 -m 20
package main

import (
	"flag"
	"fmt"
	"log"

	ocular "repro"

	"repro/internal/cliutil"
	"repro/internal/parallel"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gridsearch: ")
	var (
		dataPath  = flag.String("data", "", "ratings file (user,item[,rating] per line)")
		sep       = flag.String("sep", ",", "field separator for -data")
		threshold = flag.Float64("threshold", 0, "min rating counted as positive")
		preset    = flag.String("preset", "", "synthetic preset: movielens, citeulike, b2b, netflix, genes, small")
		seed      = flag.Uint64("seed", 1, "random seed")

		ksFlag   = flag.String("ks", "10,20,40,80", "comma-separated K values")
		lamsFlag = flag.String("lambdas", "0,1,5,20", "comma-separated lambda values")
		m        = flag.Int("m", 50, "recall cutoff M")
		iters    = flag.Int("iters", 60, "max training iterations per cell")
		relative = flag.Bool("relative", false, "search the R-OCuLaR objective")
		frac     = flag.Float64("train-frac", 0.75, "train fraction of the split")
		folds    = flag.Int("folds", 0, "use k-fold cross-validation instead of a single split (0 = single split)")
	)
	flag.Parse()

	d, err := cliutil.LoadData(*dataPath, *sep, *threshold, *preset, *seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(d)

	ks, err := cliutil.ParseInts(*ksFlag)
	if err != nil {
		log.Fatalf("-ks: %v", err)
	}
	lams, err := cliutil.ParseFloats(*lamsFlag)
	if err != nil {
		log.Fatalf("-lambdas: %v", err)
	}

	gsOpts := ocular.GridSearchOptions{
		M:       *m,
		Base:    ocular.Config{MaxIter: *iters, Seed: *seed, Relative: *relative},
		Workers: parallel.DefaultWorkers(),
	}
	grid := ocular.GridSearchGrid{Ks: ks, Lambdas: lams}
	var res *ocular.GridSearchResult
	if *folds >= 2 {
		res, err = ocular.GridSearchKFold(d.R, grid, *folds, *seed, gsOpts)
	} else {
		sp := ocular.SplitDataset(d, *frac, *seed)
		res, err = ocular.GridSearch(sp.Train, sp.Test, grid, gsOpts)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrecall@%d heatmap (rows lambda, cols K):\n%s\n", *m, res.Heatmap())
	fmt.Printf("best: K=%d lambda=%g -> %v\n", res.Best.K, res.Best.Lambda, res.Best.Metrics)
}
