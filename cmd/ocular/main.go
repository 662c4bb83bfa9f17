// Command ocular trains an OCuLaR model and prints ranked, explained
// recommendations.
//
// Data comes either from a ratings file (-data, with -sep/-threshold) or a
// built-in synthetic preset (-preset movielens|citeulike|b2b|netflix|genes|small).
//
// Examples:
//
//	ocular -preset b2b -user 42 -top 5 -explain
//	ocular -data ratings.dat -sep :: -threshold 3 -k 100 -lambda 30 -holdout 0.25
//	ocular -preset small -all -top 3
package main

import (
	"flag"
	"fmt"
	"log"

	ocular "repro"

	"repro/internal/cliutil"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ocular: ")
	var (
		dataPath  = flag.String("data", "", "ratings file (user, item[, rating] per line)")
		sep       = flag.String("sep", ",", "field separator for -data (e.g. \",\", \"::\", \"\\t\")")
		threshold = flag.Float64("threshold", 0, "min rating counted as positive (0 = one-class two-column data)")
		preset    = flag.String("preset", "", "synthetic preset: movielens, citeulike, b2b, netflix, genes, small")
		seed      = flag.Uint64("seed", 1, "random seed")

		k        = flag.Int("k", 30, "number of co-clusters K")
		lambda   = flag.Float64("lambda", 5, "l2 regularization weight")
		relative = flag.Bool("relative", false, "use the R-OCuLaR relative-preference objective")
		iters    = flag.Int("iters", 150, "max training iterations")
		workers  = flag.Int("workers", 0, "parallel training workers (0 = all cores, 1 = serial)")

		holdout = flag.Float64("holdout", 0, "fraction of positives held out for evaluation (0 = train on all)")
		user    = flag.Int("user", -1, "user index to recommend for")
		all     = flag.Bool("all", false, "print the top recommendation for every user")
		top     = flag.Int("top", 5, "recommendations per user")
		explain = flag.Bool("explain", false, "print the co-cluster rationale per recommendation")
		m       = flag.Int("m", 50, "cutoff for holdout evaluation metrics")
		verbose = flag.Bool("v", false, "print objective per training iteration")
		save    = flag.String("save", "", "write the trained model to this file (serve it with ocular-serve)")
		saveF32 = flag.Bool("save-f32", true, "include a float32 copy of the factors in the saved model (ocular-serve scores it at half the memory traffic; score error < 1.5e-6 up to K=256, see linalg.ScoreErrorBoundF32)")

		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address while training (empty disables)")
	)
	flag.Parse()
	stopPprof, err := cliutil.StartPprof(*pprofAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer stopPprof()

	d, err := cliutil.LoadData(*dataPath, *sep, *threshold, *preset, *seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(d)

	train := d.R
	var test *ocular.Matrix
	if *holdout > 0 {
		sp := ocular.SplitDataset(d, 1-*holdout, *seed)
		train, test = sp.Train, sp.Test
		fmt.Printf("holding out %.0f%% of positives for evaluation\n", 100**holdout)
	}

	cfg := ocular.Config{
		K: *k, Lambda: *lambda, Relative: *relative,
		MaxIter: *iters, Seed: *seed, Workers: *workers,
	}
	if *verbose {
		cfg.OnIteration = func(iter int, q float64) {
			fmt.Printf("  iter %3d: objective %.2f\n", iter+1, q)
		}
	}
	res, err := ocular.Train(train, cfg)
	if err != nil {
		log.Fatal(err)
	}
	model := res.Model
	fmt.Printf("trained %v in %d iterations (converged=%v)\n",
		model, res.Iterations(), res.Converged)

	if *save != "" {
		if err := model.SaveModelFileOpts(*save, ocular.SaveOptions{Float32: *saveF32}); err != nil {
			log.Fatal(err)
		}
		suffix := ""
		if *saveF32 {
			suffix = ", float32 scoring section"
		}
		fmt.Printf("model saved to %s (format v2%s)\n", *save, suffix)
	}

	if test != nil {
		fmt.Printf("held-out metrics: %v AUC=%.4f\n",
			ocular.Evaluate(model, train, test, *m), ocular.AUC(model, train, test))
	}

	printRecs := func(u int) {
		recs := ocular.Recommend(model, train, u, *top)
		fmt.Printf("\n%s:\n", d.UserName(u))
		for rank, i := range recs {
			fmt.Printf("  %d. %s (confidence %.1f%%)\n", rank+1, d.ItemName(i), 100*model.Predict(u, i))
			if *explain {
				ex := ocular.ExplainPairOpts(model, train, u, i, ocular.ExplainOptions{MaxPeers: 3})
				for _, r := range ex.Reasons {
					fmt.Printf("     - co-cluster %d (contribution %.2f): similar to ", r.ClusterID, r.Contribution)
					for n, v := range r.SimilarUsers {
						if n > 0 {
							fmt.Print(", ")
						}
						fmt.Print(d.UserName(v))
					}
					fmt.Println()
				}
			}
		}
	}

	switch {
	case *user >= 0:
		if *user >= d.Users() {
			log.Fatalf("user %d out of range (%d users)", *user, d.Users())
		}
		printRecs(*user)
	case *all:
		for u := 0; u < d.Users(); u++ {
			if train.RowNNZ(u) == 0 {
				continue
			}
			recs := ocular.Recommend(model, train, u, 1)
			if len(recs) > 0 {
				fmt.Printf("%s -> %s (%.1f%%)\n",
					d.UserName(u), d.ItemName(recs[0]), 100*model.Predict(u, recs[0]))
			}
		}
	default:
		fmt.Println("\n(no -user or -all given; pass one to print recommendations)")
	}
}
