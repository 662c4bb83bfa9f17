// Command ocular-trainer is the retraining daemon of the continuous-
// training pipeline: it watches an interaction feed for new positives,
// retrains the OCuLaR model warm from the last one, and rolls the result
// out to a running ocular-serve process.
//
//	ocular-serve   -model model.bin -preset small -feed feed/ -addr :8080
//	ocular-trainer -model model.bin -preset small -feed feed/ -server http://localhost:8080
//
// New positives enter the feed through the server's POST /v1/ingest (or
// any other single writer of the feed directory). Each cycle replays the
// feed, folds it into the base training matrix — growing the catalogue
// when new users or items appear — warm-starts from the model at -model
// (core.Config.WarmStart, factors grown deterministically), trains,
// saves a format-v2 artifact atomically, POSTs /v1/reload and verifies
// through the versioned handshake that the server swapped to a strictly
// newer model, then warms the server's rank cache for the hottest users
// via /v1/batch.
//
// Against a multi-model (-registry) server, add -model-name: each cycle
// reloads that named model via POST /v1/reload {"model": NAME} and
// confirms the swap against the model's own version counter in
// /healthz's models tree. -model must match the path the registry maps
// the name to.
//
// Against a sharded serving tier, replace -server with -shards and
// -router: each cycle runs the versioned reload handshake against every
// shard (all must confirm — a partial quorum aborts before anything
// changes for clients), then flips the router's route table via
// /v1/admin/flip, verifies its epoch advanced, and warms the router's
// cache. See the README's "Sharded serving" section.
//
// Retraining triggers: -min-new fires on feed backlog (count), -interval
// fires on elapsed time with any backlog. -once runs exactly one
// unconditional cycle and exits — the CI smoke mode and the cron-job
// alternative to the daemon. After a -once cycle the saved artifact is
// re-opened through the mmap reader as a self-check.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	ocular "repro"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/trainer"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ocular-trainer: ")
	var (
		feedDir   = flag.String("feed", "", "interaction feed directory (written by ocular-serve -feed); required")
		modelPath = flag.String("model", "", "model file: warm-start source and save target; required")

		dataPath  = flag.String("data", "", "base ratings file the feed grows on top of (user, item[, rating] per line)")
		sep       = flag.String("sep", ",", "field separator for -data")
		threshold = flag.Float64("threshold", 0, "min rating counted as positive for -data")
		preset    = flag.String("preset", "", "synthetic preset as the base matrix (same names as cmd/ocular)")
		seed      = flag.Uint64("seed", 1, "random seed (preset generation and training)")

		k        = flag.Int("k", 30, "number of co-clusters K")
		lambda   = flag.Float64("lambda", 5, "l2 regularization weight")
		relative = flag.Bool("relative", false, "use the R-OCuLaR relative-preference objective")
		iters    = flag.Int("iters", 150, "max training iterations per cycle")
		workers  = flag.Int("workers", 0, "parallel training workers (0 = all cores, 1 = serial)")

		server    = flag.String("server", "", "ocular-serve base URL to roll models out to (e.g. http://localhost:8080)")
		modelName = flag.String("model-name", "", "named model of a -registry server to reload (the handshake tracks that model's own version counter)")
		shards    = flag.String("shards", "", "comma-separated shard base URLs for the quorum rollout (with -router; mutually exclusive with -server)")
		router    = flag.String("router", "", "ocular-router base URL whose route table is flipped after all -shards confirm")
		minNew    = flag.Int("min-new", 100, "retrain once this many new positives accumulated")
		interval  = flag.Duration("interval", 15*time.Minute, "retrain after this long with any backlog (0 disables)")
		poll      = flag.Duration("poll", 5*time.Second, "feed poll period")
		warmUsers = flag.Int("warm-cache", 64, "after a rollout, warm the server's rank cache for this many of the hottest users (0 disables)")
		warmM     = flag.Int("warm-cache-m", 10, "list length of cache-warming requests")
		once      = flag.Bool("once", false, "run one unconditional retrain cycle and exit")

		metricsAddr = flag.String("metrics-addr", "", "serve GET /metrics (backlog gauge, per-cycle phase durations; ?format=prometheus) on this address (empty disables)")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables)")
	)
	flag.Parse()
	switch {
	case *feedDir == "":
		log.Fatal("pass -feed DIR (the directory ocular-serve -feed appends to)")
	case *modelPath == "":
		log.Fatal("pass -model FILE (warm-start source and save target)")
	}

	cfg := trainer.Config{
		FeedDir:   *feedDir,
		ModelPath: *modelPath,
		Train: core.Config{
			K: *k, Lambda: *lambda, Relative: *relative,
			MaxIter: *iters, Seed: *seed, Workers: *workers,
		},
		ServerURL:       *server,
		ModelName:       *modelName,
		ShardURLs:       cliutil.SplitURLs(*shards),
		RouterURL:       strings.TrimRight(*router, "/"),
		MinNewPositives: *minNew,
		MaxInterval:     *interval,
		PollInterval:    *poll,
		WarmCacheUsers:  *warmUsers,
		WarmCacheM:      *warmM,
		Logf:            log.Printf,
	}
	if *dataPath != "" || *preset != "" {
		d, err := cliutil.LoadData(*dataPath, *sep, *threshold, *preset, *seed)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Base = d.R
		log.Printf("base matrix: %v", d)
	}
	if *metricsAddr != "" {
		cfg.Metrics = trainer.NewMetrics()
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", cfg.Metrics)
		srv := &http.Server{Addr: *metricsAddr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("metrics server: %v", err)
			}
		}()
		log.Printf("metrics on %s", *metricsAddr)
	}
	stopPprof, err := cliutil.StartPprof(*pprofAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer stopPprof()

	tr, err := trainer.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *once {
		cy, err := tr.RunOnce(ctx)
		if err != nil {
			log.Fatal(err)
		}
		// Self-check: the artifact must open through the serving path and
		// pass the full factor-domain scan.
		mapped, err := ocular.OpenMappedModel(*modelPath)
		if err == nil {
			err = mapped.Verify()
		}
		if err != nil {
			log.Fatalf("saved model failed the mmap self-check: %v", err)
		}
		log.Printf("trained %dx%d (nnz=%d) in %d iterations (converged=%v, warm=%v); artifact %s verified",
			cy.Users, cy.Items, cy.NNZ, cy.Iterations, cy.Converged, cy.WarmStarted, *modelPath)
		return
	}

	log.Printf("watching %s (retrain at %d new positives or %v backlog age; poll %v)",
		*feedDir, *minNew, *interval, *poll)
	if err := tr.Run(ctx); err != nil {
		log.Fatal(err)
	}
	log.Print("bye")
}
