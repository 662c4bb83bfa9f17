// Command ocular-serve answers recommendation queries over a trained,
// serialized OCuLaR model — the online half of the paper's train-once /
// serve-many production deployment (Section IV-D). Train and save a model
// with cmd/ocular -save, then:
//
//	ocular-serve -model model.bin -preset small -addr :8080
//
// Endpoints (JSON request/response):
//
//	POST /v1/recommend  {"user": 3, "m": 10}      top-M for a known user
//	POST /v1/foldin     {"items": [1,2,3]}        cold-start fold-in + top-M
//	POST /v1/explain    {"user": 3, "item": 7}    co-cluster rationale
//	POST /v1/batch      {"users": [1,2,3]}        many users in one round trip
//	POST /v1/ingest     {"user": 3, "items": [7]} append new positives to -feed
//	POST /v1/reload                                hot-swap the model from -model
//	GET  /healthz                                  liveness + model version
//	GET  /readyz                                   readiness (503 while loading or draining)
//	GET  /metrics                                  request counts, latencies, cache stats
//
// With -feed, /v1/ingest appends new positives to the interaction feed
// that ocular-trainer watches: the trainer retrains warm from the served
// model, rewrites -model, POSTs /v1/reload back and warms the cache —
// the full continuous-training loop with no manual step.
//
// recommend, batch and foldin additionally accept "exclude_items" (a
// per-request do-not-recommend list) and, when -items-meta supplies an
// item name/tag table, "filter": {"allow_tags": [...], "deny_tags": [...]}.
// Filtered requests are cached like unfiltered ones — the cache key
// fingerprints the filter set — and duplicate concurrent misses are
// coalesced into one ranking computation.
//
// The training matrix (-data or -preset, same flags as cmd/ocular) supplies
// the per-user exclusion lists: items a user already has are never
// recommended back. Without it every item is a candidate for every user.
//
// A format-v2 model file (what ocular -save writes) is mmapped and served
// in place: reload cost is O(1) in the model size, and every served score
// is the trained model's float64 score, bit for bit.
//
// SIGHUP (or POST /v1/reload) re-reads -model and atomically swaps it in
// without dropping in-flight requests; SIGINT/SIGTERM drain connections and
// exit.
//
// With -stages, every served list runs through the staged re-rank
// pipeline (score floor, tag boost, MMR diversification) after selection
// — see the README's "Staged re-ranking" section for the spec syntax.
// With -registry FILE, the process hosts the multi-model platform: named
// models, per-tenant A/B experiments with deterministic user→arm
// splits, shadow scoring against candidate models (-shadow-log), and
// per-tenant ingest feed partitions. Requests without a "tenant" field
// keep serving the default -model exactly as before.
//
// With -shard-lo/-shard-hi the process becomes one shard of the sharded
// serving tier: it mmaps only its item range of the model and serves
// partials for cmd/ocular-router to scatter-gather — frames carrying every
// user of a router batch in one call, over frame streams (GET
// /v2/shard/topm upgraded to ocular-frame/1), are what the router speaks;
// POST /v1/shard/topm is their one-user JSON twin — plus /v1/reload,
// /healthz and /metrics. -max-m and -max-batch must cover the router's.
// -shard-hi -1 means "through the end of the catalogue"; a -shard-lo
// without -shard-hi is refused, not served as the whole catalogue. Open
// streams outlive the HTTP drain and end after it, when the server
// closes. See the README's "Sharded serving" section.
//
// -addr, -drain-wait, -pprof-addr and the edge flags (-cache, -max-m,
// -max-batch, -max-body, -max-inflight, -max-queue, -queue-wait,
// -trace-ring, -trace-slow) are declared once for this binary and
// ocular-router by cliutil.DaemonFlags, and mean the same on both; see
// the README's "Operating the cluster".
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	ocular "repro"

	"repro/internal/cliutil"
	"repro/internal/feed"
	"repro/internal/rank"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ocular-serve: ")
	d := cliutil.DaemonFlags(flag.CommandLine)
	var (
		modelPath = flag.String("model", "", "serialized model file (from ocular -save); required")

		dataPath  = flag.String("data", "", "training ratings file for per-user exclusions")
		sep       = flag.String("sep", ",", "field separator for -data")
		threshold = flag.Float64("threshold", 0, "min rating counted as positive for -data")
		preset    = flag.String("preset", "", "synthetic preset used at training time (exclusions)")
		seed      = flag.Uint64("seed", 1, "preset generation seed (must match training)")

		itemsMeta = flag.String("items-meta", "", "item tag table (item,name,tag,... lines; the name column is ignored) enabling \"filter\" requests")
		feedDir   = flag.String("feed", "", "interaction feed directory enabling POST /v1/ingest (ocular-trainer retrains from it)")

		stages    = flag.String("stages", "", "staged re-rank pipeline for the default path, e.g. \"floor=0.1,boost=0.5:promoted,diversify=0.7:4\"")
		registry  = flag.String("registry", "", "multi-model registry config (JSON: named models, tenants, experiments, shadows)")
		shadowLog = flag.String("shadow-log", "", "append shadow-comparison diff records (JSON lines) to this file")

		lambda   = flag.Float64("lambda", 5, "fold-in l2 regularization weight")
		relative = flag.Bool("relative", false, "fold-in uses the R-OCuLaR objective")

		shardLo = flag.Int("shard-lo", 0, "shard mode: first item (inclusive) of the served partition")
		shardHi = flag.Int("shard-hi", 0, "shard mode: item upper bound (exclusive; -1 = end of catalogue; 0 = full-catalogue mode)")
	)
	flag.Parse()
	if *modelPath == "" {
		log.Fatal("pass -model FILE (train one with: ocular -preset small -save model.bin)")
	}
	shardMode := *shardHi != 0
	if shardMode && *feedDir != "" {
		log.Fatal("-feed is incompatible with shard mode (run ingest on a full server; shards are stateless)")
	}
	if shardMode && (*stages != "" || *registry != "") {
		log.Fatal("-stages and -registry are incompatible with shard mode (shards serve raw partials; stages run on the router, the registry on full servers)")
	}

	// Both shard flags always reach the config: NewFromFile refuses a
	// -shard-lo given without -shard-hi rather than serve everything.
	cfg := serve.Config{
		ModelPath:  *modelPath,
		FoldIn:     ocular.Config{Lambda: *lambda, Relative: *relative},
		EdgeConfig: d.Edge,
		ShardLo:    *shardLo,
		ShardHi:    *shardHi,
	}
	if *dataPath != "" || *preset != "" {
		d, err := cliutil.LoadData(*dataPath, *sep, *threshold, *preset, *seed)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Train = d.R
		log.Printf("exclusion matrix: %v", d)
	}
	var fl *feed.Log
	if *feedDir != "" {
		var err error
		fl, err = feed.Open(*feedDir, feed.Options{})
		if err != nil {
			log.Fatal(err)
		}
		cfg.Feed = fl
		log.Printf("interaction feed: %s (%d positives, %d segments)", *feedDir, fl.Count(), fl.Segments())
	}
	if *itemsMeta != "" {
		// The table's item range is bounded by the served model's
		// catalogue; peek at the model header to size it (O(1) for a v2
		// file — only the header is validated).
		numItems, err := modelNumItems(*modelPath)
		if err != nil {
			log.Fatal(err)
		}
		tags, err := rank.LoadTagTableFile(*itemsMeta, numItems)
		if err != nil {
			log.Fatal(err)
		}
		cfg.ItemTags = tags
		log.Printf("item metadata: %d tags over %d items", tags.NumTags(), tags.NumItems())
	}
	if *stages != "" {
		specs, err := serve.ParseStageSpecs(*stages)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Stages = specs
		log.Printf("staged re-ranking: %d stages on the default path", len(specs))
	}
	if *registry != "" {
		reg, err := serve.LoadRegistryFile(*registry)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Registry = reg
		log.Printf("multi-model registry: %d models, %d tenants (%s)", len(reg.Models), len(reg.Tenants), *registry)
	}
	var shadowW *os.File
	if *shadowLog != "" {
		if *registry == "" {
			log.Fatal("-shadow-log needs -registry (shadow comparisons are configured per tenant)")
		}
		var err error
		shadowW, err = os.OpenFile(*shadowLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatal(err)
		}
		cfg.ShadowLog = shadowW
		log.Printf("shadow diff log: %s", *shadowLog)
	}

	newServer := serve.NewFromFile
	if shardMode {
		newServer = serve.NewShardFromFile
	}
	srv, err := newServer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if shardMode {
		log.Printf("serving item shard [%d,%d) on %s (mmap; merge through ocular-router)", *shardLo, *shardHi, d.Addr)
	} else {
		log.Printf("serving %v on %s (mmap)", srv.Model(), d.Addr)
	}

	// SIGHUP hot-swaps the model; SIGINT/SIGTERM drain and exit.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := srv.ReloadFromFile(); err != nil {
				log.Printf("reload failed (still serving version %d): %v", srv.Version(), err)
				continue
			}
			if shardMode {
				log.Printf("reloaded shard (version %d)", srv.Version())
				continue
			}
			log.Printf("reloaded %v (version %d)", srv.Model(), srv.Version())
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	err = cliutil.Serve(ctx, d, srv.Handler(), srv.BeginDrain)
	// The feed writer buffers appends; a drained shutdown must not lose
	// the tail of the interaction log, so sync and close it explicitly
	// before deciding the exit status (log.Fatal would skip deferred
	// closes).
	if fl != nil {
		if serr := fl.Sync(); serr != nil {
			log.Printf("feed sync on shutdown: %v", serr)
		}
		if cerr := fl.Close(); cerr != nil {
			log.Printf("feed close on shutdown: %v", cerr)
		}
	}
	// The registry's per-tenant feed partitions buffer like -feed does;
	// sync and close them too, and let in-flight shadow comparisons finish
	// before their log file closes under them. Close also ends a shard's
	// frame streams: hijacked, they outlive the drain above.
	srv.ShadowFlush()
	if cerr := srv.Close(); cerr != nil {
		log.Printf("server close on shutdown: %v", cerr)
	}
	if shadowW != nil {
		if cerr := shadowW.Close(); cerr != nil {
			log.Printf("shadow log close on shutdown: %v", cerr)
		}
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("bye")
}

// modelNumItems reads the catalogue size out of a model file's header:
// one O(1) mmap and header validation, the short-lived mapping released
// by GC.
func modelNumItems(path string) (int, error) {
	mapped, err := ocular.OpenMappedModel(path)
	if err != nil {
		return 0, err
	}
	return mapped.NumItems(), nil
}
