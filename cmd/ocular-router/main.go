// Command ocular-router fronts a sharded serving tier: item-partitioned
// ocular-serve shard processes (started with -shard-lo/-shard-hi) behind
// one scatter-gather endpoint speaking the single-process API.
//
//	ocular-serve -model model.bin -shard-lo 0    -shard-hi 5000 -addr :8081 &
//	ocular-serve -model model.bin -shard-lo 5000 -shard-hi -1   -addr :8082 &
//	ocular-router -shards http://localhost:8081,http://localhost:8082 -addr :8080
//
// Endpoints (JSON request/response):
//
//	POST /v1/recommend   {"user": 3, "m": 10}  top-M, bit-identical to one full server
//	POST /v1/batch       {"users": [1,2,3]}    many users, still one round trip per shard (/v2/batch: the same as frames)
//	POST /v1/admin/flip                         re-read shard versions/ranges (trainer rollout)
//	GET  /healthz                               route table: epoch, shard versions, ranges, breaker/health states
//	GET  /readyz                                readiness (503 until the first route table, and while draining)
//	GET  /metrics                               scatter, hedge, breaker, prober, admission and cache counters
//
// The router owns the top-M cache and singleflight (shards are
// cacheless). A request, single or batch, costs one round trip per shard:
// the users the cache cannot answer travel together in one binary frame to
// each shard's /v2/shard/topm. Every scatter pins each shard to the model
// version in the current route table, so partials of different model
// versions can never be merged — during a trainer rollout, shards serve
// pinned requests from their previous snapshot until the trainer flips the
// table.
//
// Shard failures fail requests closed (502) by default; -allow-degraded
// instead merges the surviving shards' partials and marks the response
// "degraded" (degraded lists are never cached). -hedge launches a second
// attempt against a slow shard after the given delay, bounded by
// -retry-budget.
//
// With -stages, the router runs the staged re-rank pipeline exactly once
// per request, after the scatter-gather merge: each shard is asked for
// the over-fetched candidate pool the stages declare, so the staged tier
// stays bit-identical to one staged full server. Shards themselves never
// re-rank. boost stages need -items-meta (and -model to size the table);
// diversify needs -model — point it at the same artifact the shards
// serve.
//
// The tier self-heals: per-shard circuit breakers (-breaker-threshold,
// -breaker-cooldown) stop burning timeouts on a shard that keeps
// failing, a background prober (-probe) marks unreachable or
// version-skewed shards down and returns them to rotation when their
// /readyz recovers, -request-timeout propagates the remaining deadline
// budget to shards (exhaustion is 504, not 502), and -max-inflight
// admission control sheds overload with 429 + Retry-After instead of
// queueing without bound. See the README's "Operating the cluster".
//
// At startup the router retries the initial shard refresh until -startup
// elapses, so shards and router can start in any order; SIGINT/SIGTERM
// flip /readyz to 503, wait -drain-wait, then drain connections and exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rank"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ocular-router: ")
	var (
		shards = flag.String("shards", "", "comma-separated shard base URLs (required)")
		addr   = flag.String("addr", ":8080", "listen address")

		cacheSize = flag.Int("cache", 4096, "cached merged top-M lists (negative disables)")
		maxM      = flag.Int("max-m", 1000, "cap on requested list length m (must not exceed the shards' -max-m)")
		maxBatch  = flag.Int("max-batch", 1024, "cap on users per /v1/batch request (must not exceed the shards' -max-batch)")
		maxBody   = flag.Int64("max-body", 0, "cap on request body bytes (0 = 1 MiB)")

		stages    = flag.String("stages", "", "staged re-rank pipeline applied once after the merge, e.g. \"floor=0.1,boost=0.5:promoted\"")
		modelPath = flag.String("model", "", "model file (the artifact the shards serve) — needed by diversify stages and to size -items-meta")
		itemsMeta = flag.String("items-meta", "", "item name/tag table for boost stages (item,name,tag,... lines; needs -model)")

		timeout       = flag.Duration("timeout", 2*time.Second, "per-attempt shard call deadline")
		hedge         = flag.Duration("hedge", 0, "launch a second attempt against a slow shard after this delay (0 = off)")
		allowDegraded = flag.Bool("allow-degraded", false, "serve from surviving shards when others fail (responses marked \"degraded\") instead of failing closed")
		startup       = flag.Duration("startup", 30*time.Second, "how long to retry the initial shard refresh before giving up")

		reqTimeout  = flag.Duration("request-timeout", 0, "end-to-end deadline per request, propagated to shards; exhaustion is 504 (0 = off)")
		brkThresh   = flag.Int("breaker-threshold", 0, "consecutive shard failures that trip its circuit breaker (0 = 5; negative disables)")
		brkCooldown = flag.Duration("breaker-cooldown", 0, "how long an open breaker fails fast before a half-open trial (0 = 1s)")
		probe       = flag.Duration("probe", 0, "health-probe interval for route repair (0 = 2s; probing starts once the tier is up)")
		noProbe     = flag.Bool("no-probe", false, "disable background health probing")
		retryBudget = flag.Float64("retry-budget", 0, "hedge retries allowed per primary attempt in a 10s window (0 = 0.2; negative = unlimited)")
		maxInFlight = flag.Int("max-inflight", 0, "admission control: concurrent data-plane requests (0 = unbounded)")
		maxQueue    = flag.Int("max-queue", 0, "admission control: waiters beyond -max-inflight before shedding 429 (0 = 2x max-inflight)")
		queueWait   = flag.Duration("queue-wait", 0, "admission control: how long a queued request may wait for a slot (0 = 100ms)")
		drainWait   = flag.Duration("drain-wait", 3*time.Second, "on SIGTERM, how long /readyz reports unready before connections drain")

		traceRing = flag.Int("trace-ring", 0, "recent request traces kept for GET /debug/traces (0 = 256; negative disables tracing)")
		traceSlow = flag.Duration("trace-slow", 0, "log a slow-request line for traced requests at or above this duration (0 disables)")
		pprofAddr = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables)")
	)
	flag.Parse()
	if *shards == "" {
		log.Fatal("pass -shards URL1,URL2,... (start shards with: ocular-serve -model model.bin -shard-lo L -shard-hi H)")
	}
	urls := cliutil.SplitURLs(*shards)

	var rtStages []rank.Stage
	if *stages != "" {
		var err error
		rtStages, err = buildStages(*stages, *modelPath, *itemsMeta)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("staged re-ranking: %d stages applied after the merge", len(rtStages))
	}

	rt, err := cluster.New(cluster.Config{
		Shards:           urls,
		Stages:           rtStages,
		MaxM:             *maxM,
		MaxBatch:         *maxBatch,
		MaxBodyBytes:     *maxBody,
		CacheSize:        *cacheSize,
		Timeout:          *timeout,
		HedgeDelay:       *hedge,
		AllowDegraded:    *allowDegraded,
		RequestTimeout:   *reqTimeout,
		BreakerThreshold: *brkThresh,
		BreakerCooldown:  *brkCooldown,
		ProbeInterval:    *probe,
		RetryBudget:      *retryBudget,
		MaxInFlight:      *maxInFlight,
		MaxQueue:         *maxQueue,
		QueueWait:        *queueWait,
		TraceRing:        *traceRing,
		TraceSlow:        *traceSlow,
		Logf:             log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	stopPprof, err := cliutil.StartPprof(*pprofAddr)
	if err != nil {
		log.Fatal(err)
	}
	defer stopPprof()

	// Retry the initial refresh so shards and router may start in any
	// order; serving 503s past -startup would only hide a dead tier.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	deadline := time.Now().Add(*startup)
	for {
		epoch, err := rt.Refresh(ctx)
		if err == nil {
			log.Printf("routing %d shards on %s (epoch %d)", len(urls), *addr, epoch)
			break
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			log.Fatalf("no route table after %v: %v", *startup, err)
		}
		log.Printf("waiting for shards: %v", err)
		select {
		case <-time.After(time.Second):
		case <-ctx.Done():
			log.Fatal("interrupted before the shard tier came up")
		}
	}

	// The prober starts only after the tier is known up: route repair
	// heals an established table, it does not gate startup.
	if !*noProbe {
		rt.StartProber(ctx)
	}

	if err := cliutil.Serve(ctx, *addr, rt.Handler(), rt.BeginDrain, *drainWait); err != nil {
		log.Fatal(err)
	}
	fmt.Println("bye")
}

// buildStages parses the -stages spec and constructs the router's
// post-merge pipeline. Stages needing per-item data pull it from the
// same model artifact the shards serve (-model): the tag table for
// boost is sized by its catalogue, and diversify reads its item
// factors — identical float64 bits to a full server's, which is what
// keeps staged routing bit-identical to staged single-process serving.
func buildStages(spec, modelPath, itemsMeta string) ([]rank.Stage, error) {
	specs, err := serve.ParseStageSpecs(spec)
	if err != nil {
		return nil, err
	}
	var model *core.Model
	if modelPath != "" {
		if model, err = core.LoadModelFile(modelPath); err != nil {
			return nil, err
		}
	}
	var tags *rank.TagTable
	if itemsMeta != "" {
		if model == nil {
			return nil, fmt.Errorf("-items-meta needs -model (the tag table is sized by the catalogue)")
		}
		if tags, err = rank.LoadTagTableFile(itemsMeta, model.NumItems()); err != nil {
			return nil, err
		}
	}
	return serve.BuildStages(specs, tags, model)
}
