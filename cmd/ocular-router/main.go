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
//	GET  /metrics                               scatter, hedge, breaker, prober, admission, in-flight and cache counters
//
// The router owns the top-M cache and singleflight (shards are
// cacheless). A request, single or batch, costs one round trip per shard:
// the users the cache cannot answer travel together in one binary frame to
// each shard's /v2/shard/topm, sent over a persistent frame stream (GET
// /v2/shard/topm upgraded to ocular-frame/1; one idle stream is kept per
// shard for every concurrent scatter, counted as shard_dials in /metrics),
// so the shards must be of a release that serves the stream: deploy shards
// before routers. Every scatter pins each shard to the model
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
//
// -addr, -drain-wait, -pprof-addr and the edge flags (-cache, -max-m,
// -max-batch, -max-body, -max-inflight, -max-queue, -queue-wait,
// -trace-ring, -trace-slow) are declared once for this binary and
// ocular-serve by cliutil.DaemonFlags, and mean the same on both. Here
// -cache counts merged lists, and -max-m and -max-batch must not exceed
// the shards' own.
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
	d := cliutil.DaemonFlags(flag.CommandLine)
	var (
		shards = flag.String("shards", "", "comma-separated shard base URLs (required)")

		stages    = flag.String("stages", "", "staged re-rank pipeline applied once after the merge, e.g. \"floor=0.1,boost=0.5:promoted\"")
		modelPath = flag.String("model", "", "model file (the artifact the shards serve) — needed by diversify stages and to size -items-meta")
		itemsMeta = flag.String("items-meta", "", "item tag table for boost stages (item,name,tag,... lines; the name column is ignored; needs -model)")

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
		EdgeConfig:       d.Edge,
		Timeout:          *timeout,
		HedgeDelay:       *hedge,
		AllowDegraded:    *allowDegraded,
		RequestTimeout:   *reqTimeout,
		BreakerThreshold: *brkThresh,
		BreakerCooldown:  *brkCooldown,
		ProbeInterval:    *probe,
		RetryBudget:      *retryBudget,
		Logf:             log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Retry the initial refresh so shards and router may start in any
	// order; serving 503s past -startup would only hide a dead tier.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	deadline := time.Now().Add(*startup)
	for {
		epoch, err := rt.Refresh(ctx)
		if err == nil {
			log.Printf("routing %d shards on %s (epoch %d)", len(urls), d.Addr, epoch)
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

	if err := cliutil.Serve(ctx, d, rt.Handler(), rt.BeginDrain); err != nil {
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
