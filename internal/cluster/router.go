// Package cluster is the sharded serving tier's scatter-gather router: a
// front-end that answers the single-process /v1/recommend, /v1/batch and
// /v2/batch API — serve's Front, the very codecs and answers a full
// server mounts, over the router's own pipeline (Router.batch) — by
// fanning each request out to item-partitioned shard processes
// (serve.NewShardFromFile), merging the per-shard top-M partials with a
// rank.Merger, and caching the merged lists. A request — one user or a
// batch — costs one round trip per shard: the users its cache cannot
// answer travel together in one frame of internal/wire (POST
// /v2/shard/topm), and every shard answers one frame of partials. Because
// per-item scores are independent of the rest of the catalogue, the
// merged lists are bit-identical — same items, same float64 score bits —
// to what one process serving the whole model would return. A configured
// re-rank pipeline (Config.Stages) runs exactly once, after the merge,
// over a scatter over-fetched to the stages' candidate pool — so staged
// routing stays bit-identical to single-process staged serving too.
//
// The router owns the fingerprint cache and the singleflight; shards stay
// cacheless and stateless. Consistency across rollouts rests on two
// mechanisms:
//
//   - Every scatter pins the model version it expects from each shard
//     (the versions recorded in the route table); a shard serving neither
//     that version nor its immediate predecessor answers 409, so partials
//     of mixed model versions can never meet in one merge.
//   - The route table carries an epoch, advanced by every Refresh (the
//     trainer flips it via POST /v1/admin/flip after its quorum reload),
//     and the epoch is folded into every cache fingerprint — a cache
//     entry merged under an old table is unreachable the moment the
//     table flips, with no flush or coordination.
//
// Shard failures fail the request closed by default (a silently
// truncated catalogue is a wrong answer, not a degraded one). With
// Config.AllowDegraded the router instead merges the surviving partials
// and marks the response degraded; degraded merges are never cached and
// never shared with coalesced waiters.
package cluster

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/rank"
	"repro/internal/serve"
	"repro/internal/wire"
)

// Config tunes a Router. Shards is required; everything else defaults.
type Config struct {
	// Shards are the base URLs of the shard processes (e.g.
	// "http://10.0.0.1:8081"). Their item ranges are discovered from
	// /healthz by Refresh and must exactly partition the catalogue.
	Shards []string
	// MaxM caps the requested list length m. 0 means 1000. The shards'
	// own MaxM must cover rank.StagesOverFetch(MaxM, Stages) — the
	// router forwards m verbatim without stages, over-fetched with them.
	MaxM int
	// MaxBatch caps the number of users in one /v1/batch request. 0 means
	// 1024. The shards' own MaxBatch must cover it, as their MaxM must
	// cover MaxM: a batch's cache misses reach every shard as one request,
	// never chunked, and a shard's 400 surfaces as the router's.
	MaxBatch int
	// MaxBodyBytes caps request body size. 0 means 1 MiB.
	MaxBodyBytes int64
	// CacheSize is the approximate total number of cached merged lists; 0
	// means 4096, negative disables caching.
	CacheSize int
	// Timeout is the per-attempt deadline of one shard call. 0 means 2s.
	Timeout time.Duration
	// HedgeDelay, when positive, launches a second identical attempt
	// against a shard that has neither answered nor failed after this
	// long (and immediately after a fast failure); the first success
	// wins. 0 disables hedging — one attempt per shard. Hedges draw from
	// the retry budget (see RetryBudget).
	HedgeDelay time.Duration
	// RequestTimeout, when positive, bounds one router request end to
	// end: scatter, hedges and merge all inherit its deadline, and its
	// exhaustion surfaces as 504. 0 means no overall deadline —
	// per-attempt deadlines (Timeout) still apply.
	RequestTimeout time.Duration
	// BreakerThreshold is the number of consecutive counted failures
	// (timeouts, transport errors, shard 5xx — never deterministic 4xx or
	// rollout version conflicts) that trips a shard's circuit breaker
	// open. An open breaker fails the shard's calls fast (degraded merge
	// or fail-closed, per AllowDegraded) instead of burning a timeout per
	// request, then heals through a single half-open trial after
	// BreakerCooldown. 0 means 5; negative disables breakers.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before letting a
	// half-open trial through. 0 means 1s.
	BreakerCooldown time.Duration
	// ProbeInterval is the cadence of the background health prober
	// (StartProber): each shard's /readyz is probed and the shard is
	// taken out of — or returned to — rotation in the health overlay.
	// 0 means 2s. The prober only runs when StartProber is called.
	ProbeInterval time.Duration
	// RetryBudget bounds hedged retries to this fraction of primary
	// attempts per 10s window (plus a floor of 3), so a slow cluster
	// cannot be retry-stormed by its own router. 0 means 0.2; negative
	// disables the budget (unlimited hedging).
	RetryBudget float64
	// MaxInFlight, when positive, bounds concurrently admitted
	// /v1/recommend and /v1/batch requests; excess requests wait in a
	// short bounded queue (MaxQueue, QueueWait — serve.Gate semantics)
	// and are shed with 429 + Retry-After. 0 disables admission control.
	MaxInFlight int
	// MaxQueue bounds the admission wait queue. 0 means 2×MaxInFlight;
	// negative means no queue.
	MaxQueue int
	// QueueWait bounds how long a queued request waits for an admission
	// slot. 0 means 100ms.
	QueueWait time.Duration
	// AllowDegraded serves merges assembled from the surviving shards
	// when others fail, marking the response degraded, instead of
	// failing the request. Degraded merges are never cached.
	AllowDegraded bool
	// Stages is the staged re-rank pipeline applied exactly once per
	// request, after the scatter-gather merge — never on shards, which
	// always serve raw partials. The scatter over-fetches each shard to
	// rank.StagesOverFetch(m, Stages) so the post-merge pipeline sees the
	// same candidate pool a single staged process would; the shards' own
	// MaxM must cover that over-fetched length. Stage cache keys fold
	// into the router's fingerprints, so staged and unstaged deployments
	// never share cache entries. Stages must be deterministic and every
	// stage must declare a non-empty CacheKey. Nil entries are dropped.
	Stages []rank.Stage
	// HTTPClient overrides the client used for shard calls (tests;
	// custom transports). Nil means a client with no overall timeout —
	// per-attempt deadlines come from Timeout — that keeps an idle
	// connection to a shard for every concurrent scatter.
	HTTPClient *http.Client
	// Logf, when non-nil, receives progress lines (cmd/ocular-router
	// wires log.Printf).
	Logf func(format string, args ...any)
	// TraceRing sizes the recent-traces ring served at GET /debug/traces.
	// 0 means 256; negative disables tracing entirely.
	TraceRing int
	// TraceSlow, when > 0, logs a "slow request" line for every traced
	// request at or above this duration.
	TraceSlow time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxM == 0 {
		c.MaxM = 1000
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 1024
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.Timeout == 0 {
		c.Timeout = 2 * time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = time.Second
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 0.2
	}
	if c.HTTPClient == nil {
		// Not http.DefaultTransport: it keeps two idle connections per host,
		// so every scatter beyond two in flight to a shard dialled a
		// connection for one call. Keep one idle per admitted request and
		// its hedge, and at least 256 (admission is unbounded by default).
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxIdleConns, t.MaxIdleConnsPerHost, t.DisableCompression = 0, max(2*c.MaxInFlight, 256), true
		c.HTTPClient = &http.Client{Transport: t}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// shardRoute is one shard's slot in a route table: where it lives, the
// item range it owns, and the model version every scatter under this
// table pins it to.
type shardRoute struct {
	url     string
	version uint64
	lo, hi  int
}

// routeTable is one immutable routing state. Requests load the pointer
// once and scatter under that table; a concurrent flip never mixes
// epochs within one request.
type routeTable struct {
	epoch        uint64
	shards       []shardRoute
	users, items int
}

// Router scatters recommendation requests over the shard tier. All
// methods are safe for concurrent use.
type Router struct {
	cfg   Config
	table atomic.Pointer[routeTable]
	// flipMu serializes route-table flips from poll to store: without it,
	// two overlapping flips could each compute their epoch from the same
	// old table and install two tables under one epoch — and the epoch is
	// all that keeps a stale cache entry unreachable — or store in the
	// opposite order they polled in, leaving older version pins under the
	// newer epoch.
	flipMu sync.Mutex
	cache  *rank.ListCache
	stats  *rank.Stats
	m      *metrics
	mux    *http.ServeMux
	// breakers holds one circuit breaker per shard URL (nil map when
	// Config.BreakerThreshold < 0). Built at construction, never mutated.
	breakers map[string]*breaker
	// health is the mutable per-shard up/down overlay the prober writes
	// and the scatter reads; the map itself is immutable.
	health map[string]*shardHealthState
	// budget is the hedged-retry budget; nil means unlimited.
	budget *retryBudget
	// gate is the admission controller over /v1/recommend and /v1/batch;
	// nil admits everything.
	gate *serve.Gate
	// draining flips at the start of graceful shutdown: /readyz answers
	// 503 while the data path keeps serving.
	draining atomic.Bool
	// edge is the HTTP plumbing shared with the serve tier: body decoding,
	// clamping, response writers, instrumentation and the request tracer.
	edge *serve.Edge
	// shardLat holds one latency histogram per shard URL, observing whole
	// callShard calls (hedges and retries included). Built at
	// construction, never mutated.
	shardLat map[string]*obs.Histogram
}

// New builds a Router over cfg.Shards. The router starts with no route
// table — call Refresh (or let the first /v1/admin/flip do it) before
// serving; requests meanwhile answer 503.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: at least one shard URL is required")
	}
	seen := make(map[string]bool, len(cfg.Shards))
	for _, u := range cfg.Shards {
		if u == "" {
			return nil, fmt.Errorf("cluster: empty shard URL")
		}
		if seen[u] {
			return nil, fmt.Errorf("cluster: duplicate shard URL %s", u)
		}
		seen[u] = true
	}
	switch {
	case cfg.MaxM < 0:
		return nil, fmt.Errorf("cluster: MaxM must be >= 0, got %d", cfg.MaxM)
	case cfg.MaxBatch < 0:
		return nil, fmt.Errorf("cluster: MaxBatch must be >= 0, got %d", cfg.MaxBatch)
	case cfg.MaxBodyBytes < 0:
		return nil, fmt.Errorf("cluster: MaxBodyBytes must be >= 0, got %d", cfg.MaxBodyBytes)
	case cfg.Timeout < 0 || cfg.HedgeDelay < 0:
		return nil, fmt.Errorf("cluster: Timeout and HedgeDelay must be >= 0")
	case cfg.RequestTimeout < 0:
		return nil, fmt.Errorf("cluster: RequestTimeout must be >= 0, got %v", cfg.RequestTimeout)
	case cfg.BreakerCooldown < 0 || cfg.ProbeInterval < 0:
		return nil, fmt.Errorf("cluster: BreakerCooldown and ProbeInterval must be >= 0")
	case cfg.MaxInFlight < 0:
		return nil, fmt.Errorf("cluster: MaxInFlight must be >= 0, got %d", cfg.MaxInFlight)
	case cfg.QueueWait < 0:
		return nil, fmt.Errorf("cluster: QueueWait must be >= 0, got %v", cfg.QueueWait)
	}
	stages := cfg.Stages[:0:0]
	for _, st := range cfg.Stages {
		if st == nil {
			continue
		}
		if st.CacheKey() == "" {
			return nil, fmt.Errorf("cluster: every stage must declare a non-empty CacheKey (static router stages must stay cacheable)")
		}
		stages = append(stages, st)
	}
	if len(stages) == 0 {
		stages = nil
	}
	cfg.Stages = stages
	cfg = cfg.withDefaults()
	stats := &rank.Stats{}
	rt := &Router{
		cfg:      cfg,
		cache:    rank.NewListCache(cfg.CacheSize, rank.CacheShards, stats),
		stats:    stats,
		m:        &metrics{start: time.Now()},
		health:   make(map[string]*shardHealthState, len(cfg.Shards)),
		shardLat: make(map[string]*obs.Histogram, len(cfg.Shards)),
		gate:     serve.NewGate(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait),
		edge: serve.NewEdge("router", cfg.MaxBodyBytes, cfg.MaxM, cfg.MaxBatch,
			serve.NewTracer(cfg.TraceRing, cfg.TraceSlow), routerEndpointNames),
	}
	if cfg.BreakerThreshold > 0 {
		rt.breakers = make(map[string]*breaker, len(cfg.Shards))
	}
	for _, u := range cfg.Shards {
		rt.health[u] = &shardHealthState{}
		rt.shardLat[u] = &obs.Histogram{}
		if rt.breakers != nil {
			rt.breakers[u] = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown)
		}
	}
	if cfg.RetryBudget > 0 {
		rt.budget = newRetryBudget(cfg.RetryBudget, 3, 10*time.Second)
	}
	rt.mux = rt.buildMux()
	return rt, nil
}

// Refresh polls every shard's /healthz and installs a new route table:
// per-shard model versions (the versions scatters will pin), the
// catalogue shape, and a bumped epoch. It fails — leaving the current
// table serving — unless every shard answers, all agree on the catalogue
// shape, and their item ranges exactly partition [0, items). The trainer
// drives it through POST /v1/admin/flip after its quorum reload.
func (rt *Router) Refresh(ctx context.Context) (epoch uint64, err error) {
	tbl, err := rt.flip(ctx)
	if err != nil {
		return 0, err
	}
	return tbl.epoch, nil
}

// flip is Refresh handing back the table it installed, so that POST
// /v1/admin/flip reports its own flip even when another one overlaps.
func (rt *Router) flip(ctx context.Context) (*routeTable, error) {
	rt.flipMu.Lock()
	defer rt.flipMu.Unlock()
	tbl, err := rt.poll(ctx)
	if err != nil {
		return nil, err
	}
	if old := rt.table.Load(); old != nil {
		tbl.epoch = old.epoch + 1
	}
	rt.table.Store(tbl)
	rt.m.flips.Add(1)
	rt.cfg.Logf("route table epoch %d: %d shards over %dx%d", tbl.epoch, len(tbl.shards), tbl.users, tbl.items)
	return tbl, nil
}

// poll reads every shard's /healthz and assembles the route table they
// describe, refusing one that is not an exact partition of one catalogue.
// The table carries epoch 1, a first table's; flip advances it.
func (rt *Router) poll(ctx context.Context) (*routeTable, error) {
	tbl := &routeTable{epoch: 1, shards: make([]shardRoute, len(rt.cfg.Shards))}
	for i, u := range rt.cfg.Shards {
		var h serve.Health
		if err := rt.readShard(ctx, u, "/healthz", &h); err != nil {
			return nil, fmt.Errorf("cluster: refresh: shard %s: %w", u, err)
		}
		if h.ShardHealth == nil {
			return nil, fmt.Errorf("cluster: refresh: %s is not a shard server (no shard_hi in /healthz)", u)
		}
		if i == 0 {
			tbl.users, tbl.items = h.Users, h.Items
		} else if h.Users != tbl.users || h.Items != tbl.items {
			return nil, fmt.Errorf("cluster: refresh: shard %s serves a %dx%d catalogue, shard %s a %dx%d one",
				u, h.Users, h.Items, rt.cfg.Shards[0], tbl.users, tbl.items)
		}
		tbl.shards[i] = shardRoute{url: u, version: h.ModelVersion, lo: h.ShardLo, hi: h.ShardHi}
	}
	sort.Slice(tbl.shards, func(i, j int) bool { return tbl.shards[i].lo < tbl.shards[j].lo })
	at := 0
	for _, s := range tbl.shards {
		if s.lo != at {
			return nil, fmt.Errorf("cluster: refresh: shard ranges do not partition the catalogue: gap or overlap at item %d (shard %s owns [%d,%d))",
				at, s.url, s.lo, s.hi)
		}
		at = s.hi
	}
	if at != tbl.items {
		return nil, fmt.Errorf("cluster: refresh: shard ranges cover [0,%d) but the catalogue has %d items", at, tbl.items)
	}
	return tbl, nil
}

// readShard is the router's control-plane read of one shard, behind both
// the refresh poll and the prober: one serve.Call under the per-attempt
// timeout, so a shard that accepts the connection and never answers costs
// Config.Timeout, not the caller's patience.
func (rt *Router) readShard(ctx context.Context, base, path string, out any, alsoOK ...int) error {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.Timeout)
	defer cancel()
	return serve.Call(ctx, rt.cfg.HTTPClient, http.MethodGet, base, path, nil, out, alsoOK...)
}

var (
	// errShardDown fails a shard call fast because the health prober has
	// the shard marked down — no network attempt is made.
	errShardDown = errors.New("shard marked down by health prober")
	// errBreakerOpen fails a shard call fast because its circuit breaker
	// is open (or a half-open trial is already in flight).
	errBreakerOpen = errors.New("shard circuit breaker open")
	// errVersionConflict wraps a shard's 409: the rollout-window version
	// skew of a healthy shard, never evidence of sickness.
	errVersionConflict = errors.New("shard version conflict")
)

// countsAgainstBreaker decides whether a failed shard call is evidence
// the shard is sick. Deterministic request rejections (4xx), rollout
// version conflicts (409 — tripping breakers on those would open the
// whole tier during every rollout), caller cancellations, and fast-fails
// from the breaker or overlay themselves never count; timeouts,
// transport errors and shard 5xx do.
func countsAgainstBreaker(err error) bool {
	var refusal *serve.Error
	switch {
	case err == nil:
		return false
	case errors.As(err, &refusal):
		return false
	case errors.Is(err, errVersionConflict),
		errors.Is(err, errShardDown),
		errors.Is(err, errBreakerOpen),
		errors.Is(err, context.Canceled):
		return false
	}
	return true
}

// shardPath is the shard endpoint every scatter posts its frame to.
const shardPath = "/v2/shard/topm"

// shardReply is one shard's validated answer to one scatter: the decoded
// frame, its item column widened for the merge, and the raw body it was
// decoded from. Replies are pooled per attempt, not per request — a
// hedged attempt that lost the race may still be reading its body after
// the scatter returned — and the winner's goes back once its lists are
// merged.
type shardReply struct {
	raw   []byte
	resp  wire.BatchResponse
	items []int
	at    int // where the next user's partial starts; see next
}

var shardReplyPool = sync.Pool{New: func() any { return new(shardReply) }}

// next returns the partial of the next user of the frame, in request order.
func (rp *shardReply) next(user int) rank.Partial {
	end := rp.at + int(rp.resp.Counts[user])
	p := rank.Partial{Items: rp.items[rp.at:end], Scores: rp.resp.Scores[rp.at:end]}
	rp.at = end
	return p
}

// scatter sends frame — one request carrying the nUsers users of a batch
// that need ranking, encoded once — to every shard of tbl at once (hedged
// per HedgeDelay), each copy patched with that shard's
// version pin. It returns the replies in shard order, nil for shards that
// failed, plus the first failure. The caller decides whether failures are
// fatal (fail-closed) or degrade the merges, and releases the replies.
func (rt *Router) scatter(ctx context.Context, tbl *routeTable, frame []byte, nUsers, m int) ([]*shardReply, error) {
	rt.m.scatters.Add(1)
	act := obs.ActiveFrom(ctx)
	replies := make([]*shardReply, len(tbl.shards))
	errs := make([]error, len(tbl.shards))
	// The per-shard bodies are never pooled: net/http may still be reading
	// a request body after the call that sent it has returned.
	bodies := make([]byte, len(tbl.shards)*len(frame))
	var wg sync.WaitGroup
	for i := range tbl.shards {
		body := bodies[i*len(frame) : (i+1)*len(frame)]
		copy(body, frame)
		wire.SetExpectVersion(body, tbl.shards[i].version)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			replies[i], errs[i] = rt.callShard(ctx, tbl.shards[i], body, nUsers, m)
			d := time.Since(start)
			if h := rt.shardLat[tbl.shards[i].url]; h != nil {
				h.Observe(d, errs[i] != nil)
			}
			if act != nil {
				note := tbl.shards[i].url
				if errs[i] != nil {
					note += " error: " + errs[i].Error()
				}
				act.Record("shard_call", start, d, note)
			}
		}(i)
	}
	wg.Wait()
	var firstErr error
	for i, err := range errs {
		if err == nil {
			continue
		}
		rt.m.shardErrors.Add(1)
		rt.cfg.Logf("shard %s: %v", tbl.shards[i].url, err)
		var refusal *serve.Error
		if errors.As(err, &refusal) {
			// Invalid-request rejections outrank outages: they are
			// deterministic, so "degrading around" them would serve
			// silently mis-filtered lists.
			return replies, err
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("shard %s: %w", tbl.shards[i].url, err)
		}
	}
	return replies, firstErr
}

// callShard runs one shard call behind the shard's health overlay and
// circuit breaker, with per-attempt timeout and budgeted hedged retry: a
// second identical attempt launches after HedgeDelay (or immediately
// after a fast failure) when the retry budget allows, and the first
// success wins. At most two attempts — a shard that fails both is
// reported failed, and the aggregate outcome feeds the breaker.
func (rt *Router) callShard(ctx context.Context, sh shardRoute, body []byte, nUsers, m int) (*shardReply, error) {
	if hs := rt.healthFor(sh.url); hs != nil && hs.down.Load() {
		return nil, errShardDown
	}
	br := rt.breakers[sh.url]
	trial := false
	if br != nil {
		proceed, tr := br.tryAcquire()
		if !proceed {
			return nil, errBreakerOpen
		}
		trial = tr
	}
	// finish settles the breaker exactly once per admitted call: the
	// call's aggregate outcome is the shard-sickness verdict. Failures
	// that carry no verdict (cancellation, version skew) release a trial
	// without re-tripping.
	finish := func(rp *shardReply, err error) (*shardReply, error) {
		if br != nil {
			switch {
			case err == nil:
				br.onResult(true, trial)
			case countsAgainstBreaker(err):
				br.onResult(false, trial)
			default:
				br.abandon(trial)
			}
		}
		return rp, err
	}
	type result struct {
		rp  *shardReply
		err error
	}
	ch := make(chan result, 2)
	attempt := func() {
		actx, cancel := context.WithTimeout(ctx, rt.cfg.Timeout)
		defer cancel()
		rp, err := rt.postShard(actx, sh, body, nUsers, m)
		ch <- result{rp, err}
	}
	pending := 1
	if rt.budget != nil {
		rt.budget.noteAttempt()
	}
	go attempt()
	var hedgeC <-chan time.Time
	if rt.cfg.HedgeDelay > 0 && !trial {
		// A half-open trial is never hedged: one attempt decides, and a
		// second concurrent call to a possibly-sick shard is exactly what
		// the half-open state exists to prevent.
		timer := time.NewTimer(rt.cfg.HedgeDelay)
		defer timer.Stop()
		hedgeC = timer.C
	}
	launchHedge := func() {
		hedgeC = nil
		if rt.budget != nil && !rt.budget.allowRetry() {
			// Budget spent: this window has already hedged its share.
			return
		}
		pending++
		rt.m.hedges.Add(1)
		go attempt()
	}
	var firstErr error
	for {
		select {
		case r := <-ch:
			pending--
			if r.err == nil {
				return finish(r.rp, nil)
			}
			if firstErr == nil {
				firstErr = r.err
			}
			var refusal *serve.Error
			if errors.As(r.err, &refusal) {
				// Deterministic rejection: a hedge would hit the same wall.
				return finish(nil, r.err)
			}
			if hedgeC != nil {
				// The primary failed before the hedge timer fired; hedge
				// now rather than waiting out the delay. The budget may
				// deny it — then nothing is pending and we fail below.
				launchHedge()
			}
			if pending == 0 {
				return finish(nil, firstErr)
			}
		case <-hedgeC:
			// The primary is still pending here (its return either exits
			// or disarms hedgeC), so a denied hedge leaves it awaited.
			launchHedge()
		case <-ctx.Done():
			return finish(nil, ctx.Err())
		}
	}
}

// postShard performs one shard attempt: post the frame, read the answer
// under the size the request implies, decode it and validate every user's
// partial (see shardReply.decode) before any of them may merge.
func (rt *Router) postShard(ctx context.Context, sh shardRoute, body []byte, nUsers, m int) (*shardReply, error) {
	rt.m.shardCalls.Add(1)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, sh.url+shardPath, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", serve.FrameContentType)
	serve.StampShardCall(ctx, hreq.Header)
	resp, err := rt.cfg.HTTPClient.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// The largest legal answer is nUsers full lists of m; an error answer is
	// a short JSON body. One byte past the bound proves an overrun.
	limit := max(wire.MaxResponseLen(nUsers, m), 4<<10)
	rp := shardReplyPool.Get().(*shardReply)
	rp.raw, err = wire.AppendAll(rp.raw[:0], io.LimitReader(resp.Body, int64(limit)+1))
	switch {
	case err != nil:
	case resp.StatusCode != http.StatusOK:
		err = shardHTTPError(resp.StatusCode, rp.raw)
	case len(rp.raw) > limit:
		err = fmt.Errorf("shard answer exceeds the %d bytes %d lists of %d items can take", limit, nUsers, m)
	default:
		err = rp.decode(sh, nUsers)
	}
	if err != nil {
		shardReplyPool.Put(rp)
		return nil, err
	}
	return rp, nil
}

// shardHTTPError maps a shard's non-200 answer (always a JSON error
// body) to the scatter's typed errors:
// deterministic 400s become refusals (they outrank outages), 409 is
// the rollout-window version skew the breaker must never count, 504 is
// deadline exhaustion, and everything else a shard-side failure.
func shardHTTPError(status int, data []byte) error {
	se := serve.NewStatusError(shardPath, status, data)
	msg := cmp.Or(se.Text, se.Error())
	switch status {
	case http.StatusBadRequest:
		return &serve.Error{Status: http.StatusBadRequest, Msg: msg}
	case http.StatusConflict:
		// Rollout-window version skew of a healthy shard; typed so the
		// breaker never counts it.
		return fmt.Errorf("%w: %s", errVersionConflict, msg)
	case http.StatusGatewayTimeout:
		// The shard shed the work because the propagated deadline budget
		// had expired; surface it as deadline exhaustion so the router
		// answers 504, not 502.
		return fmt.Errorf("%w: %s", context.DeadlineExceeded, msg)
	}
	// 5xx (and anything unexpected) is a shard-side failure; the
	// fail-closed/degraded policy decides what it means.
	return errors.New(msg)
}

// decode parses rp.raw and enforces the merge preconditions before any
// list of the frame may merge: it is a partition partial for exactly the
// users asked about, the version pin held, the shard answered for its
// route-table range, and every user's list passes validatePartial. A frame
// failing any of them is a shard failure — merging it could silently
// corrupt the global lists.
func (rp *shardReply) decode(sh shardRoute, nUsers int) error {
	out := &rp.resp
	switch err := wire.DecodeBatchResponse(rp.raw, out); {
	case err != nil:
		return fmt.Errorf("bad shard frame: %w", err)
	case out.Flags&wire.FlagShardPartial == 0:
		return errors.New("shard frame is not marked as a partition partial")
	case len(out.Counts) != nUsers:
		return fmt.Errorf("shard frame carries %d users, want %d", len(out.Counts), nUsers)
	case out.ModelVersion != sh.version:
		return fmt.Errorf("shard answered for model version %d, pinned %d", out.ModelVersion, sh.version)
	case int(out.ShardLo) != sh.lo || int(out.ShardHi) != sh.hi:
		return fmt.Errorf("shard owns [%d,%d) but the route table says [%d,%d) — stale table, re-flip",
			out.ShardLo, out.ShardHi, sh.lo, sh.hi)
	}
	rp.items = rp.items[:0]
	for _, it := range out.Items {
		rp.items = append(rp.items, int(it))
	}
	rp.at = 0
	for u := range out.Counts {
		if out.Status[u]&wire.StatusError != 0 {
			return fmt.Errorf("shard frame marks user slot %d failed", u)
		}
		if err := validatePartial(sh, rp.next(u)); err != nil {
			return err
		}
	}
	rp.at = 0
	return nil
}

// validatePartial checks one user's list: every item inside the shard's
// range, and the order the tie rule demands (descending score, ties by
// ascending item).
func validatePartial(sh shardRoute, p rank.Partial) error {
	for n, it := range p.Items {
		if it < sh.lo || it >= sh.hi {
			return fmt.Errorf("shard returned item %d outside its range [%d,%d)", it, sh.lo, sh.hi)
		}
		if n > 0 {
			prevS, prevI := p.Scores[n-1], p.Items[n-1]
			if p.Scores[n] > prevS || (p.Scores[n] == prevS && it <= prevI) {
				return fmt.Errorf("shard partial violates the tie rule at rank %d", n)
			}
		}
	}
	return nil
}

// fingerprintFor is the cache fingerprint of a request's filter surface:
// rank.RequestKey — the key the engine's own filters and stages would
// carry, canonical and capped there — behind the route-table epoch, which
// is what makes a stale-epoch cache hit impossible.
func fingerprintFor(epoch uint64, exclude []int, spec *serve.FilterSpec, stages []rank.Stage) (string, bool) {
	var allow, deny []string
	if spec != nil {
		allow, deny = spec.AllowTags, spec.DenyTags
	}
	fp, cacheable := rank.RequestKey(exclude, allow, deny, stages)
	if !cacheable {
		return "", false
	}
	var buf [24]byte
	return string(strconv.AppendUint(append(buf[:0], 'e'), epoch, 10)) + "|" + fp, true
}
