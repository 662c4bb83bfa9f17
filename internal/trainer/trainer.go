// Package trainer is the offline half of the continuous-training
// pipeline: a retrain loop that watches the interaction feed
// (internal/feed), decides when a new model is worth building, trains it
// warm from the last one, and rolls it out to a running serve process.
//
// One cycle is: replay the feed → fold the events into the base training
// matrix (growing it when new users or items appeared) → warm-start from
// the previous model via core.Model.Grow + Config.WarmStart → train →
// save a format-v2 artifact with core.SaveModelFileOpts → POST
// /v1/reload on the server and confirm through the versioned handshake
// that the swap landed → warm the server's rank cache for the hottest
// users by driving /v1/batch.
//
// Cycles are idempotent downstream of the feed: the full feed is
// replayed every time and the sparse builder deduplicates, so a replay
// of the same records — after a crash, a torn-tail truncation, or a
// redundant ingest — folds into the same training matrix. The catalogue
// never shrinks across warm-started cycles: the trained matrix covers
// the base matrix, every feed event and the previous model, and
// core.Model.Grow refuses shrinking outright.
//
// Retraining triggers are configurable: a backlog threshold
// (MinNewPositives) for busy feeds, and an elapsed-time trigger
// (MaxInterval) that retrains a trickle of positives that would never
// reach the threshold. The poll between triggers costs only a directory
// stat (feed.Count); the precise replay happens inside a triggered
// cycle.
package trainer

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// Config tunes a Trainer. FeedDir, ModelPath and Train.K are required.
type Config struct {
	// FeedDir is the interaction feed directory the trainer replays and
	// polls. The trainer only reads it; the serving process (or any other
	// single writer) appends.
	FeedDir string
	// Base, when non-nil, is the original training matrix the feed grows
	// on top of. Without it, the matrix is built from feed events alone.
	Base *sparse.Matrix
	// Train supplies the OCuLaR hyper-parameters and solver settings of
	// every cycle. WarmStart is overwritten each cycle with the previous
	// model; K must match a pre-existing model at ModelPath.
	Train core.Config
	// ModelPath is where trained models are saved (the file the server
	// reloads from). A loadable model already at this path seeds the
	// first cycle's warm start.
	ModelPath string
	// Save picks the artifact options (Float32 adds the half-bandwidth
	// scoring section).
	Save core.SaveOptions
	// ServerURL, when non-empty, is the serve process to roll new models
	// out to (e.g. "http://localhost:8080"): after every save the trainer
	// POSTs /v1/reload there and verifies the returned model version
	// strictly advanced. Mutually exclusive with ShardURLs/RouterURL.
	ServerURL string
	// ModelName, when non-empty, targets one named model of a serve
	// process running the multi-model registry: /v1/reload is POSTed
	// with {"model": ModelName}, and the handshake reads that model's
	// version from the models tree of /healthz instead of the top-level
	// model_version (each named model has its own version counter).
	// Requires ServerURL; shards host no registry, so combining
	// ModelName with ShardURLs is an error. ModelPath must match the
	// path the registry maps the name to.
	ModelName string
	// ShardURLs, with RouterURL, selects the sharded-tier rollout: after
	// every save the trainer runs the versioned reload handshake against
	// EVERY shard (the quorum — all of them must confirm), then flips the
	// router's route table via /v1/admin/flip and verifies its epoch
	// advanced. Until the flip, the router keeps pinning requests to the
	// old model version, which shards still serve from their snapshot
	// history — so the rollout is zero-downtime and no request ever
	// merges mixed versions. A shard failing the handshake aborts the
	// cycle before the flip: the router keeps serving the old version
	// everywhere.
	ShardURLs []string
	// RouterURL is the scatter-gather router owning the route table (and
	// the cache warmed after a sharded rollout). Required with ShardURLs.
	RouterURL string
	// MaxGrowth bounds how far beyond the known catalogue (base matrix,
	// previous model) one cycle may grow the training matrix; feed events
	// naming larger ids are skipped (and logged), not trained. Without the
	// bound a single absurd-id event in the append-only feed would make
	// every retry allocate factor rows up to it — a permanent crash loop.
	// The serving layer enforces the same headroom at ingest; this guard
	// covers feeds written by anything else. 0 means 1<<20.
	MaxGrowth int
	// MinNewPositives triggers a retrain once the feed backlog since the
	// last cycle reaches this count. 0 means 1 (retrain on any news).
	MinNewPositives int
	// MaxInterval, when positive, triggers a retrain whenever any backlog
	// exists and this much time has passed since the last cycle — the
	// trickle path for feeds too quiet to reach MinNewPositives.
	MaxInterval time.Duration
	// PollInterval is the trigger evaluation period of Run. 0 means 5s.
	PollInterval time.Duration
	// WarmCacheUsers, when positive, warms the server's rank cache after
	// a confirmed rollout by requesting top-M lists for that many of the
	// hottest users (most training positives) through /v1/batch.
	WarmCacheUsers int
	// WarmCacheM is the list length of cache-warming requests. 0 means 10.
	WarmCacheM int
	// HTTPClient overrides the http.Client used for rollout and cache
	// warming (tests; custom timeouts). Nil means a 30s-timeout client.
	HTTPClient *http.Client
	// Metrics, when non-nil, receives the backlog gauge and per-cycle
	// phase durations (cmd/ocular-trainer serves it under -metrics-addr).
	Metrics *Metrics
	// Logf, when non-nil, receives progress lines (cmd/ocular-trainer
	// wires log.Printf).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxGrowth == 0 {
		c.MaxGrowth = 1 << 20
	}
	if c.MinNewPositives == 0 {
		c.MinNewPositives = 1
	}
	if c.PollInterval == 0 {
		c.PollInterval = 5 * time.Second
	}
	if c.WarmCacheM == 0 {
		c.WarmCacheM = 10
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Timeout: 30 * time.Second}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Cycle reports what one retraining cycle did.
type Cycle struct {
	// FeedPositives is the number of feed records replayed (the whole
	// feed, not just the backlog); NewPositives is how many of them
	// arrived since the previous cycle of this trainer.
	FeedPositives int64
	NewPositives  int64
	// Users, Items and NNZ describe the trained matrix.
	Users, Items, NNZ int
	// WarmStarted reports that training was initialized from the previous
	// model (first cycle: the model found at ModelPath); Grown that the
	// warm-start factors were extended for new users or items.
	WarmStarted bool
	Grown       bool
	// Iterations and Converged come from the training result.
	Iterations int
	Converged  bool
	// SkippedEvents counts feed events dropped by the MaxGrowth guard.
	SkippedEvents int64
	// RetrainSkipped reports that the cycle reused the already-saved
	// artifact (the feed had not changed since it was trained) and only
	// retried the rollout — the cheap path after a failed push.
	RetrainSkipped bool
	// ServerVersion is the model version the server confirmed in the
	// reload handshake (0 when no ServerURL is configured); Mapped and
	// ServedFloat32 echo the confirmed serving mode.
	ServerVersion uint64
	Mapped        bool
	ServedFloat32 bool
	// ShardVersions are the model versions each shard confirmed in a
	// sharded (quorum) rollout, in Config.ShardURLs order; RouterEpoch is
	// the route-table epoch the router confirmed after the flip.
	ShardVersions []uint64
	RouterEpoch   uint64
	// CacheWarmed is the number of hot users whose top-M lists were
	// ranked into the server's cache after the rollout.
	CacheWarmed int
	Duration    time.Duration
	// Phase durations: replay covers the feed read and the matrix fold,
	// train the solver, save the artifact write, rollout the serving-tier
	// push (reload handshake / quorum + flip), warm the cache warming.
	// A skipped phase stays zero.
	ReplayDur  time.Duration
	TrainDur   time.Duration
	SaveDur    time.Duration
	RolloutDur time.Duration
	WarmDur    time.Duration
}

// Trainer runs retraining cycles. Methods must not be called
// concurrently; run one trainer per model path.
type Trainer struct {
	cfg  Config
	last *core.Model // warm-start source; nil until a model exists
	// lastCount is the feed size at the last completed cycle, in
	// feed.Count's size-based estimate — deliberately the same estimator
	// the Run trigger polls with, so a permanently torn record (counted
	// by the estimate, skipped by the precise replay) cannot create a
	// phantom backlog that retrains forever.
	lastCount int64
	lastCycle time.Time
	// savedEvents (precise replay count) and savedEstimate (feed.Count
	// units) record the feed state the artifact at ModelPath was trained
	// over; rolloutPending marks a saved model whose push to the server
	// has not been confirmed yet. A retry cycle over an unchanged feed
	// (estimates match) then skips the replay, the fold and the retrain
	// entirely and only repeats the rollout, using hotUsers — the
	// cache-warming list computed when the model was trained — in place
	// of a rebuilt matrix.
	savedEvents    int64
	savedEstimate  int64
	rolloutPending bool
	hotUsers       []int
}

// New builds a Trainer. A loadable model at cfg.ModelPath becomes the
// first cycle's warm start; a missing file means the first cycle trains
// cold (and every later one warm).
func New(cfg Config) (*Trainer, error) {
	switch {
	case cfg.FeedDir == "":
		return nil, fmt.Errorf("trainer: FeedDir is required")
	case cfg.ModelPath == "":
		return nil, fmt.Errorf("trainer: ModelPath is required")
	case cfg.Train.K < 1:
		return nil, fmt.Errorf("trainer: Train.K must be >= 1, got %d", cfg.Train.K)
	case cfg.MinNewPositives < 0:
		return nil, fmt.Errorf("trainer: MinNewPositives must be >= 0, got %d", cfg.MinNewPositives)
	case cfg.MaxInterval < 0:
		return nil, fmt.Errorf("trainer: MaxInterval must be >= 0, got %v", cfg.MaxInterval)
	case cfg.WarmCacheUsers < 0:
		return nil, fmt.Errorf("trainer: WarmCacheUsers must be >= 0, got %d", cfg.WarmCacheUsers)
	case cfg.MaxGrowth < 0:
		return nil, fmt.Errorf("trainer: MaxGrowth must be >= 0, got %d", cfg.MaxGrowth)
	case cfg.ServerURL != "" && (len(cfg.ShardURLs) > 0 || cfg.RouterURL != ""):
		return nil, fmt.Errorf("trainer: ServerURL and the sharded rollout (ShardURLs/RouterURL) are mutually exclusive")
	case len(cfg.ShardURLs) > 0 && cfg.RouterURL == "":
		return nil, fmt.Errorf("trainer: ShardURLs needs RouterURL (the router owning the route table to flip)")
	case cfg.RouterURL != "" && len(cfg.ShardURLs) == 0:
		return nil, fmt.Errorf("trainer: RouterURL needs ShardURLs (the shards to quorum-reload before the flip)")
	case cfg.ModelName != "" && len(cfg.ShardURLs) > 0:
		return nil, fmt.Errorf("trainer: ModelName targets a registry-serving full server; shards host no registry")
	case cfg.ModelName != "" && cfg.ServerURL == "":
		return nil, fmt.Errorf("trainer: ModelName needs ServerURL (the registry server to reload the named model on)")
	}
	cfg = cfg.withDefaults()
	// The trainer only reads the feed, but the ingest writer may not have
	// started yet (or may never, in -once mode); an existing empty
	// directory makes replays of a not-yet-written feed well-defined.
	if err := os.MkdirAll(cfg.FeedDir, 0o755); err != nil {
		return nil, fmt.Errorf("trainer: %w", err)
	}
	t := &Trainer{cfg: cfg, lastCycle: time.Now()}
	switch m, err := core.LoadModelFile(cfg.ModelPath); {
	case err == nil:
		if m.K() != cfg.Train.K {
			return nil, fmt.Errorf("trainer: model at %s has K=%d but Train.K=%d", cfg.ModelPath, m.K(), cfg.Train.K)
		}
		if m.HasBias() && !t.cfg.Train.Bias {
			// core.Train's warm start would silently drop the bias terms
			// (it only validates the opposite mismatch); retraining must
			// not quietly degrade a bias-enabled served model.
			t.cfg.Train.Bias = true
			cfg.Logf("warm-start model carries bias terms; enabling Config.Bias for retraining")
		}
		t.last = m
		cfg.Logf("warm-start source: %v from %s", m, cfg.ModelPath)
	case errors.Is(err, os.ErrNotExist):
		cfg.Logf("no model at %s yet; first cycle trains cold", cfg.ModelPath)
	default:
		return nil, fmt.Errorf("trainer: loading warm-start model: %w", err)
	}
	return t, nil
}

// RunOnce executes one unconditional retraining cycle: replay, fold,
// warm-start, train, save, and — when a server is configured — roll out
// and warm its cache. Triggers are not consulted; Run is the loop that
// consults them. Beside an error it returns the cycle as far as it got.
func (t *Trainer) RunOnce(ctx context.Context) (cy *Cycle, err error) {
	cy, start := &Cycle{}, time.Now()
	defer func() {
		cy.Duration = time.Since(start)
		t.cfg.Metrics.ObserveCycle(cy, err)
	}()
	// Snapshot the trigger estimator before the replay: lastCount must be
	// in feed.Count's units (so a torn-but-counted record cannot leave a
	// phantom backlog) and from before training starts (so events
	// arriving mid-cycle still show as backlog at the next poll instead
	// of being silently absorbed untrained).
	estimate, estErr := feed.Count(t.cfg.FeedDir)

	if t.rolloutPending && t.last != nil && estErr == nil && estimate == t.savedEstimate {
		// The artifact at ModelPath already covers this feed (nothing was
		// appended since it was trained); the only thing that failed last
		// time was the push. Skip the replay, the fold and the retrain
		// and retry the rollout alone — otherwise an hour of serve
		// downtime would mean an hour of back-to-back full replays and
		// trainings of identical models, one per poll tick.
		cy.FeedPositives = t.savedEvents
		cy.RetrainSkipped = true
		cy.WarmStarted = true
		cy.Users, cy.Items = t.last.NumUsers(), t.last.NumItems()
		t.cfg.Logf("feed unchanged since the last save; retrying rollout without retraining")
	} else {
		rstart := time.Now()
		events, err := feed.Events(t.cfg.FeedDir)
		if err != nil {
			return cy, err
		}
		cy.FeedPositives = int64(len(events))
		cy.NewPositives = int64(len(events)) - t.lastCount

		m, skipped := t.buildMatrix(events)
		cy.ReplayDur = time.Since(rstart)
		if m.Rows() == 0 || m.Cols() == 0 {
			return cy, fmt.Errorf("trainer: nothing to train on (no base matrix, empty feed)")
		}
		cy.Users, cy.Items, cy.NNZ, cy.SkippedEvents = m.Rows(), m.Cols(), m.NNZ(), skipped
		if skipped > 0 {
			t.cfg.Logf("skipped %d feed events beyond the MaxGrowth headroom of %d", skipped, t.cfg.MaxGrowth)
		}

		trainCfg := t.cfg.Train
		if t.last != nil {
			warm, err := t.last.Grow(m.Rows(), m.Cols())
			if err != nil {
				return cy, fmt.Errorf("trainer: warm start: %w", err)
			}
			cy.WarmStarted = true
			cy.Grown = warm != t.last
			trainCfg.WarmStart = warm
		}
		t.cfg.Logf("training on %v (warm=%v grown=%v, %d feed positives)", m, cy.WarmStarted, cy.Grown, len(events))
		tstart := time.Now()
		res, err := core.Train(m, trainCfg)
		cy.TrainDur = time.Since(tstart)
		if err != nil {
			return cy, fmt.Errorf("trainer: %w", err)
		}
		cy.Iterations, cy.Converged = res.Iterations(), res.Converged

		sstart := time.Now()
		if err := res.Model.SaveModelFileOpts(t.cfg.ModelPath, t.cfg.Save); err != nil {
			return cy, err
		}
		cy.SaveDur = time.Since(sstart)
		t.last = res.Model
		t.savedEvents = int64(len(events))
		t.savedEstimate = estimate
		if estErr != nil {
			t.savedEstimate = -1 // unknown: never matches, retries retrain
		}
		t.rolloutPending = t.hasRolloutTarget()
		if t.cfg.WarmCacheUsers > 0 {
			t.hotUsers = hottestUsers(m, t.cfg.WarmCacheUsers)
		}
	}

	if t.hasRolloutTarget() {
		if err := t.rollout(ctx, cy); err != nil {
			// The backlog markers deliberately stay put: Run's next poll
			// still sees the backlog and retries (the cheap
			// rollout-only path above) until the push lands. Advancing
			// them here would strand the saved model unserved until
			// unrelated positives arrived.
			return cy, err
		}
		t.rolloutPending = false
	}
	if estErr == nil {
		t.lastCount = estimate
	} else {
		t.lastCount = cy.FeedPositives
	}
	t.lastCycle = time.Now()
	t.cfg.Logf("cycle done in %v: %v, %d iterations (converged=%v), server version %d, %d cache lists warmed",
		time.Since(start).Round(time.Millisecond), t.last, cy.Iterations, cy.Converged, cy.ServerVersion, cy.CacheWarmed)
	return cy, nil
}

// buildMatrix folds the feed events into the base matrix. The shape
// covers the base, every admitted event and the previous model — the
// catalogue never shrinks across cycles — and the builder's
// deduplication makes replays idempotent. Events growing the catalogue
// beyond MaxGrowth over its known extent are skipped and counted, never
// trained: the feed is append-only, so an absurd id admitted once would
// poison every future replay.
func (t *Trainer) buildMatrix(events []feed.Event) (*sparse.Matrix, int64) {
	rows, cols := 0, 0
	if t.cfg.Base != nil {
		rows, cols = t.cfg.Base.Rows(), t.cfg.Base.Cols()
	}
	if t.last != nil {
		rows = max(rows, t.last.NumUsers())
		cols = max(cols, t.last.NumItems())
	}
	maxUser, maxItem := rows+t.cfg.MaxGrowth, cols+t.cfg.MaxGrowth
	var skipped int64
	admitted := events[:0:0]
	for _, e := range events {
		if int(e.User) >= maxUser || int(e.Item) >= maxItem {
			skipped++
			continue
		}
		admitted = append(admitted, e)
		rows = max(rows, int(e.User)+1)
		cols = max(cols, int(e.Item)+1)
	}
	b := sparse.NewBuilder(rows, cols)
	if t.cfg.Base != nil {
		t.cfg.Base.Each(b.Add)
	}
	for _, e := range admitted {
		b.Add(int(e.User), int(e.Item))
	}
	return b.Build(), skipped
}

// hasRolloutTarget reports whether a serving tier is configured to
// receive new models — a single server or a sharded tier.
func (t *Trainer) hasRolloutTarget() bool {
	return t.cfg.ServerURL != "" || len(t.cfg.ShardURLs) > 0
}

// rollout pushes the saved model to the serving tier — a single server's
// versioned reload, or the sharded tier's quorum handshake + router flip
// — and warms the front-end's rank cache for the hottest users
// (t.hotUsers, computed when the model was trained).
func (t *Trainer) rollout(ctx context.Context, cy *Cycle) error {
	rstart := time.Now()
	if len(t.cfg.ShardURLs) > 0 {
		if err := t.rolloutQuorum(ctx, cy); err != nil {
			cy.RolloutDur = time.Since(rstart)
			return err
		}
	} else {
		resp, err := t.pushReload(ctx, t.cfg.ServerURL)
		if err != nil {
			cy.RolloutDur = time.Since(rstart)
			return fmt.Errorf("trainer: rollout: %w", err)
		}
		cy.ServerVersion, cy.Mapped, cy.ServedFloat32 = resp.ModelVersion, resp.Mapped, resp.Float32
		t.cfg.Logf("rollout confirmed: server at version %d (%s, mapped=%v float32=%v)",
			resp.ModelVersion, resp.Model, resp.Mapped, resp.Float32)
	}
	cy.RolloutDur = time.Since(rstart)
	if len(t.hotUsers) > 0 {
		wstart := time.Now()
		warmed, err := t.warmCache(ctx)
		cy.WarmDur = time.Since(wstart)
		cy.CacheWarmed = warmed
		if err != nil {
			// Warming is an optimization on top of a rollout that already
			// landed; failing the cycle here would make Run retrain and
			// re-push the same model every trigger (wiping the very cache
			// being warmed each time). Log and move on.
			t.cfg.Logf("cache warm failed (rollout already confirmed): %v", err)
		}
	}
	return nil
}

// rolloutQuorum rolls a saved model out to the sharded tier: the
// versioned reload handshake against every shard (all must confirm
// before anything is flipped — a partial quorum aborts with the router,
// and so every request, still on the old version), then the router's
// route-table flip, confirmed by a strictly advancing epoch. The order
// is what makes the rollout safe: shards keep serving the old version
// from their snapshot history to version-pinned requests, so nothing
// changes for clients until the flip lands atomically.
func (t *Trainer) rolloutQuorum(ctx context.Context, cy *Cycle) error {
	versions := make([]uint64, 0, len(t.cfg.ShardURLs))
	for _, u := range t.cfg.ShardURLs {
		resp, err := t.pushReload(ctx, u)
		if err != nil {
			return fmt.Errorf("trainer: quorum rollout: shard %s: %w (router not flipped; the old model keeps serving)", u, err)
		}
		versions = append(versions, resp.ModelVersion)
		t.cfg.Logf("shard %s confirmed version %d (%s)", u, resp.ModelVersion, resp.Model)
	}
	cy.ShardVersions = versions

	before, err := t.routerEpoch(ctx)
	if err != nil {
		return fmt.Errorf("trainer: quorum rollout: reading router epoch: %w", err)
	}
	var flip cluster.FlipResponse
	if err := serve.Call(ctx, t.cfg.HTTPClient, http.MethodPost, t.cfg.RouterURL, "/v1/admin/flip", nil, &flip); err != nil {
		return fmt.Errorf("trainer: quorum rollout: router flip: %w", err)
	}
	if flip.Epoch <= before {
		return fmt.Errorf("trainer: quorum rollout not confirmed: router epoch %d did not advance past %d",
			flip.Epoch, before)
	}
	cy.RouterEpoch = flip.Epoch
	t.cfg.Logf("quorum rollout confirmed: %d shards reloaded, router at epoch %d", len(versions), flip.Epoch)
	return nil
}

// routerEpoch reads the router's current route-table epoch from
// /healthz; a router that has no table yet (HTTP 503) is epoch 0.
func (t *Trainer) routerEpoch(ctx context.Context) (uint64, error) {
	var health cluster.Health
	err := serve.Call(ctx, t.cfg.HTTPClient, http.MethodGet, t.cfg.RouterURL, "/healthz", nil, &health)
	var se *serve.StatusError
	if errors.As(err, &se) && se.Status == http.StatusServiceUnavailable {
		return 0, nil
	}
	return health.Epoch, err
}

// pushReload runs the versioned reload handshake against one serve
// process (a full server or a shard — the protocol is identical):
// observe its current model version, POST /v1/reload, and require the
// response to show a strictly newer version — proving the swap landed
// rather than silently re-serving a stale snapshot. Comparing against
// the version observed immediately before the push (not a counter kept
// across cycles) keeps the handshake correct when the serve process
// restarts and its version counter resets. With Config.ModelName the
// same handshake runs against that named model's own version counter.
func (t *Trainer) pushReload(ctx context.Context, base string) (serve.ReloadResponse, error) {
	before, err := t.serverVersion(ctx, base)
	if err != nil {
		return serve.ReloadResponse{}, err
	}
	var body any // empty: the default model
	if t.cfg.ModelName != "" {
		body = serve.ReloadRequest{Model: t.cfg.ModelName}
	}
	var out serve.ReloadResponse
	if err := serve.Call(ctx, t.cfg.HTTPClient, http.MethodPost, base, "/v1/reload", body, &out); err != nil {
		return out, err
	}
	if out.ModelVersion <= before {
		return out, fmt.Errorf("reload not confirmed: model version %d did not advance past %d",
			out.ModelVersion, before)
	}
	return out, nil
}

// serverVersion reads the served model version from base's /healthz —
// the top-level version of the default snapshot, or, with
// Config.ModelName, the named model's own counter from the registry's
// models tree.
func (t *Trainer) serverVersion(ctx context.Context, base string) (uint64, error) {
	var health serve.Health
	if err := serve.Call(ctx, t.cfg.HTTPClient, http.MethodGet, base, "/healthz", nil, &health); err != nil {
		return 0, err
	}
	if name := t.cfg.ModelName; name != "" {
		nm, ok := health.Models[name]
		if !ok {
			return 0, fmt.Errorf("/healthz lists no model %q (is the server running the multi-model registry?)", name)
		}
		return nm.ModelVersion, nil
	}
	return health.ModelVersion, nil
}

// warmCache drives the front end's ranking engine for the hottest users
// so the first organic requests after a rollout hit a full cache instead
// of all missing at once (every reload installs a fresh, empty cache; a
// router flip invalidates cached lists by fingerprinting the epoch). Hot
// users are those with the most training positives — the users likeliest
// to be requested, and the rows whose exclusion filters make ranking
// most expensive. In a sharded tier the warm goes through the router —
// the cache lives there, and warming through it exercises the very
// scatter-gather path organic traffic takes. Returns how many users
// were warmed.
func (t *Trainer) warmCache(ctx context.Context) (int, error) {
	base := t.cfg.ServerURL
	if base == "" {
		base = t.cfg.RouterURL
	}
	users := t.hotUsers
	warmed := 0
	// Chunk well below serve's default 1024-user batch cap.
	const chunk = 256
	for lo := 0; lo < len(users); lo += chunk {
		batch := users[lo:min(lo+chunk, len(users))]
		req := map[string]any{"users": batch, "m": t.cfg.WarmCacheM}
		var resp struct {
			Results []struct {
				Error string `json:"error"`
			} `json:"results"`
		}
		if err := serve.Call(ctx, t.cfg.HTTPClient, http.MethodPost, base, "/v1/batch", req, &resp); err != nil {
			// 429 is the serve tier's admission control shedding our
			// warm-up in favor of organic traffic. That is backpressure
			// working, not a rollout failure: the cache fills organically.
			var se *serve.StatusError
			if errors.As(err, &se) && se.Status == http.StatusTooManyRequests {
				t.cfg.Logf("cache warm shed by admission control after %d/%d users; backing off", warmed, len(users))
				return warmed, nil
			}
			return warmed, fmt.Errorf("trainer: cache warm: %w", err)
		}
		for _, r := range resp.Results {
			if r.Error == "" {
				warmed++
			}
		}
	}
	t.cfg.Logf("cache warmed for %d/%d hot users", warmed, len(users))
	return warmed, nil
}

// hottestUsers returns up to n users by descending training-positive
// count (ties broken by index for determinism), skipping empty rows.
func hottestUsers(m *sparse.Matrix, n int) []int {
	users := make([]int, 0, m.Rows())
	for u := 0; u < m.Rows(); u++ {
		if m.RowNNZ(u) > 0 {
			users = append(users, u)
		}
	}
	sort.Slice(users, func(i, j int) bool {
		ni, nj := m.RowNNZ(users[i]), m.RowNNZ(users[j])
		if ni != nj {
			return ni > nj
		}
		return users[i] < users[j]
	})
	if len(users) > n {
		users = users[:n]
	}
	return users
}

// Run polls the feed every PollInterval and retrains when a trigger
// fires, until ctx is cancelled (which returns nil). Cycle errors are
// logged and retried at the next trigger, not fatal: a serve process
// restarting mid-rollout must not kill the trainer daemon.
func (t *Trainer) Run(ctx context.Context) error {
	ticker := time.NewTicker(t.cfg.PollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
			n, err := feed.Count(t.cfg.FeedDir)
			if err != nil {
				t.cfg.Logf("feed poll: %v", err)
				continue
			}
			t.cfg.Metrics.SetBacklog(n - t.lastCount)
			if !t.due(n - t.lastCount) {
				continue
			}
			if _, err := t.RunOnce(ctx); err != nil {
				if ctx.Err() != nil {
					return nil
				}
				t.cfg.Logf("cycle failed (will retry): %v", err)
			}
		}
	}
}

// due decides whether a backlog of newN positives triggers a retrain.
func (t *Trainer) due(newN int64) bool {
	if newN <= 0 {
		return false // nothing new: retraining would rebuild the same model
	}
	if newN >= int64(t.cfg.MinNewPositives) {
		return true
	}
	return t.cfg.MaxInterval > 0 && time.Since(t.lastCycle) >= t.cfg.MaxInterval
}
