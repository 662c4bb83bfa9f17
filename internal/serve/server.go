// Package serve is the online recommendation serving subsystem: a
// concurrent HTTP JSON API over a trained, serialized OCuLaR model. It
// completes the train-once / serve-many lifecycle the paper's production
// deployment is built around (Section IV-D): cmd/ocular trains and saves a
// model, cmd/ocular-serve maps it and answers top-M recommendation,
// cold-start fold-in, and co-cluster explanation queries.
//
// There is one serving representation: an item range [lo, hi) of an
// mmapped v2 model file (core.MappedModelRange). Every item's score
// depends only on that item's factor row, so a shard's scores are
// bit-identical to a full server's — a full server simply is the range
// [0, items). What differs is decided from the range itself: a
// whole-catalogue range carries the zero-copy *core.Model view (fold-in,
// explanations), a top-M cache, and filters in global item ids; a
// partition is cacheless and rebases its filters. The route set (full API
// or /v1|v2/shard/topm) and the shard's two-deep version history follow
// the constructor, NewFromFile or NewShardFromFile.
//
// The handlers are thin transport over the ranking engine of
// internal/rank: every request shape — known-user top-M, cold-start
// fold-in, per-request exclusion lists, item-tag filters — is one engine
// call with a different scorer or filter set. The public data path
// (recommend and batch, JSON and frames) is the Front, written once here
// and mounted by the router too: a recommend is the batch pipeline with
// one user, and both binaries answer with the same structs. The engine owns the pooled
// score buffers, each user's training-row exclusion (the snapshot's
// exclusion matrix is its rank.Config.Train), and the sharded top-M cache
// (keyed by a fingerprint covering user, m and filters) that coalesces
// duplicate misses.
// The model is hot-swappable: ReloadFromFile atomically installs a new
// snapshot (mapped range + fresh engine) without dropping in-flight
// requests, which keep serving from the snapshot they started with.
package serve

import (
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/rank"
	"repro/internal/sparse"
)

// Config tunes a Server. The zero value serves with defaults (cache of
// 4096 lists, no per-batch fan-out, no exclusion matrix).
type Config struct {
	// ModelPath is the serialized v2 model file the server maps at
	// construction and again at every reload (POST /v1/reload, SIGHUP).
	// Required.
	ModelPath string
	// Train, when non-nil, is the training matrix; items a user has a
	// training positive for are excluded from that user's recommendations,
	// matching the offline evaluation protocol. Its shape must not exceed
	// the model's; a smaller matrix (the served model was retrained over a
	// grown catalogue by the continuous-training pipeline) is padded with
	// exclusion-free rows and columns.
	Train *sparse.Matrix
	// Feed, when non-nil, is the interaction log behind POST /v1/ingest:
	// new positives are appended there for the trainer daemon to fold into
	// the next retraining cycle. Without it, ingest requests are rejected.
	// The server does not close the log.
	Feed *feed.Log
	// MaxIngestGrowth bounds how far beyond the served model's catalogue
	// an ingested user or item id may reach (new ids are legitimate — the
	// next retrained model covers them — but an absurd id would make the
	// trainer allocate factor rows up to it). 0 means 1<<20.
	MaxIngestGrowth int
	// FoldIn supplies the solver settings for /v1/foldin (Lambda,
	// Relative, MaxIter, ...). K is taken from the model.
	FoldIn core.Config
	// CacheSize is the approximate total number of cached top-M lists.
	// 0 means the default (4096); negative disables caching.
	CacheSize int
	// Workers bounds the per-request fan-out of /v1/batch. 0 means all
	// cores. /v2/batch, the small-batch hot transport, fans out only when
	// Workers > 1 (at 0 it ranks on the request's goroutine: a fan-out per
	// frame measured +11 B/user against a 5% allocation bound); a shard
	// ranks the users of a /v2/shard/topm frame by the same rule.
	Workers int
	// MaxM caps the requested list length m. 0 means 1000.
	MaxM int
	// MaxBatch caps the number of users in one /v1/batch request — on a
	// shard, in one /v2/shard/topm frame, so it must cover the router's
	// MaxBatch. 0 means 1024.
	MaxBatch int
	// MaxBodyBytes caps request body size. 0 means 1 MiB.
	MaxBodyBytes int64
	// MaxInFlight, when positive, bounds concurrently admitted requests
	// on the query endpoints (recommend, foldin, explain, batch, and
	// shard/topm in shard mode). Excess requests wait in a short bounded
	// queue and are shed with 429 + Retry-After when it overflows or the
	// wait elapses. 0 disables admission control.
	MaxInFlight int
	// MaxQueue bounds how many requests may wait for an admission slot.
	// 0 means 2×MaxInFlight; negative means no queue (instant shed when
	// saturated). Ignored when MaxInFlight is 0.
	MaxQueue int
	// QueueWait bounds how long a queued request waits for a slot before
	// being shed. 0 means 100ms. Ignored when MaxInFlight is 0.
	QueueWait time.Duration
	// ItemTags, when non-nil, is the item name/tag table backing the
	// "filter" request field (allow/deny by tag). Requests naming tags are
	// rejected when no table is configured. The table may cover fewer
	// items than the model (unlisted items carry no tags) but never more.
	ItemTags *rank.TagTable
	// Stages configures the default serving path's post-selection re-rank
	// pipeline (score floors, MMR diversity, tag boosts), applied by
	// recommend and batch after top-M selection. Specs are materialized
	// against the served model at every (re)load, so a diversify stage
	// always measures similarity over the model actually serving. Empty
	// means no stages — bit-identical to the pre-stage pipeline.
	// Incompatible with shard mode: shards serve raw partials and the
	// router applies stages exactly once after the merge.
	Stages []StageSpec
	// Registry, when non-nil, turns the server into a multi-model
	// platform: named mmapped models, tenants resolving tenant →
	// experiment → arm via deterministic user hashing, per-arm stage
	// configs and metrics, shadow comparisons and per-tenant ingest feed
	// partitions. Requests without a tenant keep the default single-model
	// path (and wire format) exactly. Incompatible with shard mode.
	Registry *RegistryConfig
	// ShadowLog receives the shadow mode's JSON-line rank/score diffs.
	// nil silently drops them (the per-tenant diff counters still count).
	ShadowLog io.Writer
	// ShardLo, ShardHi select shard mode (ShardHi != 0): the server mmaps
	// only the item range [ShardLo, ShardHi) of the v2 model at ModelPath
	// and serves per-shard top-M partials on /v1|v2/shard/topm for a
	// scatter-gather router to merge — see internal/cluster. ShardHi == -1
	// means "through the end of the catalogue", re-resolved at every
	// reload, so the tail shard of a partition follows catalogue growth.
	// Shard servers are built with NewShardFromFile and take no Feed; a
	// partition is cacheless (the router owns the fingerprint cache).
	ShardLo int
	ShardHi int
	// TraceRing is the capacity of the recent-traces ring behind
	// GET /debug/traces. 0 means 256; negative disables request tracing
	// entirely (the endpoint then serves an empty list).
	TraceRing int
	// TraceSlow, when positive, emits a structured slow-request log line
	// (log/slog) for any traced request at or above the threshold,
	// carrying the trace ID that ties it to the shard spans behind it.
	TraceSlow time.Duration
}

// shardMode reports whether the configuration selects shard mode.
func (c Config) shardMode() bool { return c.ShardHi != 0 }

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.MaxM == 0 {
		c.MaxM = 1000
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 1024
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxIngestGrowth == 0 {
		c.MaxIngestGrowth = 1 << 20
	}
	return c
}

// snapshot is one immutable serving state: a mapped item range of a model
// file, its exclusion matrix, its top-M cache and its score-buffer pool.
// Handlers load the snapshot pointer once per request, so a concurrent
// reload never mixes state.
//
// The snapshot pins the mapping: rng (and the model view sharing its
// storage) stays reachable exactly as long as the snapshot does, so the
// mapping of a replaced model is released by GC only after the last
// in-flight request against that snapshot finishes. The server never
// munmaps eagerly.
type snapshot struct {
	// rng is the served item range [ItemLo, ItemHi) of the mmapped file:
	// the whole catalogue on a full server, a partition on a shard. Its
	// NumUsers and NumItems are always the FULL catalogue shape — request
	// validation (user ids, exclude lists, tag tables) speaks global ids
	// on shards too.
	rng *core.MappedModelRange
	// model is rng's zero-copy full-precision view (fold-in, explanations,
	// stage kernels). It exists on a whole-catalogue range only; nil marks
	// a partition, which answers only partial top-M queries, is cacheless
	// and ranks in partition-local item ids.
	model    *core.Model
	train    *sparse.Matrix // never nil; empty matrix when no exclusions
	version  uint64
	loadedAt time.Time
	// engine ranks this snapshot's range: it owns the pooled score
	// buffers, the top-M cache and miss coalescing. One engine per
	// snapshot makes cache invalidation on reload wholesale and race-free.
	engine *rank.Engine
	// stages is the snapshot's re-rank pipeline, materialized from the
	// configured stage specs against this snapshot's model (so a
	// diversify stage's similarity kernel always matches the model
	// serving). nil means the plain select pipeline.
	stages []rank.Stage
}

// Server answers recommendation queries over the current model snapshot.
// All methods are safe for concurrent use.
type Server struct {
	cfg  Config
	snap atomic.Pointer[snapshot]
	// prev keeps the previously served snapshot in shard mode only — a
	// two-deep history. During a quorum rollout the router keeps pinning
	// requests to the old version until every shard confirmed the new one;
	// a shard that already reloaded serves those pinned requests from prev
	// instead of failing them, which is what makes the rollout
	// zero-downtime. Requests naming any other version are refused (409),
	// so a merge of mixed versions is impossible by construction.
	prev    atomic.Pointer[snapshot]
	metrics *Metrics
	// rankStats is shared across the snapshots' engines so cache and
	// coalescing counters stay cumulative over reloads.
	rankStats *rank.Stats
	mux       *http.ServeMux
	// reloadMu serializes reloads: without it, two concurrent reloads (the
	// /v1/reload handler and the SIGHUP path) could each read the model
	// file and then install their snapshots in the opposite order, leaving
	// a stale model served under a newer version number.
	reloadMu sync.Mutex
	// gate is the admission controller over the query endpoints; nil when
	// Config.MaxInFlight is 0 (nil gates admit everything).
	gate *Gate
	// draining flips once at the start of graceful shutdown: /readyz
	// turns 503 so probers and routers stop sending new traffic, while
	// the data path keeps answering until the HTTP server is shut down.
	draining atomic.Bool
	// paddedTrain caches the exclusion matrix (padded to the served
	// model's shape, transpose materialized) across reloads: once the
	// trainer grows the catalogue, every reload would otherwise rebuild
	// the padded matrix and its O(nnz) transpose even though the shape
	// rarely changes between rollouts. Guarded by reloadMu (open runs
	// under it, or single-threaded at construction).
	paddedTrain *sparse.Matrix
	// registry is the multi-model platform state (nil without
	// Config.Registry): named models, tenants, experiments, arms and
	// shadows. The maps are immutable after construction; per-model and
	// per-arm snapshots swap atomically under reloadMu.
	registry *registry
	// edge is the HTTP plumbing shared with the router: body decoding,
	// clamping, response writers, per-endpoint instrumentation and the
	// request tracer (disabled when Config.TraceRing is negative).
	edge *Edge
}

// checkLimits validates and defaults the numeric limits shared by full and
// shard servers. Negative CacheSize means "disable", but a negative limit
// would silently brick an endpoint (every request rejected, empty, or
// serial), so those are configuration errors — caught here, once, rather
// than surfacing as empty 200s or panics under load.
func checkLimits(cfg Config) (Config, error) {
	switch {
	case cfg.MaxM < 0:
		return cfg, fmt.Errorf("serve: MaxM must be >= 0, got %d", cfg.MaxM)
	case cfg.MaxBatch < 0:
		return cfg, fmt.Errorf("serve: MaxBatch must be >= 0, got %d", cfg.MaxBatch)
	case cfg.MaxBodyBytes < 0:
		return cfg, fmt.Errorf("serve: MaxBodyBytes must be >= 0, got %d", cfg.MaxBodyBytes)
	case cfg.Workers < 0:
		return cfg, fmt.Errorf("serve: Workers must be >= 0, got %d", cfg.Workers)
	case cfg.MaxIngestGrowth < 0:
		return cfg, fmt.Errorf("serve: MaxIngestGrowth must be >= 0, got %d", cfg.MaxIngestGrowth)
	case cfg.MaxInFlight < 0:
		return cfg, fmt.Errorf("serve: MaxInFlight must be >= 0, got %d", cfg.MaxInFlight)
	case cfg.QueueWait < 0:
		return cfg, fmt.Errorf("serve: QueueWait must be >= 0, got %v", cfg.QueueWait)
	}
	cfg = cfg.withDefaults()
	// withDefaults must leave every limit usable; a zero that slipped
	// through would serve empty lists with HTTP 200 (see Edge.clampM).
	if cfg.MaxM <= 0 || cfg.MaxBatch <= 0 || cfg.MaxBodyBytes <= 0 {
		return cfg, fmt.Errorf("serve: internal error: limits not defaulted (MaxM=%d MaxBatch=%d MaxBodyBytes=%d)",
			cfg.MaxM, cfg.MaxBatch, cfg.MaxBodyBytes)
	}
	return cfg, nil
}

// newServer is the one construction path under NewFromFile and
// NewShardFromFile: limits, admission gate, edge and metrics, the first
// snapshot over the configured item range, then registry and routes.
func newServer(cfg Config) (*Server, error) {
	if cfg.ModelPath == "" {
		return nil, fmt.Errorf("serve: Config.ModelPath is required (servers serve from an mmapped v2 file)")
	}
	cfg, err := checkLimits(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, rankStats: &rank.Stats{}}
	s.gate = NewGate(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait)
	s.edge = NewEdge("server", cfg.MaxBodyBytes, cfg.MaxM, cfg.MaxBatch,
		NewTracer(cfg.TraceRing, cfg.TraceSlow), endpointNames)
	s.metrics = &Metrics{start: time.Now(), edge: s.edge, rank: s.rankStats}
	if _, err := s.install(); err != nil {
		return nil, err
	}
	if cfg.Registry != nil {
		if err := s.buildRegistry(); err != nil {
			return nil, err
		}
	}
	s.mux = s.buildMux()
	return s, nil
}

// NewFromFile builds a full Server — the whole-catalogue range — from the
// serialized model at cfg.ModelPath: the file is mmapped and served in
// place (float32 scoring when it carries that section).
func NewFromFile(cfg Config) (*Server, error) {
	if cfg.shardMode() {
		return nil, fmt.Errorf("serve: shard servers are built with NewShardFromFile")
	}
	return newServer(cfg)
}

// open maps the item range [lo, hi) of the v2 model file at path into the
// snapshot succeeding old (nil for a first load) — the one place a
// snapshot is built: the default model, every registry model and every
// shard come through here. Whatever distinguishes a full server's
// snapshot from a partition's is read off the opened range (see
// snapshot.model). Guarded by reloadMu, or single-threaded at
// construction.
func (s *Server) open(path string, lo, hi int, old *snapshot, stats *rank.Stats, specs []StageSpec) (sn *snapshot, err error) {
	rng, err := core.OpenMappedModelRange(path, lo, hi)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			_ = rng.Close()
		}
	}()
	train, err := s.trainFor(rng.NumUsers(), rng.NumItems())
	if err != nil {
		return nil, err
	}
	if tags := s.cfg.ItemTags; tags != nil && tags.NumItems() > rng.NumItems() {
		return nil, fmt.Errorf("serve: item tag table covers %d items but the model has %d",
			tags.NumItems(), rng.NumItems())
	}
	stages, err := BuildStages(specs, s.cfg.ItemTags, rng.Model())
	if err != nil {
		return nil, fmt.Errorf("serve: default stages: %w", err)
	}
	sn = &snapshot{
		rng:      rng,
		model:    rng.Model(),
		train:    train,
		version:  1,
		loadedAt: time.Now(),
		stages:   stages,
		engine:   s.newEngine(rng, train, stats),
	}
	if old != nil {
		sn.version = old.version + 1
	}
	return sn, nil
}

// newEngine builds an engine ranking rng, excluding each user's row of
// train, counting into stats. A whole-catalogue range gets the configured
// top-M cache; a partition is cacheless by design — the router caches
// merged lists under its own epoch-qualified fingerprints.
func (s *Server) newEngine(rng *core.MappedModelRange, train *sparse.Matrix, stats *rank.Stats) *rank.Engine {
	cfg := rank.Config{CacheSize: -1, Train: train, Stats: stats}
	if rng.Model() != nil {
		cfg.CacheSize = s.cfg.CacheSize
	}
	return rank.NewEngine(rangeScorer{rng}, cfg)
}

// rangeScorer adapts the item-range mapping to the engine's Scorer: the
// engine sees a catalogue of Len() range-local items, the first global id
// ItemLo.
type rangeScorer struct{ rng *core.MappedModelRange }

func (r rangeScorer) ScoreUser(u int, dst []float64) { r.rng.ScoreItems(u, dst) }
func (r rangeScorer) NumItems() int                  { return r.rng.Len() }
func (r rangeScorer) ItemLo() int                    { return r.rng.ItemLo() }

// ScoreCandidates forwards the engine's optional fast path: the range's
// support index lists the few items a user can score on.
func (r rangeScorer) ScoreCandidates(u int, ids []int32, scores []float64) ([]int32, []float64, bool) {
	return r.rng.ScoreCandidates(u, ids, scores)
}

// install opens the configured item range of Config.ModelPath and
// atomically swaps in the fresh snapshot (new cache, new buffer pool,
// bumped version); a shard retires the current one into its two-deep
// history (see Server.prev). Guarded by reloadMu, or single-threaded at
// construction.
func (s *Server) install() (*snapshot, error) {
	lo, hi := 0, -1
	if s.cfg.shardMode() {
		lo, hi = s.cfg.ShardLo, s.cfg.ShardHi
	}
	old := s.snap.Load()
	sn, err := s.open(s.cfg.ModelPath, lo, hi, old, s.rankStats, s.cfg.Stages)
	if err != nil {
		return nil, err
	}
	if old != nil && s.cfg.shardMode() {
		s.prev.Store(old)
	}
	s.snap.Store(sn)
	return sn, nil
}

// trainFor returns the configured exclusion matrix padded to the served
// catalogue shape (users × items), transpose materialized, behind the
// shape-keyed per-server cache. Guarded by reloadMu (open runs under it,
// or single-threaded at construction).
func (s *Server) trainFor(users, items int) (*sparse.Matrix, error) {
	train := s.cfg.Train
	if train != nil && (train.Rows() > users || train.Cols() > items) {
		return nil, fmt.Errorf("serve: model shape %dx%d does not cover train matrix %dx%d",
			users, items, train.Rows(), train.Cols())
	}
	if cached := s.paddedTrain; cached != nil &&
		cached.Rows() == users && cached.Cols() == items {
		return cached, nil
	}
	if train != nil {
		// A larger model is the continuous-training pipeline at work:
		// the trainer grew the catalogue past the matrix this server
		// was started with. Users and items beyond the configured
		// matrix have no known positives, so padding with
		// exclusion-free rows is the exact semantics.
		train = train.PadTo(users, items)
	} else {
		train = sparse.NewBuilder(users, items).Build()
	}
	// Materialize the transpose before the snapshot is published:
	// sparse.Matrix builds it lazily and unsynchronized, and
	// /v1/explain walks columns — two concurrent explains over a
	// freshly padded matrix would race on the cache. The shape-keyed
	// cache above makes this (and the padding) a one-off per
	// catalogue growth, not an O(nnz) tax on every reload.
	train.Transpose()
	s.paddedTrain = train
	return train, nil
}

// ReloadFromFile re-maps Config.ModelPath and installs the result — the
// SIGHUP path of cmd/ocular-serve. In-flight requests finish against the
// snapshot they started with; new requests see the new model and an empty
// cache. This is O(1) regardless of model size: re-mmap, validate the
// 128-byte header, swap the snapshot pointer. No factor byte is copied or
// scanned; the old mapping is released by GC once the last request pinned
// to the old snapshot finishes.
func (s *Server) ReloadFromFile() error {
	_, err := s.reload()
	return err
}

// reload is ReloadFromFile handing back the snapshot it installed, so that
// POST /v1/reload reports its own reload even when another one overlaps.
// The file open happens under the reload lock so concurrent reloads
// cannot install their models out of read order.
func (s *Server) reload() (*snapshot, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	sn, err := s.install()
	if err != nil {
		return nil, err
	}
	s.metrics.reloads.Add(1)
	return sn, nil
}

// Model returns the currently served model: the zero-copy full-precision
// view of the mapping, nil on a shard serving a partition. The view stays
// valid while the server lives; callers must not retain it across process
// teardown of the server.
func (s *Server) Model() *core.Model { return s.snap.Load().model }

// ServingMode reports that the current snapshot serves out of an mmapped
// v2 file (always), and whether it scores through the float32 section.
func (s *Server) ServingMode() (mapped, float32Scoring bool) {
	_, mapped, float32Scoring = s.snap.Load().servingMode()
	return mapped, float32Scoring
}

// Version returns the current snapshot version (1 for the initial model,
// incremented by every reload).
func (s *Server) Version() uint64 { return s.snap.Load().version }

// Metrics exposes the server's counters, mainly for tests and benchmarks.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Gate exposes the admission controller (nil when disabled), mainly for
// tests asserting the in-flight bound.
func (s *Server) Gate() *Gate { return s.gate }

// BeginDrain marks the server draining: /readyz starts answering 503 so
// load balancers and the router's prober take it out of rotation, while
// every data endpoint keeps serving. Call it, wait for traffic to ebb,
// then shut the HTTP server down — the ordering the drain regression
// test pins.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Handler returns the HTTP handler serving the v1 API.
func (s *Server) Handler() http.Handler { return s.mux }
