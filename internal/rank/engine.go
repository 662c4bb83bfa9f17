// Package rank is the transport-agnostic ranking engine behind both the
// offline evaluator and the online serving layer. A request is (scorer, m,
// filters..., stages...) and the pipeline is score → filter → select →
// rerank: the scorer writes a relevance score for every item, composable
// Filters remove candidates (training positives, per-request exclusion
// lists, item-tag allow/deny lists), selection — one size-m heap over the
// survivors — returns the top m under a deterministic tie rule, and
// optional Stages re-rank the selected head (score floors, MMR diversity,
// tag boosts) over a declared over-fetch so the staged top-m is
// well-defined.
//
// The Engine adds the serving machinery on top of the pure pipeline:
// one pooled scratch per rank call (a list leaves it by copy: into the cache,
// or into the caller's columns), ranking a known user by walking its
// co-cluster support best first where the scorer has one (walker: only the
// items that can score, and of those only until nothing left can make the
// list — the same list, bit for bit, as the sweep), the ranked user's own
// training row as an exclusion the engine resolves itself (Config.Train),
// and one table per
// cache shard keyed by a request fingerprint covering user, m and the
// filter set (so filtered requests are cacheable rather than wrong) that
// is its own singleflight — concurrent requests for the same fingerprint
// compute the list once. A known user is ranked through TopMBatch — the
// serving layer's JSON and frame codecs alike, one user or many, into
// caller-owned columns — and a fold-in through Rank; TopMTimed and
// TopMStagedTimed are the one-user forms the benchmark's per-layer probes
// time.
package rank

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sparse"
)

// Scorer produces the relevance scores a ranking starts from. Every
// eval.Recommender (every algorithm in the repo, *core.MappedModel among
// them) satisfies it.
type Scorer interface {
	// ScoreUser writes a relevance score for every item for user u into
	// dst, which has length NumItems().
	ScoreUser(u int, dst []float64)
	// NumItems reports the catalogue size ScoreUser writes.
	NumItems() int
}

// walker is the optional fast path of a Scorer whose scores are mostly
// exact zeros — a model of sparse non-negative factors, where an item
// sharing no co-cluster with the user scores 1 − exp(−0). The engine asks
// for it once, at construction (the way selection asks filters for
// Sorted), and then ranks a known user by walking its support (see
// core.Walk and selectWalk).
type walker interface {
	// Walk starts w on user u's support over the scorer's items, or
	// declines with false: the engine sweeps with ScoreUser instead.
	Walk(u int, w *core.Walk) bool
}

// itemRange is the optional method of a Scorer over the item range [lo,
// lo+NumItems()) of a larger catalogue — a shard's: ItemLo reports lo, the
// global id of its item 0. Asked for once, at construction, like walker;
// without it the scorer's items are the catalogue's.
type itemRange interface{ ItemLo() int }

// Config tunes an Engine. The zero value disables caching (and with it
// coalescing, which only applies to cacheable requests).
type Config struct {
	// CacheSize is the approximate total number of cached top-M lists
	// across shards; <= 0 disables the cache.
	CacheSize int
	// Train, when non-nil, is the training matrix, in global item ids: a
	// known user is never ranked an item of its own row — the offline
	// evaluation protocol, the serving default — without a filter for it. The
	// engine walks the part of the row inside its scorer's items as one more
	// sorted exclusion, keyed by the user the cache key already holds, so
	// the caller's filters are the request's own. Fold-in (Rank) has no row.
	Train *sparse.Matrix
	// Stats, when non-nil, receives the engine's counters. Sharing one
	// Stats across successive engines (the serving layer rebuilds the
	// engine on every model reload) keeps the counters cumulative.
	Stats *Stats
}

// Stats counts an engine's cache and coalescing activity. All methods are
// safe for concurrent use. The zero value is ready.
type Stats struct {
	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	ranked    atomic.Int64
	swept     atomic.Int64
}

// Hits returns the number of requests answered from the cache.
func (s *Stats) Hits() int64 { return s.hits.Load() }

// Misses returns the number of requests not answered from the cache
// (including uncacheable requests and coalesced waiters' leaders).
func (s *Stats) Misses() int64 { return s.misses.Load() }

// Coalesced returns the number of duplicate concurrent misses that waited
// on another request's computation instead of ranking themselves.
func (s *Stats) Coalesced() int64 { return s.coalesced.Load() }

// Ranked returns the number of full score→filter→select computations —
// the work the cache and coalescing exist to avoid.
func (s *Stats) Ranked() int64 { return s.ranked.Load() }

// Swept returns how many of the Ranked computations scored every item of
// the catalogue — all of them on a scorer that cannot list a user's
// candidates, the fold-in path and the declined users on one that can.
func (s *Stats) Swept() int64 { return s.swept.Load() }

// Engine executes ranking requests over one scorer. All methods are safe
// for concurrent use. An engine is bound to an immutable scorer: the
// serving layer builds a fresh engine per model snapshot, which also makes
// cache invalidation wholesale and race-free.
type Engine struct {
	scorer Scorer
	walker walker         // scorer's fast path, nil when it has none
	train  *sparse.Matrix // Config.Train
	lo, hi int            // the scorer's items, global ids [lo, hi)
	lists  ListCache      // cache, flights and counters of the ranked lists
	pool   sync.Pool      // *scratch
}

// NewEngine builds an engine ranking scorer's scores under cfg.
func NewEngine(scorer Scorer, cfg Config) *Engine {
	stats := cfg.Stats
	if stats == nil {
		stats = &Stats{}
	}
	e := &Engine{
		scorer: scorer,
		train:  cfg.Train,
		lists:  ListCache{cache: newTopCache(cfg.CacheSize, CacheShards), stats: stats},
		pool:   sync.Pool{New: func() any { return new(scratch) }},
	}
	e.walker, _ = scorer.(walker)
	if r, ok := scorer.(itemRange); ok {
		e.lo = r.ItemLo()
	}
	e.hi = e.lo + scorer.NumItems()
	return e
}

// CacheLen returns the number of cached top-M lists.
func (e *Engine) CacheLen() int { return e.lists.Len() }

// TopMTimed returns the top-m items for user u, with their scores, among
// the candidates surviving the filters — the cached, coalesced pipeline
// TopMBatch runs per user, for one user into slices of the caller's own
// (two allocations per call, hit or miss). cached reports whether the list
// came from the cache (or from another request's in-flight computation).
// A non-nil tm receives the per-stage wall times; nil reads no clocks.
//
// A request is cacheable when every filter is Keyed; the cache key covers
// (u, m, filter fingerprints). Concurrent cacheable misses with equal keys
// are coalesced: one computes, the rest wait and share the result.
func (e *Engine) TopMTimed(u, m int, tm *Timings, filters ...Filter) (items []int, scores []float64, cached bool) {
	return e.topM(u, m, nil, filters, tm)
}

// TopMStagedTimed is TopMTimed followed by the request's re-rank stages:
// the pipeline selects StagesOverFetch(m, stages) candidates, runs the
// stages in order, and truncates to m. Stage keys fold into the cache
// fingerprint alongside the filter keys, so staged requests are cached
// (post-stage) and can never collide with requests differing only in
// stage configuration. An empty or all-nil stage list is byte-identical
// to TopMTimed — same results, same cache entries.
func (e *Engine) TopMStagedTimed(u, m int, stages []Stage, tm *Timings, filters ...Filter) (items []int, scores []float64, cached bool) {
	return e.topM(u, m, compactStages(stages), filters, tm)
}

// topM is the single-user entry: list, copied out of the scratch so the
// caller owns it.
func (e *Engine) topM(u, m int, stages []Stage, filters []Filter, tm *Timings) (items []int, scores []float64, cached bool) {
	s := e.pool.Get().(*scratch)
	defer e.pool.Put(s)
	cached = e.list(s, u, m, stages, filters, tm)
	return slices.Clone(s.items), slices.Clone(s.scores), cached
}

// list leaves user u's list in s.items and s.scores, the caller's to copy
// before s is used again. A request the cache can hold goes through the
// table as a one-slot batch whose buffers are the scratch's own: a hit or
// a coalesced wait copies the cached list there, a miss ranks there and
// the table copies it into its node. Any other is ranked there.
func (e *Engine) list(s *scratch, u, m int, stages []Stage, filters []Filter, tm *Timings) (cached bool) {
	s.flat = flatten(s.flat[:0], filters)
	if e.lists.cache != nil {
		if fp, ok := s.fingerprint(stages); ok {
			// Only the fields a rank can leave set are reset, not the whole
			// entry: the slot is on every hit's path.
			l := &s.slot[0]
			s.user[0], l.Items, l.Scores, l.Cached, l.coalesced = u, s.items[:0], s.scores[:0], false, false
			e.lists.GetOrComputeBatch(s.user[:], m, fp, true, s.slot[:], func([]int) {
				e.rankStaged(s, u, m, stages, tm)
				l.Items, l.Scores = s.items, s.scores
			})
			s.items, s.scores = l.Items, l.Scores
			if tm != nil && l.Cached {
				tm.Cached, tm.Coalesced = true, l.coalesced
			}
			return l.Cached
		}
	}
	e.lists.stats.misses.Add(1)
	e.rankStaged(s, u, m, stages, tm)
	return false
}

// Rank runs the pipeline with a caller-supplied scoring function — the
// fold-in path, where the "user" is a factor solved per request and
// results are inherently uncacheable. score receives a pooled buffer of
// length NumItems and must fill it completely. Rank counts toward the
// ranked stat but not the cache hit/miss counters (it never consults the
// cache).
func (e *Engine) Rank(score func(dst []float64), m int, filters ...Filter) (items []int, scores []float64) {
	s := e.pool.Get().(*scratch)
	defer e.pool.Put(s)
	s.flat, s.row = flatten(s.flat[:0], filters), nil
	e.rank(s, score, m, nil)
	return slices.Clone(s.items), slices.Clone(s.scores)
}

// rankUser ranks a known user into s: by walking its support where the
// scorer has one, by the full sweep where it has no such path or declines.
// Both leave the same list, bit for bit, and both exclude u's training row.
func (e *Engine) rankUser(s *scratch, u, m int, tm *Timings) {
	s.row, s.rowLo = e.row(u), e.lo
	if e.walker == nil || !e.rankWalk(s, u, m, tm) {
		e.rank(s, func(dst []float64) { e.scorer.ScoreUser(u, dst) }, m, tm)
	}
}

// row is the part of user u's training row inside the scorer's items,
// global ids — two binary searches, no copy; nil without Config.Train.
func (e *Engine) row(u int) []int32 {
	if e.train == nil || u < 0 || u >= e.train.Rows() {
		return nil
	}
	row := e.train.Row(u)
	a, _ := slices.BinarySearch(row, int32(e.lo))
	b, _ := slices.BinarySearch(row, int32(e.hi))
	return row[a:b]
}

// rankWalk is rank over user u's support walk, filling the same two
// Timings fields (Score: starting the walk; Select: the walk, which scores
// the items it visits as it selects them); false when the scorer declined.
func (e *Engine) rankWalk(s *scratch, u, m int, tm *Timings) bool {
	var t0, t1 time.Time
	if tm != nil {
		t0 = time.Now()
	}
	ok := e.walker.Walk(u, &s.walk)
	if tm != nil {
		t1 = time.Now()
		tm.Score += t1.Sub(t0)
	}
	if !ok {
		return false
	}
	e.lists.stats.ranked.Add(1)
	s.selectWalk(e.scorer.NumItems(), m)
	if tm != nil {
		tm.Select += time.Since(t1)
	}
	return true
}

// rank is the shared score → filter → select execution over the scratch's
// dense array, leaving the survivors' scores alongside the items. A
// non-nil tm receives the score and (fused) filter+select wall times;
// nil skips the clock reads entirely.
func (e *Engine) rank(s *scratch, score func(dst []float64), m int, tm *Timings) {
	e.lists.stats.ranked.Add(1)
	e.lists.stats.swept.Add(1)
	if s.dense == nil {
		s.dense = make([]float64, e.scorer.NumItems())
	}
	var t0 time.Time
	if tm != nil {
		t0 = time.Now()
	}
	score(s.dense)
	var t1 time.Time
	if tm != nil {
		t1 = time.Now()
		tm.Score += t1.Sub(t0)
	}
	s.selectDense(s.dense, m)
	if tm != nil {
		tm.Select += time.Since(t1)
	}
}

// rankStaged extends rankUser with the post-selection stage pass: it
// selects the stages' over-fetch, applies them, and truncates to m. With no
// stages it is exactly rankUser. A stage may hand back slices of its own
// instead of rewriting the scratch's; they are as transient as the scratch.
func (e *Engine) rankStaged(s *scratch, u, m int, stages []Stage, tm *Timings) {
	if len(stages) == 0 {
		e.rankUser(s, u, m, tm)
		return
	}
	e.rankUser(s, u, StagesOverFetch(m, stages), tm)
	var t0 time.Time
	if tm != nil {
		t0 = time.Now()
	}
	s.items, s.scores = applyStages(m, stages, s.items, s.scores)
	if tm != nil {
		tm.Stages += time.Since(t0)
	}
}
