package rank

import "time"

// Timings, when passed to one of the Timed entry points, receives the
// wall time the pipeline spent per stage for that single request — the
// hook the observability layer turns into trace spans. On the sweep,
// Score is the scorer sweep and Select the fused filter+selection scan
// (filters are applied during selection, not as a separate pass, so they
// cannot be timed apart). On the support path, Score is starting the walk
// — reading the user's support and scoring the head of each of its lists —
// and Select is the walk itself, which scores each item it visits as it
// filters and selects it, so most of the scoring is timed there. Stages
// is the post-selection re-rank pass. On a cache
// hit or coalesced wait the durations stay zero and the flags say why:
// no ranking happened, and no clocks are read — the Timed entry points
// with a non-nil Timings cost nothing extra on the hit path.
type Timings struct {
	Score  time.Duration
	Select time.Duration
	Stages time.Duration
	// Cached reports the list came from the cache or another request's
	// in-flight computation; Coalesced narrows that to the latter.
	Cached    bool
	Coalesced bool
}
