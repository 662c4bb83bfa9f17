package rank

import (
	"slices"

	"repro/internal/parallel"
)

// BatchCols is the columnar result shape of a batch request: ranked
// lists for n users appended end to end into flat columns, Counts saying
// where each user's slice ends. The columns are caller-owned — a serving
// layer keeps one per pooled request scratch and encodes them onto the
// wire without reshaping — while the appended item/score values are
// copied out of the engine's rank scratch, where a hit's list was copied
// from the cache, so the columns stay valid after the cache evicts, a
// snapshot is swapped or the scratch ranks its next user.
type BatchCols struct {
	Counts []uint32
	Items  []uint32
	Scores []float64
	Cached []bool
	// Timings, when non-nil, accumulates the stage times of every user the
	// serial path ranks — a one-user batch's are that user's own, the hook a
	// traced single request turns into per-stage spans. The concurrent path
	// leaves it alone, and Reset keeps it.
	Timings *Timings
}

// Reset empties the columns, keeping their capacity.
func (c *BatchCols) Reset() {
	c.Counts = c.Counts[:0]
	c.Items = c.Items[:0]
	c.Scores = c.Scores[:0]
	c.Cached = c.Cached[:0]
}

// Append adds one user's ranked list to the columns.
func (c *BatchCols) Append(items []int, scores []float64, cached bool) {
	c.Counts = append(c.Counts, uint32(len(items)))
	for _, it := range items {
		c.Items = append(c.Items, uint32(it))
	}
	c.Scores = append(c.Scores, scores...)
	c.Cached = append(c.Cached, cached)
}

// AppendEmpty adds one user's slot with no items — the shape a serving
// layer gives a user it rejected before ranking.
func (c *BatchCols) AppendEmpty() {
	c.Counts = append(c.Counts, 0)
	c.Cached = append(c.Cached, false)
}

// TopMBatch ranks many users through the same cached, coalesced pipeline
// as TopMStagedTimed — score → filter → select → re-rank per user, identical
// cache keys, fingerprints and singleflight coalescing — and appends the
// results into cols in input order. filtersFor builds the filter set for
// the i-th user; it is called once per i, on the caller's goroutine, so a
// closure built per call costs the caller no allocation. Returning
// ok=false skips ranking and appends an empty slot, letting the caller
// flag that user however its transport does. workers > 1 ranks users
// concurrently with input order preserved in cols.
//
// Every list is copied into cols straight from the scratch Engine.list left
// it in — ranked there on a miss, copied there from the cache on a hit —
// so once the cache is full a batch allocates nothing per user, hit or
// miss: serially one scratch ranks user after user; concurrently each
// user's list goes to a slot of min(m, NumItems) reserved for it in the
// columns, and the slots are closed up in order afterwards.
func (e *Engine) TopMBatch(users []int, m, workers int, stages []Stage, filtersFor func(i int) ([]Filter, bool), cols *BatchCols) {
	stages = compactStages(stages)
	if workers <= 1 || len(users) == 1 {
		s := e.pool.Get().(*scratch)
		defer e.pool.Put(s)
		for i, u := range users {
			filters, ok := filtersFor(i)
			if !ok {
				cols.AppendEmpty()
				continue
			}
			cached := e.list(s, u, m, stages, filters, cols.Timings)
			cols.Append(s.items, s.scores, cached)
		}
		return
	}
	fs := e.pool.Get().(*scratch) // holds every user's filters for the workers
	defer e.pool.Put(fs)
	fs.batch = fs.batch[:0]
	for i := range users {
		filters, ok := filtersFor(i)
		fs.batch = append(fs.batch, batchUser{filters, ok})
	}
	user0, item0, slot := len(cols.Counts), len(cols.Items), max(min(m, e.scorer.NumItems()), 0)
	cols.Counts = slices.Grow(cols.Counts, len(users))[:user0+len(users)]
	cols.Cached = slices.Grow(cols.Cached, len(users))[:user0+len(users)]
	cols.Items = slices.Grow(cols.Items, len(users)*slot)[:item0+len(users)*slot]
	cols.Scores = slices.Grow(cols.Scores, len(users)*slot)[:item0+len(users)*slot]
	parallel.For(len(users), workers, func(i int, _ *parallel.Scratch) {
		cols.Counts[user0+i], cols.Cached[user0+i] = 0, false
		if !fs.batch[i].ok {
			return
		}
		s := e.pool.Get().(*scratch)
		defer e.pool.Put(s)
		cached := e.list(s, users[i], m, stages, fs.batch[i].filters, nil)
		at := item0 + i*slot
		for n, it := range s.items {
			cols.Items[at+n] = uint32(it)
		}
		copy(cols.Scores[at:], s.scores)
		cols.Counts[user0+i], cols.Cached[user0+i] = uint32(len(s.items)), cached
	})
	end := item0
	for i := range users {
		at, n := item0+i*slot, int(cols.Counts[user0+i])
		copy(cols.Items[end:], cols.Items[at:at+n])
		copy(cols.Scores[end:], cols.Scores[at:at+n])
		end += n
	}
	cols.Items, cols.Scores = cols.Items[:end], cols.Scores[:end]
}
