package rank

import (
	"math"
	"slices"

	"repro/internal/core"
)

// Select returns the indices of the m highest-scoring items among those no
// filter excludes, in descending score order with ties broken by ascending
// index (deterministic rankings; see McSherry & Najork on tied scores).
// Fewer than m items are returned when fewer candidates survive the
// filters, and nil when none do. scores is never mutated, so callers may
// read scores[i] back for the returned items.
//
// Selection is a min-heap of min(m, len(scores)) entries over the
// candidates, O(n_i log m), fed by one exclusion test: a bitset marked
// once from the Sorted filters' lists, then the Excluded predicate of the
// rest.
func Select(scores []float64, m int, filters ...Filter) []int {
	// A scratch of its own, never pooled: the list is the caller's, and so
	// are the scores.
	s := scratch{listOnly: true}
	s.flat = flatten(nil, filters)
	s.selectDense(scores, m)
	if len(s.items) == 0 {
		return nil
	}
	return s.items
}

// scratch is the workspace of one rank call, pooled per engine: everything
// a rank writes before its list has an owner. A rank leaves the list in
// items and scores, and so does a cache hit, copied there from the table;
// from there it is copied — into the cache's node on a miss, and into the
// caller's columns or a single-user caller's own slices — so scratch memory
// never escapes the call that borrowed it. Between calls a scratch pins one
// request's filters and fingerprint at most, and the walk of the last user
// it ranked; it dies with its engine.
type scratch struct {
	dense []float64 // the sweep's score array, NumItems long once used
	walk  core.Walk // the support path's walk over the user's co-clusters
	heap  []kept    // selection heap
	tail  []int32   // the walk's kept ids, ascending, for the zero tail
	flat  []Filter  // the request's filters, flattened
	row   []int32   // the ranked user's training row, global ids above...
	rowLo int       // ...this base
	scan  exclusionScan
	// The request's fingerprint, memoised by the keys it was built of (see
	// fingerprint), and a one-slot batch for the table.
	keys, fpKeys []string
	fpFilters    int
	fp           string
	fpOK         bool
	user         [1]int
	slot         [1]ListEntry
	items        []int // the ranked list
	scores       []float64
	listOnly     bool        // Select's scratch: leave scores empty
	batch        []batchUser // TopMBatch's fan-out: every user's filters
}

// batchUser is one user's filtersFor answer, resolved before a fan-out.
type batchUser struct {
	filters []Filter
	ok      bool
}

// selectDense is Select over s.flat, into s.items and s.scores (the engine
// flattens once per request, for the fingerprint and the scan): the
// exclusion scan feeding the heap, which never holds more than the scores.
func (s *scratch) selectDense(scores []float64, m int) {
	s.items, s.scores = s.items[:0], s.scores[:0]
	m = min(m, len(scores))
	if m <= 0 {
		return
	}
	s.scan.reset(len(scores), s.flat, s.row, s.rowLo)
	h := slices.Grow(s.heap[:0], m)
	for i, v := range scores {
		if !s.scan.excluded(i) {
			h = offer(h, m, kept{v, i})
		}
	}
	s.heap = h
	s.drain(h)
}

// exclusionScan merges a request's exclusions into one per-item test over
// the n items of a rank: every id a Sorted filter lists — a partition's
// window through the base its ids sit above, and so does the engine's
// training row — is marked in a bitset, and the rest answer through their
// Excluded predicate. excluded takes items in any order.
type exclusionScan struct {
	words []uint64 // item i is marked at bit i%64 of words[i/64]
	preds []Filter
}

// reset loads flat, and row — ids above base — over n items. Marking costs
// the lists' total length; an id outside [0, n) marks nothing.
func (s *exclusionScan) reset(n int, flat []Filter, row []int32, base int) {
	w := (n + 63) / 64
	s.words = slices.Grow(s.words[:0], w)[:w]
	clear(s.words)
	s.preds = s.preds[:0]
	s.mark(n, row, base)
	for _, f := range flat {
		switch v := f.(type) {
		case windowFilter:
			s.mark(n, v.list, v.lo)
		case Sorted:
			s.mark(n, v.ExcludedList(), 0)
		default:
			s.preds = append(s.preds, f)
		}
	}
}

// mark sets the bit of item id−base for every id of list inside [0, n).
func (s *exclusionScan) mark(n int, list []int32, base int) {
	for _, id := range list {
		if i := uint(int(id) - base); i < uint(n) {
			s.words[i/64] |= 1 << (i % 64)
		}
	}
}

func (s *exclusionScan) excluded(item int) bool {
	if i := uint(item); s.words[i/64]&(1<<(i%64)) != 0 {
		return true
	}
	for _, p := range s.preds {
		if p.Excluded(item) {
			return true
		}
	}
	return false
}

// Ahead is the tie rule every ranking in the module follows: item a with
// score sa ranks ahead of item b with score sb if its score is higher, or
// if the scores are equal and its id is smaller. Select, MergeTopM, the
// stages' re-sort and the router's check of a shard's partial all order by
// it.
func Ahead(sa float64, a int, sb float64, b int) bool {
	if sa != sb {
		return sa > sb
	}
	return a < b
}

// The selection heap is a min-heap of kept items under Ahead reversed, so
// the weakest kept item sits at the root.

// kept is an item in the selection heap, with its score.
type kept struct {
	score float64
	id    int
}

// below reports whether a ranks below b.
func below(a, b kept) bool { return Ahead(b.score, b.id, a.score, a.id) }

func siftUp(h []kept, j int) {
	for j > 0 {
		p := (j - 1) / 2
		if !below(h[j], h[p]) {
			return
		}
		h[j], h[p] = h[p], h[j]
		j = p
	}
}

func siftDown(h []kept, j int) {
	for {
		c := 2*j + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && below(h[c+1], h[c]) {
			c++
		}
		if !below(h[c], h[j]) {
			return
		}
		h[j], h[c] = h[c], h[j]
		j = c
	}
}

// offer keeps e in the heap of the m best seen so far.
func offer(h []kept, m int, e kept) []kept {
	if len(h) < m {
		h = append(h, e)
		siftUp(h, len(h)-1)
		return h
	}
	if !below(e, h[0]) {
		h[0] = e
		siftDown(h, 0)
	}
	return h
}

// drain sorts the heap h in place, best first, and leaves it in s.items
// and, unless the scratch is Select's, s.scores.
func (s *scratch) drain(h []kept) {
	for j := len(h) - 1; j > 0; j-- {
		h[0], h[j] = h[j], h[0]
		siftDown(h[:j], 0)
	}
	s.items = slices.Grow(s.items[:0], len(h))
	for _, e := range h {
		s.items = append(s.items, e.id)
	}
	if !s.listOnly {
		s.scores = slices.Grow(s.scores[:0], len(h))
		for _, e := range h {
			s.scores = append(s.scores, e.score)
		}
	}
}

// selectWalk is selectDense over the n items of the range s.walk was
// started on, every one the walk does not yield scoring exactly +0. The
// dense ranking puts the positive scorers first and then every zero — a
// yielded item or not — by ascending id, so: the top m positive scorers no
// filter excludes, through the heap, and while fewer than m came out of it
// the first surviving ids that are not among them.
//
// The heap takes every item Shared yields, then Next's in descending
// affinity. Once the heap holds m, the first non-excluded item whose
// x = exp(−z) satisfies x·(1−2⁻⁴⁰) > (1−s_m+2⁻⁵²)·(1+2⁻⁴⁰), s_m the m-th
// kept score, ends the walk, because neither it nor anything after it can
// make the list. Proof: Next's z never goes up, exp is decreasing and
// math.Exp is within an ulp of it, so every x' from here on is at least
// x·(1−2⁻⁵²)/(1+2⁻⁵²), which is more than 1−s_m+2⁻⁵²; 1−s_m is exact for
// a score (Sterbenz), and 1−x' rounds by at most 2⁻⁵⁴, so it comes out
// strictly below s_m. (1−s_m stands in for the m-th item's own x: the two
// are within 2⁻⁵⁴.) An affinity of +0 ends the walk too: everything after
// it is +0 as well and scores +0.
func (s *scratch) selectWalk(n, m int) {
	s.items, s.scores = s.items[:0], s.scores[:0]
	m = min(m, n)
	if m <= 0 {
		return
	}
	s.scan.reset(n, s.flat, s.row, s.rowLo)
	w, h := &s.walk, slices.Grow(s.heap[:0], m)
	for id, z, ok := w.Shared(); ok; id, z, ok = w.Shared() {
		if v := 1 - math.Exp(-z); v > 0 && !s.scan.excluded(int(id)) {
			h = offer(h, m, kept{v, int(id)})
		}
	}
	for id, z, ok := w.Next(); ok && z > 0; id, z, ok = w.Next() {
		if s.scan.excluded(int(id)) {
			continue
		}
		x := math.Exp(-z)
		if len(h) == m && x*(1-0x1p-40) > (1-h[0].score+0x1p-52)*(1+0x1p-40) {
			break
		}
		if v := 1 - x; v > 0 {
			h = offer(h, m, kept{v, int(id)})
		}
	}
	s.heap = h
	s.drain(h)
	if len(s.items) == m {
		return
	}
	// Fewer than m positive scorers survive, and every one is kept: the
	// rest of the list is the first surviving ids that are not kept, all
	// scoring +0, walked ascending.
	s.tail = s.tail[:0]
	for _, i := range s.items {
		s.tail = append(s.tail, int32(i))
	}
	slices.Sort(s.tail)
	j := 0
	for i := 0; i < n && len(s.items) < m; i++ {
		if j < len(s.tail) && int(s.tail[j]) == i {
			j++
			continue
		}
		if !s.scan.excluded(i) {
			s.items, s.scores = append(s.items, i), append(s.scores, 0)
		}
	}
}
