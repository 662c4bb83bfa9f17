package rank

import (
	"slices"
	"sort"
)

// Select returns the indices of the m highest-scoring items among those no
// filter excludes, in descending score order with ties broken by ascending
// index (deterministic rankings; see McSherry & Najork on tied scores).
// Fewer than m items are returned when fewer candidates survive the
// filters, and nil when none do. scores is never mutated, so callers may
// read scores[i] back for the returned items.
//
// Selection is a size-m min-heap over the candidates, O(n_i log m), which
// matters when ranking a 17k-item catalogue for a top-50 list; a full sort
// is used when m covers most of the candidate set. Both paths share one
// exclusion scan that walks Sorted filters with cursors and falls back to
// the Excluded predicate for the rest.
func Select(scores []float64, m int, filters ...Filter) []int {
	// A scratch of its own, never pooled: the list is the caller's.
	var s scratch
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
// request's filters and fingerprint at most, and it dies with its engine.
type scratch struct {
	dense []float64 // the sweep's score array, NumItems long once used
	ids   []int32   // sparse form: the ascending candidate ids...
	cand  []float64 // ...and their scores
	heap  []int     // selection heap, or the full sort's candidate list
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
	batch        []batchUser // TopMBatch's fan-out: every user's filters
}

// batchUser is one user's filtersFor answer, resolved before a fan-out.
type batchUser struct {
	filters []Filter
	ok      bool
}

// selectDense is Select over s.flat, into s.items (the engine flattens
// once per request, for the fingerprint and the scan).
func (s *scratch) selectDense(scores []float64, m int) {
	s.items = s.items[:0]
	if m <= 0 {
		return
	}
	s.scan.reset(s.flat, s.row, s.rowLo)
	// Upper-bound the exclusions to estimate the candidate count. Filters
	// may overlap, so this underestimates nCand — which only biases the
	// path choice toward the full sort; both paths return identical
	// rankings.
	bound := len(s.row)
	for _, f := range s.flat {
		if c, ok := f.(bounder); ok {
			bound += c.maxExcluded(len(scores))
		}
	}
	if nCand := len(scores) - bound; m*4 < nCand {
		s.selectHeap(scores, m)
	} else {
		s.selectSort(scores, m)
	}
}

// exclusionScan merges a request's filters into one per-item test for the
// ascending selection scan: Sorted filters advance cursors (amortized O(1)
// per item) — a partition's window of one through the base its ids sit
// above, and so does the engine's training row — and the rest answer
// through their Excluded predicate. excluded must be called with strictly
// increasing items.
type exclusionScan struct {
	lists   [][]int32
	bases   []int // list n holds item i as i+bases[n]
	cursors []int
	preds   []Filter
}

// reset loads flat, and row — ids above base — as one more list when it is
// not empty.
func (s *exclusionScan) reset(flat []Filter, row []int32, base int) {
	s.lists, s.bases, s.cursors, s.preds = s.lists[:0], s.bases[:0], s.cursors[:0], s.preds[:0]
	if len(row) > 0 {
		s.lists, s.bases, s.cursors = append(s.lists, row), append(s.bases, base), append(s.cursors, 0)
	}
	for _, f := range flat {
		switch v := f.(type) {
		case windowFilter:
			s.lists, s.bases = append(s.lists, v.list), append(s.bases, v.lo)
		case Sorted:
			s.lists, s.bases = append(s.lists, v.ExcludedList()), append(s.bases, 0)
		default:
			s.preds = append(s.preds, f)
			continue
		}
		s.cursors = append(s.cursors, 0)
	}
}

func (s *exclusionScan) excluded(item int) bool {
	for n, l := range s.lists {
		c, at := s.cursors[n], item+s.bases[n]
		for c < len(l) && int(l[c]) < at {
			c++
		}
		s.cursors[n] = c
		if c < len(l) && int(l[c]) == at {
			return true
		}
	}
	for _, p := range s.preds {
		if p.Excluded(item) {
			return true
		}
	}
	return false
}

// selectSort ranks all candidates by full sort; exact reference used for
// large m and by the equivalence tests.
func (s *scratch) selectSort(scores []float64, m int) {
	cand := slices.Grow(s.heap[:0], len(scores))
	for i := range scores {
		if !s.scan.excluded(i) {
			cand = append(cand, i)
		}
	}
	s.heap = cand
	sort.Slice(cand, func(a, b int) bool {
		if scores[cand[a]] != scores[cand[b]] {
			return scores[cand[a]] > scores[cand[b]]
		}
		return cand[a] < cand[b]
	})
	s.items = append(s.items, cand[:min(m, len(cand))]...)
}

// The selection heap is a min-heap over a plain []int of indices into
// scores, keyed (score asc, index desc), so the weakest kept candidate sits
// at the root; the inverted index order makes the heap's notion of "worst"
// agree with the ranking's tie rule (among equal scores, the larger index
// is worse). Dense selection keeps item ids in it, sparse selection
// positions in the ascending candidate list — either way the order of the
// indices is the order of the items.

// below reports whether index a ranks below index b.
func below(scores []float64, a, b int) bool {
	if scores[a] != scores[b] {
		return scores[a] < scores[b]
	}
	return a > b
}

func siftUp(h []int, scores []float64, j int) {
	for j > 0 {
		p := (j - 1) / 2
		if !below(scores, h[j], h[p]) {
			return
		}
		h[j], h[p] = h[p], h[j]
		j = p
	}
}

func siftDown(h []int, scores []float64, j int) {
	for {
		c := 2*j + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && below(scores, h[c+1], h[c]) {
			c++
		}
		if !below(scores, h[c], h[j]) {
			return
		}
		h[j], h[c] = h[c], h[j]
		j = c
	}
}

// offer keeps index i in the heap of the m best seen so far.
func offer(h []int, scores []float64, m, i int) []int {
	if len(h) < m {
		h = append(h, i)
		siftUp(h, scores, len(h)-1)
		return h
	}
	if !below(scores, i, h[0]) {
		h[0] = i
		siftDown(h, scores, 0)
	}
	return h
}

// drain empties the heap into out[:len(h)], best first.
func drain(h []int, scores []float64, out []int) {
	for n := len(h) - 1; n >= 0; n-- {
		out[n] = h[0]
		h[0] = h[n]
		h = h[:n]
		siftDown(h, scores, 0)
	}
}

func (s *scratch) selectHeap(scores []float64, m int) {
	h := slices.Grow(s.heap[:0], m)
	for i := range scores {
		if !s.scan.excluded(i) {
			h = offer(h, scores, m, i)
		}
	}
	s.heap = h
	s.items = slices.Grow(s.items, len(h))[:len(h)]
	drain(h, scores, s.items)
}

// selectSparse is selectDense over the n-item array s.ids and s.cand stand
// for — ids the ascending items that may score above zero, cand their
// scores (none negative), every other item exactly +0 — leaving the scores
// with the items. The dense ranking puts the positive scorers first and
// then every zero — candidate or not — by ascending id, so: the top m
// positive candidates no filter excludes, through the heap, and while fewer
// than m came out of it (the common case: a user's support reaches few
// items) the first surviving ids that are not among them.
func (s *scratch) selectSparse(n, m int) {
	s.items, s.scores = s.items[:0], s.scores[:0]
	if m > n {
		m = n
	}
	if m <= 0 {
		return
	}
	s.scan.reset(s.flat, s.row, s.rowLo)
	h := s.heap[:0]
	for j, id := range s.ids {
		if s.cand[j] > 0 && !s.scan.excluded(int(id)) {
			h = offer(h, s.cand, m, j)
		}
	}
	s.heap = h
	s.items = slices.Grow(s.items, m)[:len(h)]
	drain(h, s.cand, s.items)
	for r, j := range s.items {
		s.items[r], s.scores = int(s.ids[j]), append(s.scores, s.cand[j])
	}
	if len(s.items) < m {
		clear(s.scan.cursors) // the tail walk starts over from item 0
		j := 0
		for i := 0; i < n && len(s.items) < m; i++ {
			for j < len(s.ids) && int(s.ids[j]) < i {
				j++
			}
			if j < len(s.ids) && int(s.ids[j]) == i && s.cand[j] > 0 || s.scan.excluded(i) {
				continue
			}
			s.items, s.scores = append(s.items, i), append(s.scores, 0)
		}
	}
}
