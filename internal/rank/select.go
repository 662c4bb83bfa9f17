package rank

import "sort"

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
	return selectFlat(scores, m, flatten(filters))
}

// selectFlat is Select over an already-flattened filter list (the engine
// flattens once per request, for the fingerprint and the scan).
func selectFlat(scores []float64, m int, flat []Filter) []int {
	if m <= 0 {
		return nil
	}
	scan := newExclusionScan(flat)
	// Upper-bound the exclusions to estimate the candidate count. Filters
	// may overlap, so this underestimates nCand — which only biases the
	// path choice toward the full sort; both paths return identical
	// rankings.
	bound := 0
	for _, f := range flat {
		if c, ok := f.(bounder); ok {
			bound += c.maxExcluded(len(scores))
		}
	}
	if nCand := len(scores) - bound; m*4 < nCand {
		return selectHeap(scores, m, scan)
	}
	return selectSort(scores, m, scan)
}

// exclusionScan merges a request's filters into one per-item test for the
// ascending selection scan: Sorted filters advance cursors (amortized O(1)
// per item), the rest answer through their Excluded predicate. excluded
// must be called with strictly increasing items.
type exclusionScan struct {
	lists   [][]int32
	cursors []int
	preds   []Filter
}

func newExclusionScan(flat []Filter) *exclusionScan {
	s := &exclusionScan{}
	for _, f := range flat {
		if sf, ok := f.(Sorted); ok {
			s.lists = append(s.lists, sf.ExcludedList())
			continue
		}
		s.preds = append(s.preds, f)
	}
	s.cursors = make([]int, len(s.lists))
	return s
}

func (s *exclusionScan) excluded(item int) bool {
	for n, l := range s.lists {
		c := s.cursors[n]
		for c < len(l) && int(l[c]) < item {
			c++
		}
		s.cursors[n] = c
		if c < len(l) && int(l[c]) == item {
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
func selectSort(scores []float64, m int, scan *exclusionScan) []int {
	cand := make([]int, 0, len(scores))
	for i := range scores {
		if scan.excluded(i) {
			continue
		}
		cand = append(cand, i)
	}
	if len(cand) == 0 {
		return nil
	}
	sort.Slice(cand, func(a, b int) bool {
		if scores[cand[a]] != scores[cand[b]] {
			return scores[cand[a]] > scores[cand[b]]
		}
		return cand[a] < cand[b]
	})
	if len(cand) > m {
		cand = cand[:m]
	}
	return cand
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

func selectHeap(scores []float64, m int, scan *exclusionScan) []int {
	h := make([]int, 0, m)
	for i := range scores {
		if !scan.excluded(i) {
			h = offer(h, scores, m, i)
		}
	}
	if len(h) == 0 {
		return nil
	}
	out := make([]int, len(h))
	drain(h, scores, out)
	return out
}

// candidates is a user's score array in sparse form: ids are the ascending
// items that may score above zero, scores their scores (none negative), and
// every other item of the catalogue scores exactly +0. heap is selection
// scratch; an engine pools the three slices together.
type candidates struct {
	ids    []int32
	scores []float64
	heap   []int
}

// selectTop is Select over the n-item array c stands for, returning the
// scores with the items. The dense ranking puts the positive scorers first
// and then every zero — candidate or not — by ascending id, so: the top m
// positive candidates no filter excludes, through the heap, and while fewer
// than m came out of it (the common case: a user's support reaches few
// items) the first surviving ids that are not among them.
func (c *candidates) selectTop(n, m int, flat []Filter) (items []int, scores []float64) {
	if m > n {
		m = n
	}
	if m <= 0 {
		return nil, nil
	}
	scan := newExclusionScan(flat)
	h := c.heap[:0]
	for j, id := range c.ids {
		if c.scores[j] > 0 && !scan.excluded(int(id)) {
			h = offer(h, c.scores, m, j)
		}
	}
	c.heap = h
	items, scores = make([]int, len(h), m), make([]float64, len(h), m)
	drain(h, c.scores, items)
	for n, j := range items {
		items[n], scores[n] = int(c.ids[j]), c.scores[j]
	}
	if len(items) < m {
		clear(scan.cursors) // the tail walk starts over from item 0
		j := 0
		for i := 0; i < n && len(items) < m; i++ {
			for j < len(c.ids) && int(c.ids[j]) < i {
				j++
			}
			if j < len(c.ids) && int(c.ids[j]) == i && c.scores[j] > 0 || scan.excluded(i) {
				continue
			}
			items, scores = append(items, i), append(scores, 0)
		}
	}
	return items, scores
}
