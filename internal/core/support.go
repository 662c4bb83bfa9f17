package core

import (
	"cmp"
	"math/bits"
	"runtime"
	"slices"

	"repro/internal/linalg"
)

// The support index: the paper's interpretability claim — a user and an
// item belong to few co-clusters — read as a serving index. An item whose
// factor is zero on every co-cluster of the user's support has the affinity
// ⟨f_u, f_i⟩ = +0 and, in a model without bias, the score 1 − exp(−0) = +0
// whatever the item; only the others need a dot product and an exp, and of
// those only the ones that can still make the list.

// maxCandidateShare bounds the support path: when the lists of the user's
// support hold, repeats included, more than this share of the range's
// items, Walk declines and the caller sweeps the range. Measured, not
// guessed (BenchmarkRankCandidateShare in internal/rank; the table in
// README "Performance"): on the dense presets (SyntheticMovieLens K=50,
// SyntheticB2B K=30; top-20 under the training-row filter) the walk's cost
// grows with the share, to about half the sweep's at 1.0; past that the
// presets hold too few users to say where the two meet (the one measured
// near 1.9 cost what the sweep does).
const maxCandidateShare = 1.0

// supportIndex is what a range builds once to walk its users' supports.
type supportIndex struct {
	words int // ⌈K/64⌉, the words of one co-cluster mask
	// masks holds item n's co-clusters — those its factor is positive on —
	// as words bits at masks[n*words:].
	masks []uint64
	// lists holds, per co-cluster, its items in (factor desc, id asc) order.
	lists [][]int32
	// shared holds, per co-cluster, its items that lie on two or more
	// co-clusters, ascending.
	shared [][]int32
}

// index returns the range's support index, built on first use from the
// float64 item section ScoreItems reads — or nil when the range cannot be
// ranked from it: the model has bias sections (an off-support item's score
// is then not a constant), or an item factor is not a finite non-negative
// number (the sections are unchecked bytes; NaN·0 ≠ 0 and a negative factor
// lets an off-support item score).
func (rr *MappedModelRange) index() *supportIndex {
	rr.supportOnce.Do(func() {
		if rr.bu != nil {
			return
		}
		rr.support = buildIndex(rr.k, rr.fi)
		runtime.KeepAlive(rr)
	})
	return rr.support
}

// inDomain reports whether v is what the model defines a factor to be: a
// finite non-negative number (not negative, not NaN; not +Inf).
func inDomain(v float64) bool { return v >= 0 && v-v == 0 }

// buildIndex indexes the k-wide rows of fi, or returns nil when a factor is
// out of the domain.
func buildIndex(k int, fi []float64) *supportIndex {
	n, words := len(fi)/k, (k+63)/64
	ix := &supportIndex{words: words, masks: make([]uint64, n*words), lists: make([][]int32, k), shared: make([][]int32, k)}
	for i := 0; i < n; i++ {
		on, mask := 0, ix.masks[i*words:][:words]
		for c, v := range fi[i*k : (i+1)*k] {
			if !inDomain(v) {
				return nil
			}
			if v > 0 {
				ix.lists[c] = append(ix.lists[c], int32(i))
				mask[c/64] |= 1 << (c % 64)
				on++
			}
		}
		if on < 2 {
			continue
		}
		for c, v := range fi[i*k : (i+1)*k] {
			if v > 0 {
				ix.shared[c] = append(ix.shared[c], int32(i))
			}
		}
	}
	for c, l := range ix.lists {
		// Built ascending, so a stable sort by factor leaves ties by id.
		slices.SortStableFunc(l, func(a, b int32) int { return cmp.Compare(fi[int(b)*k+c], fi[int(a)*k+c]) })
	}
	return ix
}

// Walk is one user's support, read best first: what a known user's rank
// visits instead of the range's every item. Its buffers are reused from
// user to user; the zero value is ready for MappedModelRange.Walk.
//
// An item the walk never yields scores exactly +0. The ones it yields come
// in two phases. Shared yields, in no particular order, each item that lies
// on two or more of the support's co-clusters. Next then yields the others
// — each on exactly one support co-cluster c, so its affinity is the
// product f_u[c]·f_i[c] plus +0 products, a non-decreasing function of
// f_i[c] alone — by merging the support's lists, which are sorted by that
// factor, on the head with the largest affinity. So Next's affinities never
// go up: everything after an item scores no higher than it does, and a rank
// can stop there once that item cannot make the list. Each affinity z is
// what ScoreItems computes for the item (there is no bias to add), whose
// score is 1 − exp(−z) bit for bit: Shared's through the same linalg.Dot,
// Next's as the one product that dot adds up to (affinityOn).
type Walk struct {
	rr     *MappedModelRange // keeps the mapping alive while a walk reads it
	ix     *supportIndex
	k      int
	fu, fi []float64 // the user's row and the item section
	mask   []uint64  // the support, as an item's co-clusters are
	// Shared's position: support[sc] is the co-cluster whose shared list it
	// reads, at sj.
	support []int
	sc, sj  int
	heads   [][]int32 // the unwalked rest of each support list...
	hz      []float64 // ...and the affinity of its first item
}

// Walk starts w on user u's support and reports whether the range can rank
// u that way. false means the range must be swept instead: the model has
// bias sections, a factor of the item section or of u's row is not a
// finite non-negative number, or the support's lists hold more than
// maxCandidateShare of the range.
func (rr *MappedModelRange) Walk(u int, w *Walk) bool {
	ix := rr.index()
	if ix == nil {
		return false
	}
	k := rr.k
	w.rr, w.ix, w.k = rr, ix, k
	w.fu, w.fi = rr.fu[u*k:(u+1)*k], rr.fi
	return w.readSupport() && w.start(rr.Len())
}

// readSupport loads the co-clusters the user's row is positive on that
// hold an item, and reports whether every factor of the row is in the
// domain.
func (w *Walk) readSupport() bool {
	w.support = w.support[:0]
	w.mask = slices.Grow(w.mask[:0], w.ix.words)[:w.ix.words]
	clear(w.mask)
	for c, v := range w.fu {
		if !inDomain(v) {
			return false
		}
		if v > 0 && len(w.ix.lists[c]) > 0 {
			w.support = append(w.support, c)
			w.mask[c/64] |= 1 << (c % 64)
		}
	}
	return true
}

// start declines a support whose lists hold more than maxCandidateShare of
// the range's n items, and otherwise puts each list's first item at its
// head.
func (w *Walk) start(n int) bool {
	total := 0
	for _, c := range w.support {
		total += len(w.ix.lists[c])
	}
	if float64(total) > maxCandidateShare*float64(n) {
		return false
	}
	w.sc, w.sj = 0, 0
	w.heads, w.hz = w.heads[:0], w.hz[:0]
	for _, c := range w.support {
		w.heads, w.hz = append(w.heads, w.ix.lists[c]), append(w.hz, 0)
		w.settle(len(w.heads) - 1)
	}
	return true
}

// affinity is ScoreItems' z for range-local item id.
func (w *Walk) affinity(id int32) float64 {
	return linalg.Dot(w.fu, w.fi[int(id)*w.k:][:w.k])
}

// affinityOn is affinity for an item whose only support co-cluster is c.
// Every other product of the dot is ±0, and adding ±0 to a sum leaves it
// unchanged (a zero sum included: the sums start at +0), so linalg.Dot
// returns its one product.
func (w *Walk) affinityOn(id int32, c int) float64 {
	return w.fu[c] * w.fi[int(id)*w.k+c]
}

// sharedFirst returns the lowest support co-cluster of item id when the
// item lies on two or more of them, and −1 when it lies on one.
func (w *Walk) sharedFirst(id int32) int {
	first, on := -1, 0
	for j, b := range w.ix.masks[int(id)*w.ix.words:][:w.ix.words] {
		if b &= w.mask[j]; b != 0 {
			if first < 0 {
				first = j*64 + bits.TrailingZeros64(b)
			}
			on += bits.OnesCount64(b)
		}
	}
	if on < 2 {
		return -1
	}
	return first
}

// settle moves head h past the items Shared yields and scores its first,
// which lies on one support co-cluster: head h's.
func (w *Walk) settle(h int) {
	l := w.heads[h]
	for len(w.support) > 1 && len(l) > 0 && w.sharedFirst(l[0]) >= 0 {
		l = l[1:]
	}
	w.heads[h] = l
	if len(l) > 0 {
		w.hz[h] = w.affinityOn(l[0], w.support[h])
	}
}

// Shared returns the next item that lies on two or more of the support's
// co-clusters, with its affinity; ok = false when none is left. Each such
// item comes once, from the shared list of its lowest support co-cluster.
func (w *Walk) Shared() (id int32, z float64, ok bool) {
	for len(w.support) > 1 && w.sc < len(w.support) {
		c := w.support[w.sc]
		for l := w.ix.shared[c]; w.sj < len(l); {
			id := l[w.sj]
			w.sj++
			if w.sharedFirst(id) == c {
				return id, w.affinity(id), true
			}
		}
		w.sc, w.sj = w.sc+1, 0
	}
	return 0, 0, false
}

// Next returns the walk's next item, range-local, with its affinity, which
// is never above the one Next returned before; ok = false once every list
// is walked.
func (w *Walk) Next() (id int32, z float64, ok bool) {
	best := -1
	for h, l := range w.heads {
		if len(l) > 0 && (best < 0 || w.hz[h] > w.hz[best]) {
			best = h
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	id, z = w.heads[best][0], w.hz[best]
	w.heads[best] = w.heads[best][1:]
	w.settle(best)
	return id, z, true
}
