package core

import (
	"math"
	"runtime"

	"repro/internal/linalg"
)

// The support index: the paper's interpretability claim — a user and an
// item belong to few co-clusters — read as a serving index. An item whose
// factor is zero on every co-cluster of the user's support has the affinity
// ⟨f_u, f_i⟩ = +0 and, in a model without bias, the score 1 − exp(−0) = +0
// whatever the item; only the others need a dot product and an exp.

// maxCandidateShare is the crossover between the two ways to rank a user:
// when the lists of the user's support hold, repeats included, more than
// this share of the range's items, ScoreCandidates declines and the caller
// sweeps the range. Measured, not guessed (BenchmarkRankCandidateShare in
// internal/rank; the table in README "Performance"): on the dense presets
// (SyntheticMovieLens K=50, SyntheticB2B K=30; top-20 under the training-row
// filter) the support path's cost grows linearly with the share — a quarter
// of the sweep's at 0.2, half at 0.4 — and meets the sweep's between 0.8
// and 0.85, where the merge's repeats eat what the skipped rows save.
const maxCandidateShare = 0.75

// supportLists returns, per co-cluster, the ascending range-local ids of
// the items whose factor on it is positive in the section ScoreItems reads,
// building them on first use — or nil when the range cannot be ranked from
// them: the model has bias sections (an off-support item's score is then
// not a constant), or an item factor is not a finite non-negative number
// (the sections are unchecked bytes; NaN·0 ≠ 0 and a negative factor lets
// an off-support item score).
func (rr *MappedModelRange) supportLists() [][]int32 {
	rr.supportOnce.Do(func() {
		if rr.bu != nil {
			return
		}
		lists, ok := make([][]int32, rr.k), false
		if rr.fi32 != nil {
			ok = indexFactors(lists, rr.fi32)
		} else {
			ok = indexFactors(lists, rr.fi)
		}
		if ok {
			rr.support = lists
		}
		runtime.KeepAlive(rr)
	})
	return rr.support
}

// inDomain reports whether v is what the model defines a factor to be: a
// finite non-negative number (not negative, not NaN; not +Inf).
func inDomain[F float32 | float64](v F) bool { return v >= 0 && v-v == 0 }

// indexFactors appends each row's id to the list of every co-cluster the
// row is positive on, and reports whether every factor was in the domain.
func indexFactors[F float32 | float64](lists [][]int32, fi []F) bool {
	k := len(lists)
	for n := 0; n*k < len(fi); n++ {
		for c, v := range fi[n*k : (n+1)*k] {
			if !inDomain(v) {
				return false
			}
			if v > 0 {
				lists[c] = append(lists[c], int32(n))
			}
		}
	}
	return true
}

// ScoreCandidates scores the items that can score: it appends to ids the
// ascending range-local ids of the items with a positive factor on some
// co-cluster of user u's support — the merge of those co-clusters' lists —
// and to scores what ScoreItems writes for each, bit for bit (the same
// rows through the same linalg.DotF32 / linalg.Dot; there is no bias to
// add). Every item of the range not in ids scores exactly +0. A candidate
// whose products all underflowed scores +0 too.
//
// ok = false means the range must be swept instead (ids and scores come
// back as passed in): the model has bias sections, a factor of the item
// section or of u's row is not a finite non-negative number, or the
// support's lists hold more than maxCandidateShare of the range.
func (rr *MappedModelRange) ScoreCandidates(u int, ids []int32, scores []float64) ([]int32, []float64, bool) {
	lists := rr.supportLists()
	if lists == nil {
		return ids, scores, false
	}
	defer runtime.KeepAlive(rr)
	k := rr.k
	if rr.fu32 != nil {
		return scoreCandidates(lists, rr.fu32[u*k:(u+1)*k], rr.fi32, linalg.DotF32, ids, scores)
	}
	return scoreCandidates(lists, rr.fu[u*k:(u+1)*k], rr.fi, linalg.Dot, ids, scores)
}

func scoreCandidates[F float32 | float64](lists [][]int32, fu, fi []F, dot func(a, b []F) float64, ids []int32, scores []float64) ([]int32, []float64, bool) {
	k := len(fu)
	heads := make([][]int32, 0, 16) // the unmerged rest of each support list
	total := 0
	for c, w := range fu {
		if !inDomain(w) {
			return ids, scores, false
		}
		if w > 0 && len(lists[c]) > 0 {
			heads = append(heads, lists[c])
			total += len(lists[c])
		}
	}
	if float64(total) > maxCandidateShare*float64(len(fi)/k) {
		return ids, scores, false
	}
	for {
		next := int32(math.MaxInt32)
		for _, h := range heads {
			if len(h) > 0 && h[0] < next {
				next = h[0]
			}
		}
		if next == math.MaxInt32 {
			return ids, scores, true
		}
		for s, h := range heads {
			if len(h) > 0 && h[0] == next {
				heads[s] = h[1:]
			}
		}
		// The dense kernels add a user bias of +0 here; a dot of
		// non-negative factors is never −0, so the sum is the dot itself.
		z := dot(fu, fi[int(next)*k:][:k])
		ids, scores = append(ids, next), append(scores, 1-math.Exp(-z))
	}
}
