package rank

import "slices"

// Partial is one item-partition's contribution to a scatter-gathered
// top-M: the partition's own top-min(m, partition size) items (global
// ids) with their scores, already ordered by the engine's tie rule
// (descending score, ascending item). Select over a partition's score
// slice — which is how the sharded serving tier produces partials —
// yields exactly this shape.
type Partial struct {
	Items  []int
	Scores []float64
}

// MergeTopM merges per-partition top-m lists into one global top-m under
// the selection tie rule: descending score, ties broken by ascending
// item index. Each partial must be sorted by that rule and the
// partitions' item sets must be pairwise disjoint; each partial must
// carry at least min(m, its candidate count) entries. Under those
// preconditions — all guaranteed when every partial is Select's output
// over a disjoint slice of one score vector — the merged list is
// bit-identical (same items, same float64 score bits) to Select over the
// union, which is what makes an N-shard scatter-gather provably equal to
// single-process serving.
//
// The merge is a repeated head scan, O(m · len(parts)): shard counts are
// small (a handful to a few dozen), where a scan of the heads beats a
// heap on constant factors and stays trivially deterministic.
func MergeTopM(m int, parts ...Partial) (items []int, scores []float64) {
	var g Merger
	return g.Merge(nil, nil, m, nil, parts...)
}

// A Merger is the appending form of MergeTopM and MergeTopMStaged, for a
// caller that merges list after list: it keeps the merge's head cursors
// across calls and appends each merged list to buffers the caller owns, so
// a caller that keeps both allocates nothing per merge. The zero value is
// ready; a Merger is not safe for concurrent use.
type Merger struct{ heads []int }

// Merge appends MergeTopMStaged(m, stages, parts...) to items and scores;
// the stages see only the appended list.
func (g *Merger) Merge(items []int, scores []float64, m int, stages []Stage, parts ...Partial) ([]int, []float64) {
	if stages = compactStages(stages); len(stages) == 0 {
		return g.merge(items, scores, m, parts)
	}
	n := len(items)
	items, scores = g.merge(items, scores, StagesOverFetch(m, stages), parts)
	staged, stagedScores := applyStages(m, stages, items[n:], scores[n:])
	return append(items[:n], staged...), append(scores[:n], stagedScores...)
}

// merge appends the unstaged top-m of parts to items and scores.
func (g *Merger) merge(items []int, scores []float64, m int, parts []Partial) ([]int, []float64) {
	total := 0
	for _, p := range parts {
		total += len(p.Items)
	}
	if m = min(m, total); m <= 0 {
		return items, scores
	}
	heads := slices.Grow(g.heads[:0], len(parts))[:len(parts)]
	clear(heads)
	g.heads = heads
	items, scores = slices.Grow(items, m), slices.Grow(scores, m)
	for range m {
		best := -1
		for pi := range parts {
			h := heads[pi]
			if h >= len(parts[pi].Items) {
				continue
			}
			if best == -1 {
				best = pi
				continue
			}
			bs, bi := parts[best].Scores[heads[best]], parts[best].Items[heads[best]]
			ps, piItem := parts[pi].Scores[h], parts[pi].Items[h]
			if ps > bs || (ps == bs && piItem < bi) {
				best = pi
			}
		}
		items = append(items, parts[best].Items[heads[best]])
		scores = append(scores, parts[best].Scores[heads[best]])
		heads[best]++
	}
	return items, scores
}

// MergeTopMStaged is the router's post-merge stage hook: it merges the
// partials into the global top-StagesOverFetch(m, stages) head, applies
// the stages exactly once, and truncates to m. Each partial must carry at
// least min(StagesOverFetch(m, stages), its candidate count) entries —
// the gather side must request the over-fetched length from its shards.
// Because MergeTopM over disjoint sorted partials is bit-identical to
// Select over the union, and stages are deterministic functions of the
// selected head, the staged merge is bit-identical to single-process
// staged serving (Engine.TopMStaged) over the same model and filters.
// With an empty stage list it is exactly MergeTopM.
func MergeTopMStaged(m int, stages []Stage, parts ...Partial) (items []int, scores []float64) {
	var g Merger
	return g.Merge(nil, nil, m, stages, parts...)
}
