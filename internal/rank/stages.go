package rank

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Stage is a post-selection re-rank step, extending the pipeline from
// score → filter → select to score → filter → select → rerank. A stage
// receives the selected (items, scores) head — over-fetched to the
// largest OverFetch any stage in the request declares — and rewrites it:
// re-ordering, adjusting scores, or dropping entries. After the last
// stage the pipeline truncates the head to the requested m.
//
// Stages must be deterministic: the output may depend only on the input
// head and the stage's own configuration, never on wall time, randomness
// or mutable shared state. That determinism is what lets the router
// apply stages once after scatter-gather and stay bit-identical to
// single-process staged serving, and what makes staged results safe to
// cache.
//
// Like filters, stages declare a CacheKey that folds into the request
// fingerprint, so two requests differing only in stage configuration can
// never collide in the cache. An empty key marks the stage uncacheable
// (the request still works — it just bypasses the cache).
type Stage interface {
	// CacheKey returns a stable fingerprint of the stage's behavior for
	// the lifetime of one Engine. Empty means uncacheable.
	CacheKey() string
	// OverFetch reports how many candidates must be selected before the
	// stage runs so that its top-m output is well-defined. It must
	// return at least m.
	OverFetch(m int) int
	// Apply rewrites the selected head for a request of length m and
	// returns the (possibly shorter) result. It may modify the input
	// slices in place and may return them; it must not retain them.
	// items arrive ordered by the selection tie rule (descending score,
	// ascending item) unless an earlier stage re-ordered them.
	Apply(m int, items []int, scores []float64) ([]int, []float64)
}

// compactStages drops nil entries, returning nil when no stages remain —
// the zero-stage request is then byte-identical to an unstaged one,
// fingerprint included.
func compactStages(stages []Stage) []Stage {
	n := 0
	for _, st := range stages {
		if st != nil {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	if n == len(stages) {
		return stages
	}
	out := make([]Stage, 0, n)
	for _, st := range stages {
		if st != nil {
			out = append(out, st)
		}
	}
	return out
}

// StagesOverFetch returns how many candidates a request of length m must
// select (or a router must gather from its shards) before the stage list
// runs, so that truncating the staged head to m is well-defined. With no
// stages it is m.
func StagesOverFetch(m int, stages []Stage) int {
	fetch := m
	for _, st := range stages {
		if st == nil {
			continue
		}
		if f := st.OverFetch(m); f > fetch {
			fetch = f
		}
	}
	return fetch
}

// applyStages runs the stage list over an over-fetched head and truncates
// the result to m. The input slices must be private to the caller (stages
// rewrite them in place).
func applyStages(m int, stages []Stage, items []int, scores []float64) ([]int, []float64) {
	for _, st := range stages {
		if st == nil {
			continue
		}
		items, scores = st.Apply(m, items, scores)
	}
	if len(items) > m {
		items, scores = items[:m], scores[:m]
	}
	return items, scores
}

// fingerprintStaged is the cache-key contribution of a request's filters
// and stages (encodeKeys). With no stages the fingerprint is that of the
// filters alone — zero-stage requests share cache entries with unstaged
// ones, which is correct because they return identical lists. With stages,
// a "|s|" marker separates the two key sequences; both sides use the same
// length-prefixed token encoding, so a filter whose key happens to contain
// "|s|" still cannot alias a filters+stages combination (tokens are
// consumed by declared length, the marker is only ever read at a token
// boundary).
func fingerprintStaged(flat []Filter, stages []Stage) (fp string, cacheable bool) {
	var buf [8]string
	keys, ok := appendKeys(buf[:0], flat, stages)
	if !ok {
		return "", false
	}
	return encodeKeys(keys, len(flat))
}

// fingerprint is fingerprintStaged(s.flat, stages), built once per request
// rather than once per user: memoised by the component keys it was built
// of, compared as strings — never by slice identity, since callers pool and
// reuse the slices their filters live in.
func (s *scratch) fingerprint(stages []Stage) (string, bool) {
	keys, ok := appendKeys(s.keys[:0], s.flat, stages)
	s.keys = keys
	switch {
	case !ok:
		return "", false
	case len(keys) == 0:
		return "", true // the plain (user, m) request
	case len(s.flat) != s.fpFilters || !slices.Equal(keys, s.fpKeys):
		s.fp, s.fpOK = encodeKeys(keys, len(s.flat))
		s.fpKeys, s.fpFilters = append(s.fpKeys[:0], keys...), len(s.flat)
	}
	return s.fp, s.fpOK
}

// RequestKey canonicalizes a request's raw filter surface into exactly the
// fingerprint an engine derives from the filters and stages built of that
// surface — ExcludeItems(exclude), TagTable.Allow(allowTags...) and
// Deny(denyTags...), in that order — for a front end that keys a cache of
// its own without holding the tag table: the router, which puts its route
// epoch in front. An empty list contributes nothing. A tag holding a comma
// can be in no table (LoadTagTable splits its lines on them): the request
// is about to be refused, and is kept out of the cache instead of aliasing
// the two-tag list its key would spell.
func RequestKey(exclude []int, allowTags, denyTags []string, stages []Stage) (fp string, cacheable bool) {
	var flat []Filter
	if len(exclude) > 0 {
		flat = append(flat, ExcludeItems(exclude))
	}
	for _, l := range [...]struct {
		label string
		tags  []string
	}{{allowLabel, allowTags}, {denyLabel, denyTags}} {
		if len(l.tags) == 0 {
			continue
		}
		canon, key := canonTags(l.tags)
		if strings.Count(key, ",") >= len(canon) { // more commas than joints
			return "", false
		}
		flat = append(flat, tagFilter{key: l.label + key})
	}
	return fingerprintStaged(flat, compactStages(stages))
}

// ScoreFloor returns a stage that drops every item scoring below min,
// preserving the order of the survivors. It never over-fetches: the floor
// only shortens lists, so the top-m above the floor is a subset of the
// top-m overall.
//
// Its key encodes the exact float64 bits of the floor, so two floors that
// format identically but differ in the last ulp still key apart.
func ScoreFloor(min float64) Stage {
	return floorStage{min: min, key: "floor:" + strconv.FormatUint(math.Float64bits(min), 16)}
}

type floorStage struct {
	min float64
	key string
}

func (f floorStage) CacheKey() string { return f.key }

func (f floorStage) OverFetch(m int) int { return m }

func (f floorStage) Apply(m int, items []int, scores []float64) ([]int, []float64) {
	dst := 0
	for n, s := range scores {
		if s < f.min {
			continue
		}
		items[dst], scores[dst] = items[n], s
		dst++
	}
	return items[:dst], scores[:dst]
}

// Boost returns a stage that adds delta to the score of every item
// carrying any of the named tags, then re-sorts the head by the selection
// tie rule (descending score, ascending item) — per-tenant business rules
// ("promote in-season stock") expressed over the same bitsets the
// allow/deny filters use. Unknown tags are an error, like Allow/Deny.
//
// Boosting re-orders within the selected head only; items outside the
// head cannot be promoted into it unless another stage in the request
// over-fetches. overFetch widens the head the boost sees: ≥ 2 selects
// overFetch×m candidates so boosted items just below the cut can surface;
// ≤ 1 keeps the head at m (reorder-only).
func (t *TagTable) Boost(delta float64, overFetch int, tags ...string) (Stage, error) {
	set, key, err := t.union(tags)
	if err != nil {
		return nil, err
	}
	if overFetch < 1 {
		overFetch = 1
	}
	return boostStage{
		set:   set,
		delta: delta,
		fetch: overFetch,
		key: "boost:" + strconv.FormatUint(math.Float64bits(delta), 16) +
			":" + strconv.Itoa(overFetch) + ":" + key,
	}, nil
}

type boostStage struct {
	set   tagSet
	delta float64
	fetch int
	key   string
}

func (b boostStage) CacheKey() string { return b.key }

func (b boostStage) OverFetch(m int) int { return m * b.fetch }

func (b boostStage) Apply(m int, items []int, scores []float64) ([]int, []float64) {
	touched := false
	for n, it := range items {
		if b.set.has(it) {
			scores[n] += b.delta
			touched = true
		}
	}
	if touched {
		resortHead(items, scores)
	}
	return items, scores
}

// resortHead re-establishes the selection tie rule (descending score,
// ascending item) over a head whose scores a stage adjusted. Items are
// unique, so the order is total and the sort deterministic.
func resortHead(items []int, scores []float64) {
	sort.Sort(headOrder{items: items, scores: scores})
}

type headOrder struct {
	items  []int
	scores []float64
}

func (h headOrder) Len() int { return len(h.items) }

func (h headOrder) Less(a, b int) bool {
	if h.scores[a] != h.scores[b] {
		return h.scores[a] > h.scores[b]
	}
	return h.items[a] < h.items[b]
}

func (h headOrder) Swap(a, b int) {
	h.items[a], h.items[b] = h.items[b], h.items[a]
	h.scores[a], h.scores[b] = h.scores[b], h.scores[a]
}

// ItemVectors supplies the per-item affiliation vectors the Diversify
// stage measures similarity over. core.Model's item factors satisfy it
// through a one-line adapter: for OCuLaR the coordinates are the item's
// non-negative co-cluster affiliations (PAPER.md Section IV-C), so two
// items are similar exactly when they load on the same co-clusters —
// the overlap PairContributions itemizes per (user, item) pair.
type ItemVectors interface {
	// ItemVector returns item i's affiliation vector. The slice may
	// alias internal storage; callers must not modify it.
	ItemVector(i int) []float64
}

// Diversify returns an MMR-style greedy re-ranking stage: it picks the
// head's top-scored item first, then repeatedly the candidate maximizing
//
//	lambda·score − (1−lambda)·maxSim(candidate, picked)
//
// where maxSim is the largest cosine similarity between the candidate's
// and any picked item's affiliation vectors. lambda 1 is pure relevance
// (the identity re-order), lambda 0 pure diversity. factor is the
// over-fetch multiple: the stage sees factor×m candidates so the
// diversified top-m can draw from below the undiversified cut — without
// it, "diversified top-m" would be ill-defined. Ties prefer the earlier
// original rank, keeping the stage deterministic.
func Diversify(lambda float64, factor int, vecs ItemVectors) (Stage, error) {
	if math.IsNaN(lambda) || lambda < 0 || lambda > 1 {
		return nil, fmt.Errorf("rank: Diversify lambda must be in [0,1], got %v", lambda)
	}
	if factor < 1 {
		return nil, fmt.Errorf("rank: Diversify over-fetch factor must be >= 1, got %d", factor)
	}
	if vecs == nil {
		return nil, fmt.Errorf("rank: Diversify requires item vectors")
	}
	// The key covers lambda and the over-fetch factor. The similarity
	// kernel (the model's item factors) is fixed for the engine's lifetime
	// — the serving layer rebuilds engines, and the router bumps its route
	// epoch, on every model swap — so it needs no key component.
	key := "mmr:" + strconv.FormatUint(math.Float64bits(lambda), 16) + ":" + strconv.Itoa(factor)
	return mmrStage{lambda: lambda, factor: factor, vecs: vecs, key: key}, nil
}

type mmrStage struct {
	lambda float64
	factor int
	vecs   ItemVectors
	key    string
}

func (d mmrStage) CacheKey() string { return d.key }

func (d mmrStage) OverFetch(m int) int { return m * d.factor }

func (d mmrStage) Apply(m int, items []int, scores []float64) ([]int, []float64) {
	n := len(items)
	k := m
	if n < k {
		k = n
	}
	if k <= 1 {
		if len(items) > k {
			items, scores = items[:k], scores[:k]
		}
		return items, scores
	}
	// Normalize each candidate's affiliation vector once: cosine then
	// reduces to a dot product per (candidate, picked) pair.
	unit := make([][]float64, n)
	for i, it := range items {
		unit[i] = unitVector(d.vecs.ItemVector(it))
	}
	picked := make([]bool, n)
	maxSim := make([]float64, n)
	order := make([]int, 0, k)
	cur := 0 // greedy start: the top-relevance candidate
	for {
		order = append(order, cur)
		picked[cur] = true
		if len(order) == k {
			break
		}
		best, bestMMR := -1, 0.0
		for i := 0; i < n; i++ {
			if picked[i] {
				continue
			}
			if s := dot(unit[i], unit[cur]); s > maxSim[i] {
				maxSim[i] = s
			}
			mmr := d.lambda*scores[i] - (1-d.lambda)*maxSim[i]
			if best == -1 || mmr > bestMMR {
				best, bestMMR = i, mmr
			}
		}
		cur = best
	}
	outItems := make([]int, k)
	outScores := make([]float64, k)
	for j, pos := range order {
		outItems[j] = items[pos]
		outScores[j] = scores[pos]
	}
	return outItems, outScores
}

// unitVector returns v scaled to unit length (a copy; v may alias model
// storage). The zero vector stays zero — an item with no co-cluster
// affiliation is similar to nothing.
func unitVector(v []float64) []float64 {
	norm := 0.0
	for _, x := range v {
		norm += x * x
	}
	u := make([]float64, len(v))
	if norm > 0 {
		inv := 1 / math.Sqrt(norm)
		for j, x := range v {
			u[j] = x * inv
		}
	}
	return u
}

func dot(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	s := 0.0
	for i := 0; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}
