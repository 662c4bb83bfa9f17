package rank

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// keyStage is a test stage with a configurable cache key and an identity
// Apply — for fingerprint tests that need exact control over key bytes.
type keyStage struct{ key string }

func (s keyStage) CacheKey() string    { return s.key }
func (s keyStage) OverFetch(m int) int { return m }
func (s keyStage) Apply(m int, items []int, scores []float64) ([]int, []float64) {
	return items, scores
}

// keyedFilter is an excludes-nothing filter with a configurable cache
// key, for aliasing tests across the filter/stage fingerprint boundary.
type keyedFilter struct{ key string }

func (f keyedFilter) Excluded(int) bool { return false }
func (f keyedFilter) CacheKey() string  { return f.key }

// TestTopMStagedZeroStageEquivalence is the zero-stage property test:
// across random catalogues, m values and filter combinations, TopMStaged
// with an empty (or all-nil) stage list must return bit-identical items
// AND scores to TopM — and share its cache entries, because the
// fingerprints are identical too.
func TestTopMStagedZeroStageEquivalence(t *testing.T) {
	f := func(seed uint16, mRaw uint8, combo uint8) bool {
		r := rng.New(uint64(seed)*11 + 3)
		ni := 5 + r.Intn(150)
		scores := make([]float64, ni)
		for i := range scores {
			scores[i] = float64(r.Intn(6)) // coarse: force ties
		}
		m := 1 + int(mRaw)%ni

		var filters []Filter
		if combo&1 != 0 {
			var list []int
			for n := 0; n < r.Intn(20); n++ {
				list = append(list, r.Intn(ni))
			}
			filters = append(filters, ExcludeItems(list))
		}
		if combo&2 != 0 {
			tab := testTagTable(t, ni)
			df, err := tab.Deny("third")
			if err != nil {
				t.Fatal(err)
			}
			filters = append(filters, df)
		}

		var stages []Stage
		if combo&4 != 0 {
			stages = []Stage{nil, nil} // compacts to the zero-stage path
		}

		e := NewEngine(&fixedScorer{scores: [][]float64{scores}}, Config{CacheSize: 16})
		wantItems, wantScores, cached := e.TopM(0, m, filters...)
		if cached {
			return false
		}
		gotItems, gotScores, cached := e.TopMStaged(0, m, stages, filters...)
		// Identical fingerprint ⇒ the staged call must hit the entry the
		// unstaged one just filled (the engine cache is enabled and the
		// filter set is keyed).
		if !cached {
			return false
		}
		if len(gotItems) != len(wantItems) || len(gotScores) != len(wantScores) {
			return false
		}
		for i := range wantItems {
			if gotItems[i] != wantItems[i] || gotScores[i] != wantScores[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestScoreFloorStage(t *testing.T) {
	st := ScoreFloor(2.5)
	items, scores := st.Apply(3, []int{7, 3, 9, 1}, []float64{5, 2.5, 2, 1})
	if fmt.Sprint(items) != "[7 3]" || fmt.Sprint(scores) != "[5 2.5]" {
		t.Errorf("floor kept %v %v, want [7 3] [5 2.5] (>= is inclusive)", items, scores)
	}
	if st.OverFetch(10) != 10 {
		t.Errorf("floor over-fetches: %d", st.OverFetch(10))
	}
	if ScoreFloor(2.5).CacheKey() != st.CacheKey() {
		t.Error("equal floors key apart")
	}
	if ScoreFloor(2.5000001).CacheKey() == st.CacheKey() {
		t.Error("different floors share a key")
	}
}

func TestBoostStage(t *testing.T) {
	tab := testTagTable(t, 10) // "rare" = items 1 and 9
	st, err := tab.Boost(10, 2, "rare")
	if err != nil {
		t.Fatal(err)
	}
	if st.OverFetch(3) != 6 {
		t.Errorf("boost OverFetch(3) = %d, want 6", st.OverFetch(3))
	}
	// Item 9 sits below the would-be cut; the boost lifts it to the top.
	items, scores := st.Apply(2, []int{4, 2, 6, 9}, []float64{8, 7, 6, 5})
	if items[0] != 9 || scores[0] != 15 {
		t.Errorf("boosted head %v %v, want item 9 at 15 first", items, scores)
	}
	// Untagged heads pass through untouched (no re-sort).
	items, _ = st.Apply(2, []int{4, 2}, []float64{8, 7})
	if items[0] != 4 || items[1] != 2 {
		t.Errorf("untouched head reordered: %v", items)
	}
	if _, err := tab.Boost(1, 2, "no-such-tag"); err == nil {
		t.Error("unknown tag accepted")
	}
	// overFetch <= 1 clamps to reorder-only.
	st1, err := tab.Boost(1, 0, "rare")
	if err != nil {
		t.Fatal(err)
	}
	if st1.OverFetch(5) != 5 {
		t.Errorf("clamped boost OverFetch(5) = %d, want 5", st1.OverFetch(5))
	}
	if st1.CacheKey() == st.CacheKey() {
		t.Error("different boost configs share a key")
	}
}

// gridVectors gives each item a one-hot vector by item%dims — items
// congruent mod dims are maximally similar, others orthogonal.
type gridVectors struct{ dims int }

func (g gridVectors) ItemVector(i int) []float64 {
	v := make([]float64, g.dims)
	v[i%g.dims] = 1
	return v
}

func TestDiversifyStage(t *testing.T) {
	if _, err := Diversify(-0.1, 2, gridVectors{2}); err == nil {
		t.Error("lambda < 0 accepted")
	}
	if _, err := Diversify(0.5, 0, gridVectors{2}); err == nil {
		t.Error("factor < 1 accepted")
	}
	if _, err := Diversify(0.5, 2, nil); err == nil {
		t.Error("nil vectors accepted")
	}

	// lambda=1 is pure relevance: identity on a strictly ordered head.
	ident, err := Diversify(1, 2, gridVectors{2})
	if err != nil {
		t.Fatal(err)
	}
	items, scores := ident.Apply(3, []int{0, 2, 4, 1}, []float64{9, 8, 7, 6})
	if fmt.Sprint(items) != "[0 2 4]" || fmt.Sprint(scores) != "[9 8 7]" {
		t.Errorf("lambda=1 not the identity: %v %v", items, scores)
	}

	// Strong diversity: items 0,2,4 share a co-cluster, item 1 is the
	// orthogonal one. With lambda=0.3 the second pick must be item 1
	// despite its lower relevance.
	div, err := Diversify(0.3, 2, gridVectors{2})
	if err != nil {
		t.Fatal(err)
	}
	items, scores = div.Apply(2, []int{0, 2, 4, 1}, []float64{1, 0.9, 0.8, 0.5})
	if len(items) != 2 || items[0] != 0 || items[1] != 1 {
		t.Errorf("diversified head %v, want [0 1]", items)
	}
	// Output keeps the original relevance scores, not the MMR objective.
	if scores[1] != 0.5 {
		t.Errorf("diversified score %v, want the original 0.5", scores[1])
	}
	if div.OverFetch(5) != 10 {
		t.Errorf("OverFetch(5) = %d, want 10", div.OverFetch(5))
	}
	if div.CacheKey() == ident.CacheKey() {
		t.Error("different lambdas share a key")
	}
}

// TestFingerprintStagedAliasing pins the injectivity of the staged
// fingerprint: length-prefixed stage keys cannot alias across stage
// boundaries, and a filter key containing the "|s|" marker cannot alias
// a filters+stages combination.
func TestFingerprintStagedAliasing(t *testing.T) {
	fp := func(filters []Filter, stages []Stage) string {
		s, ok := fingerprintStaged(flatten(nil, filters), stages)
		if !ok {
			t.Fatalf("fingerprintStaged(%v, %v) uncacheable", filters, stages)
		}
		return s
	}
	if fp(nil, []Stage{keyStage{"a"}, keyStage{"bc"}}) == fp(nil, []Stage{keyStage{"ab"}, keyStage{"c"}}) {
		t.Error(`stage keys ["a","bc"] and ["ab","c"] alias`)
	}
	if fp(nil, []Stage{keyStage{"a"}}) == fp(nil, []Stage{keyStage{"a"}, keyStage{"a"}}) {
		t.Error("stage list length not captured")
	}
	// A filter whose key embeds the stage marker and a valid-looking
	// length-prefixed token must not collide with the real thing.
	withMarker := []Filter{keyedFilter{"x|s|1:a"}}
	split := []Filter{keyedFilter{"x"}}
	if fp(withMarker, nil) == fp(split, []Stage{keyStage{"a"}}) {
		t.Error("filter key containing \"|s|\" aliases a filters+stages fingerprint")
	}
	// Same filters, staged vs unstaged, must differ; zero stages must not.
	if fp(split, []Stage{keyStage{"a"}}) == fp(split, nil) {
		t.Error("staged and unstaged requests share a fingerprint")
	}
	if fp(split, nil) != fp(split, []Stage{}) {
		t.Error("empty stage list changed the fingerprint")
	}
	// Uncacheable cases: empty stage key, oversized total.
	if _, ok := fingerprintStaged(nil, []Stage{keyStage{""}}); ok {
		t.Error("empty stage key reported cacheable")
	}
	huge := keyStage{key: string(make([]byte, maxFingerprintLen))}
	if _, ok := fingerprintStaged(nil, []Stage{huge}); ok {
		t.Error("oversized stage key reported cacheable")
	}
}

// TestRequestKey: the exported key builder spells a raw filter surface
// exactly as the engine fingerprints the filters and stages built of it —
// one canonical form, whoever keys the cache — and refuses to key a tag no
// table can hold.
func TestRequestKey(t *testing.T) {
	tab := testTagTable(t, 12)
	allow, _ := tab.Allow("even", "third")
	deny, _ := tab.Deny("rare")
	stages := []Stage{ScoreFloor(0.25), nil, keyStage{"a"}}
	for name, c := range map[string]struct {
		exclude     []int
		allow, deny []string
		stages      []Stage
		filters     []Filter
	}{
		"nothing":    {},
		"exclude":    {exclude: []int{7, 2, 7}, filters: []Filter{ExcludeItems([]int{2, 7})}},
		"tags":       {allow: []string{"third", "even", "third"}, deny: []string{"rare"}, filters: []Filter{allow, deny}},
		"stages":     {stages: stages},
		"everything": {exclude: []int{3}, allow: []string{"even", "third"}, deny: []string{"rare"}, stages: stages, filters: []Filter{ExcludeItems([]int{3}), allow, deny}},
	} {
		got, ok := RequestKey(c.exclude, c.allow, c.deny, c.stages)
		want, wantOK := fingerprintStaged(flatten(nil, c.filters), compactStages(c.stages))
		if !ok || !wantOK || got != want {
			t.Errorf("%s: RequestKey = %q (%v), the engine's fingerprint %q (%v)", name, got, ok, want, wantOK)
		}
	}
	// ["a,b"] would spell the key of ["a","b"]: a front end that cannot
	// validate tags must not answer the one from the other's cache entry.
	if fp, ok := RequestKey(nil, []string{"a,b"}, nil, nil); ok {
		t.Errorf("a tag holding a comma was keyed %q", fp)
	}
	if _, ok := RequestKey(nil, nil, []string{"b", ",", "a"}, nil); ok {
		t.Error("a comma tag among others was keyed")
	}
	if allocs := testing.AllocsPerRun(100, func() { RequestKey(nil, nil, nil, nil) }); allocs != 0 {
		t.Errorf("the plain request's key costs %v allocations, want 0", allocs)
	}
}

// TestMergeTopMStagedMatchesSingleProcess proves the router-side stage
// hook bit-identical to single-process staged serving: partials built by
// Select over disjoint partitions of one score vector, merged and staged
// by MergeTopMStaged, must equal Engine.TopMStaged over the full vector
// — same items, same float64 bits — across random splits and stage
// combinations.
func TestMergeTopMStagedMatchesSingleProcess(t *testing.T) {
	tab := testTagTable(t, 120)
	f := func(seed uint16, mRaw uint8, combo uint8) bool {
		r := rng.New(uint64(seed)*17 + 5)
		ni := 30 + r.Intn(90)
		scores := make([]float64, ni)
		for i := range scores {
			scores[i] = float64(r.Intn(7)) // ties stress the merge rule
		}
		m := 1 + int(mRaw)%20

		var stages []Stage
		if combo&1 != 0 {
			stages = append(stages, ScoreFloor(2))
		}
		if combo&2 != 0 {
			boost, err := tab.Boost(3, 2, "rare")
			if err != nil {
				t.Fatal(err)
			}
			stages = append(stages, boost)
		}
		if combo&4 != 0 {
			div, err := Diversify(0.6, 3, gridVectors{4})
			if err != nil {
				t.Fatal(err)
			}
			stages = append(stages, div)
		}

		// Single-process reference: an engine over the full vector.
		e := NewEngine(&fixedScorer{scores: [][]float64{scores}}, Config{CacheSize: -1})
		wantItems, wantScores, _ := e.TopMStaged(0, m, stages)

		// Router side: split into 1–4 disjoint partitions, Select each to
		// the over-fetched length, merge + stage.
		fetch := StagesOverFetch(m, stages)
		nParts := 1 + r.Intn(4)
		var parts []Partial
		at := 0
		for p := 0; p < nParts; p++ {
			hi := ni
			if p < nParts-1 {
				hi = at + r.Intn(ni-at+1)
			}
			sl := scores[at:hi]
			local := Select(sl, fetch)
			part := Partial{}
			for _, li := range local {
				part.Items = append(part.Items, li+at)
				part.Scores = append(part.Scores, sl[li])
			}
			parts = append(parts, part)
			at = hi
		}
		gotItems, gotScores := MergeTopMStaged(m, stages, parts...)

		if len(gotItems) != len(wantItems) {
			return false
		}
		for i := range wantItems {
			if gotItems[i] != wantItems[i] || gotScores[i] != wantScores[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestStagedCacheSeparation: staged and unstaged requests over the same
// user/m/filters must occupy distinct cache entries, and repeat staged
// requests must hit theirs.
func TestStagedCacheSeparation(t *testing.T) {
	e := NewEngine(&fixedScorer{scores: [][]float64{{5, 4, 3, 2, 1}}}, Config{CacheSize: 16})
	floor := []Stage{ScoreFloor(3.5)}

	plain, _, _ := e.TopM(0, 3)
	staged, _, cached := e.TopMStaged(0, 3, floor)
	if cached {
		t.Error("first staged request reported cached (would have returned the unstaged list)")
	}
	if fmt.Sprint(staged) == fmt.Sprint(plain) {
		t.Fatalf("staged request returned the unstaged list %v", plain)
	}
	if fmt.Sprint(staged) != "[0 1]" {
		t.Errorf("floor=3.5 head %v, want [0 1]", staged)
	}
	if _, _, cached := e.TopMStaged(0, 3, floor); !cached {
		t.Error("repeat staged request missed the cache")
	}
	if _, _, cached := e.TopM(0, 3); !cached {
		t.Error("unstaged entry evicted by the staged one")
	}
	if e.CacheLen() != 2 {
		t.Errorf("cache holds %d entries, want 2", e.CacheLen())
	}
	// An empty stage key makes the request uncacheable, like an unkeyed
	// filter.
	if _, _, cached := e.TopMStaged(0, 3, []Stage{keyStage{""}}); cached {
		t.Error("uncacheable staged request reported cached")
	}
}
