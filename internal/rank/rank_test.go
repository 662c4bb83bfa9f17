package rank

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sparse"
)

type fixedScorer struct {
	scores [][]float64
	calls  atomic.Int64
}

func (f *fixedScorer) ScoreUser(u int, dst []float64) {
	f.calls.Add(1)
	copy(dst, f.scores[u])
}
func (f *fixedScorer) NumItems() int { return len(f.scores[0]) }

// refSelect is the independent full-sort reference: rank the non-excluded
// items by (score desc, index asc), truncate to m, nil when empty. It
// shares no code with the engine's selection or exclusion scan.
func refSelect(scores []float64, excluded func(int) bool, m int) []int {
	var cand []int
	for i := range scores {
		if !excluded(i) {
			cand = append(cand, i)
		}
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

// testTagTable builds a deterministic 3-tag table over ni items: "even"
// (every even item), "third" (every third), "rare" (items 1 and ni-1).
func testTagTable(t testing.TB, ni int) *TagTable {
	t.Helper()
	var b strings.Builder
	b.WriteString("# item,name,tags\n")
	for i := 0; i < ni; i++ {
		fmt.Fprintf(&b, "%d,item-%d", i, i)
		if i%2 == 0 {
			b.WriteString(",even")
		}
		if i%3 == 0 {
			b.WriteString(",third")
		}
		if i == 1 || i == ni-1 {
			b.WriteString(",rare")
		}
		b.WriteByte('\n')
	}
	tab, err := LoadTagTable(strings.NewReader(b.String()), ni)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestSelectMatchesReference is the engine's core property test: across
// random (m, training-row, exclusion-list, tag-filter) combinations —
// heavy score ties included — Select must return bit-identically the
// full-sort reference ranking, for m from 1 up to the whole catalogue (the
// heap then holds every candidate).
func TestSelectMatchesReference(t *testing.T) {
	f := func(seed uint16, mRaw uint8, combo uint8) bool {
		r := rng.New(uint64(seed)*7 + 13)
		ni := 5 + r.Intn(200)
		scores := make([]float64, ni)
		for i := range scores {
			// Coarse quantization forces many exact ties.
			scores[i] = float64(r.Intn(8))
		}
		m := 1 + int(mRaw)%ni

		var filters []Filter
		var preds []func(int) bool

		if combo&1 != 0 { // training row
			b := sparse.NewBuilder(1, ni)
			for i := 0; i < ni; i++ {
				if r.Bernoulli(0.2) {
					b.Add(0, i)
				}
			}
			train := b.Build()
			filters = append(filters, TrainRow(train, 0))
			owned := train.Row(0)
			set := make(map[int]bool, len(owned))
			for _, i := range owned {
				set[int(i)] = true
			}
			preds = append(preds, func(i int) bool { return set[i] })
		}
		if combo&2 != 0 { // per-request exclusion list, unsorted with dups
			var list []int
			for n := 0; n < r.Intn(30); n++ {
				list = append(list, r.Intn(ni))
			}
			filters = append(filters, ExcludeItems(list))
			set := make(map[int]bool, len(list))
			for _, i := range list {
				set[i] = true
			}
			preds = append(preds, func(i int) bool { return set[i] })
		}
		switch combo & 12 >> 2 { // tag filter
		case 1:
			tab := testTagTable(t, ni)
			f, err := tab.Allow("even", "rare")
			if err != nil {
				t.Fatal(err)
			}
			filters = append(filters, f)
			preds = append(preds, func(i int) bool {
				hasTag := i%2 == 0 || i == 1 || i == ni-1
				return !hasTag
			})
		case 2:
			tab := testTagTable(t, ni)
			f, err := tab.Deny("third")
			if err != nil {
				t.Fatal(err)
			}
			filters = append(filters, f)
			preds = append(preds, func(i int) bool { return i%3 == 0 })
		}

		want := refSelect(scores, func(i int) bool {
			for _, p := range preds {
				if p(i) {
					return true
				}
			}
			return false
		}, m)
		got := Select(scores, m, filters...)
		if len(want) != len(got) {
			return false
		}
		for i := range want {
			if want[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectEdgeCases(t *testing.T) {
	scores := []float64{3, 1, 2}
	if got := Select(scores, 0); got != nil {
		t.Errorf("m=0: got %v, want nil", got)
	}
	if got := Select(scores, -1); got != nil {
		t.Errorf("m<0: got %v, want nil", got)
	}
	if got := Select(scores, 2, ExcludeItems([]int{0, 1, 2})); got != nil {
		t.Errorf("all excluded: got %v, want nil", got)
	}
	if got := Select(scores, 10); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 1 {
		t.Errorf("m beyond candidates: got %v, want [0 2 1]", got)
	}
	// Nil filters drop out.
	got := Select(scores, 3, nil, ExcludeItems([]int{0}), nil)
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Errorf("nil filters: got %v, want [2 1]", got)
	}
	// An m no catalogue reaches is the whole list: the heap is sized by the
	// candidates, not by m. MaxInt/4 + 1 is the least m whose 4m overflows.
	sweep := NewEngine(&fixedScorer{scores: [][]float64{scores}}, Config{})
	for _, m := range []int{math.MaxInt, math.MaxInt/4 + 1} {
		t.Run(fmt.Sprintf("Select/m=%d", m), func(t *testing.T) {
			if got := Select(scores, m); !slices.Equal(got, []int{0, 2, 1}) {
				t.Errorf("got %v, want [0 2 1]", got)
			}
		})
		t.Run(fmt.Sprintf("TopMTimed/m=%d", m), func(t *testing.T) {
			items, itemScores, _ := sweep.TopMTimed(0, m, nil)
			if !slices.Equal(items, []int{0, 2, 1}) || !slices.Equal(itemScores, []float64{3, 2, 1}) {
				t.Errorf("got %v %v, want [0 2 1] [3 2 1]", items, itemScores)
			}
		})
	}
	// Exclusion ids outside the items, and an id listed twice, exclude the
	// ids inside and nothing else — whichever path ranks: Select, an engine
	// sweeping, and the walk given the filter unwindowed over a full range.
	const n = 40
	at := map[int]float64{}
	for i := 0; i < n; i++ {
		if i%3 != 1 { // the rest score +0: the walk's zero tail
			at[i] = float64(1+i%5) / 8
		}
	}
	outside := []int{-1, 3, 3, n, n + 64}
	for _, f32 := range []bool{false, true} {
		t.Run(fmt.Sprintf("exclusions outside the items/f32=%v", f32), func(t *testing.T) {
			scorer := factorRange(t, [][]float64{{1}}, column(n, at), f32, 0, n)
			dense := make([]float64, n)
			scorer.ScoreItems(0, dense)
			var want []int
			for _, i := range Select(dense, n) {
				if i != 3 {
					want = append(want, i)
				}
			}
			if got := Select(dense, n, ExcludeItems(outside)); !slices.Equal(got, want) {
				t.Errorf("Select: got %v, want %v", got, want)
			}
			e := NewEngine(SweepOnly{scorer}, Config{})
			if got, _, _ := e.TopMTimed(0, n, nil, ExcludeItems(outside)); !slices.Equal(got, want) {
				t.Errorf("sweeping engine: got %v, want %v", got, want)
			}
			for _, m := range []int{1, 5, n} {
				if !walkMatchesSelect(t, fmt.Sprintf("walk m=%d", m), scorer, 0, m, []Filter{ExcludeItems(outside)}) {
					t.Fatalf("the range did not walk the user")
				}
			}
		})
	}
}

// TestExclusionScanReuse resets one exclusionScan over stack after random
// stack — training rows above a base, exclusion lists in and out of range,
// windows of a partition, predicates, nil filters — at sizes around a word
// boundary: after each reset, every item's answer, asked in a random
// order, is the OR of the stack's own Excluded answers, so a smaller stack
// after a larger one leaves no bit behind.
func TestExclusionScanReuse(t *testing.T) {
	tags := testTagTable(t, 400)
	deny, err := tags.Deny("third")
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(40)
	var scan exclusionScan
	for round := 0; round < 400; round++ {
		n := []int{1, 63, 64, 65, 200}[r.Intn(5)]
		ids := func(lo, hi int) []int {
			var out []int
			for k := r.Intn(2 * n); k > 0; k-- {
				out = append(out, lo+r.Intn(hi-lo))
			}
			return out
		}
		// The row, global ids above base, as the engine's CSR row is:
		// ascending and duplicate-free; a few fall outside the items.
		base := r.Intn(100)
		var row []int32
		if r.Bernoulli(0.7) {
			row = ExcludeItems(ids(base-3, base+n+3)).(Sorted).ExcludedList()
		}
		var stack []Filter
		for k := r.Intn(6); k > 0; k-- {
			switch r.Intn(6) {
			case 0:
				stack = append(stack, ExcludeItems(ids(-3, n+70)))
			case 1:
				lo := 1 + r.Intn(100)
				stack = append(stack, OffsetRange(ExcludeItems(ids(0, lo+n+20)), lo, lo+n))
			case 2:
				stack = append(stack, oddOnly{})
			case 3:
				stack = append(stack, deny)
			case 4:
				lo := 1 + r.Intn(100)
				stack = append(stack, OffsetRange(deny, lo, lo+n))
			case 5:
				stack = append(stack, nil)
			}
		}
		scan.reset(n, flatten(nil, stack), row, base)
		for _, i := range r.Perm(n) {
			_, want := slices.BinarySearch(row, int32(i+base))
			for _, f := range stack {
				want = want || f != nil && f.Excluded(i)
			}
			if got := scan.excluded(i); got != want {
				t.Fatalf("round %d (n=%d, base %d, %d filters): item %d excluded=%v, want %v", round, n, base, len(stack), i, got, want)
			}
		}
	}
}

func TestFingerprint(t *testing.T) {
	tab := testTagTable(t, 12)
	allowAB, _ := tab.Allow("even", "third")
	allowBA, _ := tab.Allow("third", "even", "third")
	if k1, k2 := allowAB.(Keyed).CacheKey(), allowBA.(Keyed).CacheKey(); k1 != k2 {
		t.Errorf("tag order changed the cache key: %q vs %q", k1, k2)
	}
	deny, _ := tab.Deny("even")
	if k1, k2 := allowAB.(Keyed).CacheKey(), deny.(Keyed).CacheKey(); k1 == k2 {
		t.Error("allow and deny share a cache key")
	}

	train := sparse.NewBuilder(2, 4)
	train.Add(0, 1)
	tm := train.Build()
	fp1, ok1 := fingerprintStaged(flatten(nil, []Filter{TrainRow(tm, 0), ExcludeItems([]int{2})}), nil)
	fp2, ok2 := fingerprintStaged(flatten(nil, []Filter{TrainRow(tm, 0), ExcludeItems([]int{3})}), nil)
	if !ok1 || !ok2 {
		t.Fatal("keyed filters reported uncacheable")
	}
	if fp1 == fp2 {
		t.Error("different exclusion lists share a fingerprint")
	}
	if fp, ok := fingerprintStaged(nil, nil); !ok || fp != "" {
		t.Errorf("empty filter set: fingerprint %q cacheable=%v, want \"\" true", fp, ok)
	}
	// An anonymous filter has no key: the request must be uncacheable.
	if _, ok := fingerprintStaged([]Filter{anonFilter{}}, nil); ok {
		t.Error("unkeyed filter reported cacheable")
	}
	// Length-prefixing keeps the fingerprint injective even when a tag
	// name contains the separator of another encoding: one filter keyed
	// allow:a|deny:b must not collide with the allow:a + deny:b pair.
	weird, err := LoadTagTable(strings.NewReader("0,x,a|deny:b\n1,y,a\n2,z,b\n"), 4)
	if err != nil {
		t.Fatal(err)
	}
	fA, _ := weird.Allow("a|deny:b")
	fB, _ := weird.Allow("a")
	fC, _ := weird.Deny("b")
	fpOne, ok1 := fingerprintStaged([]Filter{fA}, nil)
	fpPair, ok2 := fingerprintStaged([]Filter{fB, fC}, nil)
	if !ok1 || !ok2 {
		t.Fatal("tag filters reported uncacheable")
	}
	if fpOne == fpPair {
		t.Errorf("fingerprint collision: %q encodes both one weird tag and an allow+deny pair", fpOne)
	}
	// Oversized keys fall back to uncacheable: the LRU caps entries, not
	// bytes, so a huge exclusion list must not pin its key in the cache.
	big := make([]int, maxFingerprintLen)
	for i := range big {
		big[i] = i
	}
	if _, ok := fingerprintStaged(flatten(nil, []Filter{ExcludeItems(big)}), nil); ok {
		t.Error("oversized exclusion-list fingerprint reported cacheable")
	}
}

type anonFilter struct{}

func (anonFilter) Excluded(int) bool { return false }

func TestTagTableParsing(t *testing.T) {
	// The name column is ignored; the last line is an item id alone, which
	// carries no tags and must not panic the loader.
	in := `
# comment
3, Widget ,kids, sale
3,,clearance
0,Gadget
4
`
	tab, err := LoadTagTable(strings.NewReader(in), 5)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumTags() != 3 {
		t.Errorf("NumTags = %d, want 3 (kids, sale, clearance)", tab.NumTags())
	}
	deny, err := tab.Deny("kids")
	if err != nil {
		t.Fatal(err)
	}
	if !deny.Excluded(3) || deny.Excluded(0) || deny.Excluded(4) {
		t.Error("deny kids: wrong exclusion set")
	}
	allow, err := tab.Allow("kids", "clearance")
	if err != nil {
		t.Fatal(err)
	}
	if allow.Excluded(3) || !allow.Excluded(0) || !allow.Excluded(4) {
		t.Error("allow kids+clearance: wrong exclusion set")
	}
	if _, err := tab.Allow("typo"); err == nil {
		t.Error("unknown tag accepted")
	}
	if _, err := tab.Deny(); err == nil {
		t.Error("empty tag list accepted")
	}
	for _, bad := range []string{"x,name", "9,name", "-1,name"} {
		if _, err := LoadTagTable(strings.NewReader(bad), 5); err == nil {
			t.Errorf("malformed line %q accepted", bad)
		}
	}
}

func TestEngineCachesByFilterFingerprint(t *testing.T) {
	sc := &fixedScorer{scores: [][]float64{{5, 4, 3, 2, 1}}}
	e := NewEngine(sc, Config{CacheSize: 64})

	plain, _, cached := e.TopMTimed(0, 3, nil)
	if cached {
		t.Error("first plain request reported cached")
	}
	filtered, _, cached := e.TopMTimed(0, 3, nil, ExcludeItems([]int{0}))
	if cached {
		t.Error("first filtered request reported cached (would have returned the plain list)")
	}
	if fmt.Sprint(plain) == fmt.Sprint(filtered) {
		t.Fatalf("filtered request returned the unfiltered list %v", plain)
	}
	if filtered[0] != 1 {
		t.Errorf("filtered top = %v, want item 1 first", filtered)
	}
	// Both variants must now be cache hits, each with its own entry.
	if _, _, cached := e.TopMTimed(0, 3, nil); !cached {
		t.Error("repeat plain request missed the cache")
	}
	got, _, cached := e.TopMTimed(0, 3, nil, ExcludeItems([]int{0}))
	if !cached {
		t.Error("repeat filtered request missed the cache")
	}
	if fmt.Sprint(got) != fmt.Sprint(filtered) {
		t.Errorf("cached filtered list %v != original %v", got, filtered)
	}
	if e.CacheLen() != 2 {
		t.Errorf("cache holds %d entries, want 2", e.CacheLen())
	}
	// Unkeyed filters make the request uncacheable: scored every time.
	before := sc.calls.Load()
	e.TopMTimed(0, 3, nil, anonFilter{})
	e.TopMTimed(0, 3, nil, anonFilter{})
	if calls := sc.calls.Load() - before; calls != 2 {
		t.Errorf("uncacheable requests scored %d times, want 2", calls)
	}
}

func TestEngineScoresMatchItems(t *testing.T) {
	sc := &fixedScorer{scores: [][]float64{{0.1, 0.9, 0.5, 0.7}}}
	e := NewEngine(sc, Config{})
	items, scores, _ := e.TopMTimed(0, 2, nil)
	if len(items) != 2 || len(scores) != 2 {
		t.Fatalf("items %v scores %v", items, scores)
	}
	if items[0] != 1 || scores[0] != 0.9 || items[1] != 3 || scores[1] != 0.7 {
		t.Errorf("got items %v scores %v, want [1 3] [0.9 0.7]", items, scores)
	}
	// Rank with a caller-supplied scorer (the fold-in path).
	items, scores = e.Rank(func(dst []float64) {
		for i := range dst {
			dst[i] = float64(i)
		}
	}, 2, ExcludeItems([]int{3}))
	if items[0] != 2 || scores[0] != 2 || items[1] != 1 || scores[1] != 1 {
		t.Errorf("Rank got items %v scores %v, want [2 1] [2 1]", items, scores)
	}
}

// gateScorer blocks every ScoreUser call until release closes, letting the
// coalescing test pile duplicate misses onto one in-flight computation.
type gateScorer struct {
	ni      int
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gateScorer) ScoreUser(u int, dst []float64) {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	for i := range dst {
		dst[i] = float64((i*7 + u) % 11)
	}
}
func (g *gateScorer) NumItems() int { return g.ni }

// TestEngineCoalescesDuplicateMisses: concurrent requests for one
// fingerprint must compute the list exactly once — the waiters share the
// leader's result (or hit the cache it fills).
func TestEngineCoalescesDuplicateMisses(t *testing.T) {
	g := &gateScorer{ni: 50, entered: make(chan struct{}), release: make(chan struct{})}
	stats := &Stats{}
	e := NewEngine(g, Config{CacheSize: 16, Stats: stats})

	type result struct {
		items  []int
		cached bool
	}
	results := make(chan result, 9)
	run := func() {
		items, _, cached := e.TopMTimed(3, 5, nil, ExcludeItems([]int{2}))
		results <- result{items, cached}
	}
	go run()    // leader
	<-g.entered // leader is inside ScoreUser, flight entry registered
	var wg sync.WaitGroup
	for n := 0; n < 8; n++ {
		wg.Add(1)
		go func() { defer wg.Done(); run() }()
	}
	// The waiters either join the in-flight computation or (if scheduled
	// after it finishes) hit the cache it filled; either way the ranking
	// runs once. Release the leader and collect.
	close(g.release)
	wg.Wait()
	first := <-results
	for n := 0; n < 8; n++ {
		r := <-results
		if fmt.Sprint(r.items) != fmt.Sprint(first.items) {
			t.Errorf("divergent coalesced results: %v vs %v", r.items, first.items)
		}
	}
	if ranked := stats.Ranked(); ranked != 1 {
		t.Errorf("ranked %d times for 9 duplicate requests, want exactly 1", ranked)
	}
	if total := stats.Hits() + stats.Coalesced(); total != 8 {
		t.Errorf("hits(%d) + coalesced(%d) = %d, want 8 non-computing requests",
			stats.Hits(), stats.Coalesced(), total)
	}
	if stats.Misses() != 1 {
		t.Errorf("misses = %d, want 1 (the leader)", stats.Misses())
	}
}

func TestEngineCacheDisabled(t *testing.T) {
	sc := &fixedScorer{scores: [][]float64{{1, 2, 3}}}
	e := NewEngine(sc, Config{CacheSize: -1})
	e.TopMTimed(0, 2, nil)
	if _, _, cached := e.TopMTimed(0, 2, nil); cached {
		t.Error("cache disabled but repeat request reported cached")
	}
	if sc.calls.Load() != 2 {
		t.Errorf("scored %d times, want 2", sc.calls.Load())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// One shard of capacity 2: the oldest of three distinct keys must go.
	c := NewListCache(2, 1, nil)
	get := func(u int, fp string) bool {
		_, _, cached, _ := getOrCompute1(c, u, 5, fp, func() ([]int, []float64, bool, error) {
			return []int{u}, []float64{1}, true, nil
		})
		return cached
	}
	get(1, "")
	get(2, "")
	if !get(1, "") { // touch 1 so 2 becomes LRU
		t.Fatal("entry 1 missing")
	}
	get(3, "")
	if !get(1, "") || !get(3, "") {
		t.Error("recently used entries evicted")
	}
	if get(2, "") {
		t.Error("LRU entry 2 survived eviction")
	}
	if c.Len() != 2 {
		t.Errorf("cache len %d, want 2", c.Len())
	}
	// Same (user, m), different filter fingerprints: distinct entries.
	c = NewListCache(8, 1, nil)
	get(1, "ex:1|")
	if get(1, "") {
		t.Error("unfiltered key hit a filtered entry")
	}
	if !get(1, "ex:1|") {
		t.Error("filtered key missed its own entry")
	}
	// nil cache is a valid always-miss cache.
	var nilCache *topCache
	if nilCache.len() != 0 {
		t.Error("nil cache non-empty")
	}
}

// Stats returns the engine's counters.
func (e *Engine) Stats() *Stats { return e.lists.stats }
