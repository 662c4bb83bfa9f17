package rank

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// partitionSelect runs Select over one item partition [lo, hi) of scores
// the way a shard does: local score slice, local filters via OffsetRange,
// results translated back to global ids.
func partitionSelect(scores []float64, m, lo, hi int, filters []Filter) Partial {
	local := make([]Filter, len(filters))
	for n, f := range filters {
		local[n] = OffsetRange(f, lo, hi)
	}
	idx := Select(scores[lo:hi], m, local...)
	p := Partial{Items: make([]int, len(idx)), Scores: make([]float64, len(idx))}
	for n, i := range idx {
		p.Items[n] = i + lo
		p.Scores[n] = scores[lo+i]
	}
	return p
}

// TestMergeTopMBitIdenticalToSelect is the tie-rule merge property: for
// random score vectors (with deliberate duplicate scores), random
// partitions and random filters, merging per-partition Select outputs is
// bit-identical to Select over the whole vector.
func TestMergeTopMBitIdenticalToSelect(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 200; trial++ {
		nItems := 20 + rng.IntN(300)
		scores := make([]float64, nItems)
		for i := range scores {
			// Quantize so duplicate scores (ties) are common.
			scores[i] = float64(rng.IntN(12)) / 11
		}
		m := 1 + rng.IntN(nItems+10)

		var filters []Filter
		if rng.IntN(2) == 0 {
			var excl []int
			for i := 0; i < nItems; i++ {
				if rng.IntN(4) == 0 {
					excl = append(excl, i)
				}
			}
			if len(excl) > 0 {
				filters = append(filters, ExcludeItems(excl))
			}
		}

		// Random partition bounds.
		nParts := 1 + rng.IntN(5)
		bounds := map[int]bool{0: true, nItems: true}
		for len(bounds) < nParts+1 {
			bounds[1+rng.IntN(nItems-1)] = true
		}
		cuts := make([]int, 0, len(bounds))
		for b := range bounds {
			cuts = append(cuts, b)
		}
		for i := range cuts {
			for j := i + 1; j < len(cuts); j++ {
				if cuts[j] < cuts[i] {
					cuts[i], cuts[j] = cuts[j], cuts[i]
				}
			}
		}

		parts := make([]Partial, 0, len(cuts)-1)
		for p := 0; p+1 < len(cuts); p++ {
			parts = append(parts, partitionSelect(scores, m, cuts[p], cuts[p+1], filters))
		}

		wantItems := Select(scores, m, filters...)
		gotItems, gotScores := MergeTopM(m, parts...)
		if len(gotItems) != len(wantItems) {
			t.Fatalf("trial %d (parts %v m %d): merged %d items, Select returned %d",
				trial, cuts, m, len(gotItems), len(wantItems))
		}
		for n := range wantItems {
			if gotItems[n] != wantItems[n] {
				t.Fatalf("trial %d rank %d: merged item %d, Select item %d", trial, n, gotItems[n], wantItems[n])
			}
			if gotScores[n] != scores[wantItems[n]] {
				t.Fatalf("trial %d rank %d: merged score %v, want %v", trial, n, gotScores[n], scores[wantItems[n]])
			}
		}
	}
}

func TestMergeTopMEdges(t *testing.T) {
	a := Partial{Items: []int{0, 2}, Scores: []float64{0.9, 0.5}}
	b := Partial{Items: []int{5, 7}, Scores: []float64{0.9, 0.1}}

	if items, scores := MergeTopM(0, a, b); items != nil || scores != nil {
		t.Fatalf("m=0: got %v/%v, want nil", items, scores)
	}
	if items, _ := MergeTopM(3); items != nil {
		t.Fatalf("no partials: got %v, want nil", items)
	}
	if items, _ := MergeTopM(3, Partial{}, Partial{}); items != nil {
		t.Fatalf("empty partials: got %v, want nil", items)
	}
	// Tie at 0.9 between item 0 (partition a) and item 5 (partition b):
	// ascending index wins.
	items, scores := MergeTopM(10, a, b)
	want := []int{0, 5, 2, 7}
	if len(items) != len(want) {
		t.Fatalf("got %v, want %v", items, want)
	}
	for n := range want {
		if items[n] != want[n] {
			t.Fatalf("rank %d: got item %d, want %d (scores %v)", n, items[n], want[n], scores)
		}
	}
}

// TestMergerAllocsPerMerge: a Merger appending into buffers its caller keeps
// is MergeTopMStaged bit for bit, leaves what the buffers held before the
// list alone, and allocates nothing once the buffers and its head cursors
// have grown.
func TestMergerAllocsPerMerge(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	scores := make([]float64, 120)
	for i := range scores {
		scores[i] = float64(rng.IntN(9)) / 8
	}
	parts := []Partial{partitionSelect(scores, 30, 0, 50, nil), partitionSelect(scores, 30, 50, 90, nil),
		partitionSelect(scores, 30, 90, 120, nil)}
	var g Merger
	items, got := []int{-1}, []float64{-1}
	for _, stages := range [][]Stage{nil, {ScoreFloor(0.3)}} {
		for _, m := range []int{0, 1, 7, 30, 200} {
			wantItems, wantScores := MergeTopMStaged(m, stages, parts...)
			items, got = g.Merge(items[:1], got[:1], m, stages, parts...)
			if items[0] != -1 || got[0] != -1 || !slices.Equal(items[1:], wantItems) || !slices.Equal(got[1:], wantScores) {
				t.Fatalf("stages %d m %d: appended %v %v, want [-1]+%v [-1]+%v", len(stages), m, items, got, wantItems, wantScores)
			}
		}
	}
	if allocs := testing.AllocsPerRun(50, func() { items, got = g.Merge(items[:0], got[:0], 30, nil, parts...) }); allocs != 0 {
		t.Errorf("a merge into kept buffers allocates %v times, want 0", allocs)
	}
}

// TestOffsetRange checks the local-index adapter on both the Sorted fast
// path and the predicate fallback.
func TestOffsetRange(t *testing.T) {
	excl := ExcludeItems([]int{1, 4, 9, 10, 17})
	f := OffsetRange(excl, 4, 12)                           // local 0..7 ↔ global 4..11
	wantExcluded := map[int]bool{0: true, 5: true, 6: true} // globals 4, 9, 10
	for local := 0; local < 8; local++ {
		if got := f.Excluded(local); got != wantExcluded[local] {
			t.Errorf("local %d (global %d): Excluded=%v, want %v", local, local+4, got, wantExcluded[local])
		}
	}
	// The fast path survives as a window of the inner list — aliased, not
	// copied — which the scan marks above the base.
	inner := excl.(Sorted).ExcludedList()
	w, ok := f.(windowFilter)
	if !ok || w.lo != 4 || !slices.Equal(w.list, []int32{4, 9, 10}) || &w.list[0] != &inner[1] {
		t.Fatalf("OffsetRange over a Sorted filter = %#v, want the window [4 9 10] of the inner list above base 4", f)
	}
	var scan exclusionScan
	scan.reset(8, []Filter{f}, nil, 0)
	if len(scan.preds) != 0 {
		t.Fatalf("the scan took the window as %d predicates, want it marked", len(scan.preds))
	}
	for local := 0; local < 8; local++ {
		if got := scan.excluded(local); got != wantExcluded[local] {
			t.Errorf("scan at local %d (global %d): excluded=%v, want %v", local, local+4, got, wantExcluded[local])
		}
	}

	// Predicate-only inner filter keeps predicate semantics.
	pred := predicateFilter{7: true, 9: true}
	pf := OffsetRange(pred, 5, 15)
	if !pf.Excluded(2) || !pf.Excluded(4) || pf.Excluded(0) {
		t.Fatal("predicate offset filter shifted wrong")
	}
	if _, ok := pf.(Sorted); ok {
		t.Fatal("predicate filter must not pretend to be Sorted")
	}
}

// predicateFilter excludes the set keys — deliberately implements only
// the base Filter interface.
type predicateFilter map[int]bool

func (p predicateFilter) Excluded(item int) bool { return p[item] }

// getOrCompute1 drives ListCache's batch entry with a single user, in the
// one-key shape the tests below were written against.
func getOrCompute1(c *ListCache, user, m int, fp string, compute func() ([]int, []float64, bool, error)) ([]int, []float64, bool, error) {
	out := make([]ListEntry, 1)
	c.GetOrComputeBatch([]int{user}, m, fp, true, out, func([]int) {
		items, scores, cacheable, err := compute()
		out[0] = ListEntry{Items: items, Scores: scores, NoShare: !cacheable, Err: err}
	})
	return out[0].Items, out[0].Scores, out[0].Cached, out[0].Err
}

func TestListCacheHitMissCoalesce(t *testing.T) {
	stats := &Stats{}
	c := NewListCache(64, 4, stats)

	calls := 0
	compute := func() ([]int, []float64, bool, error) {
		calls++
		return []int{1, 2}, []float64{0.9, 0.8}, true, nil
	}
	items, _, cached, err := getOrCompute1(c, 3, 10, "fp", compute)
	if err != nil || cached || len(items) != 2 {
		t.Fatalf("first call: items=%v cached=%v err=%v", items, cached, err)
	}
	items, _, cached, err = getOrCompute1(c, 3, 10, "fp", compute)
	if err != nil || !cached || len(items) != 2 || calls != 1 {
		t.Fatalf("second call: cached=%v calls=%d err=%v", cached, calls, err)
	}
	// A different fingerprint (e.g. a new route epoch) misses.
	_, _, cached, _ = getOrCompute1(c, 3, 10, "fp2", compute)
	if cached || calls != 2 {
		t.Fatalf("epoch-qualified fingerprint hit a stale entry (cached=%v calls=%d)", cached, calls)
	}
	if stats.Hits() != 1 || stats.Misses() != 2 {
		t.Fatalf("stats hits=%d misses=%d, want 1/2", stats.Hits(), stats.Misses())
	}

	// Coalescing: concurrent misses on one key → one computation. The
	// leader is released once it has entered compute; how many of the other
	// seven had joined the flight by then is up to the scheduler — the rest
	// arrive after the cache fill and count as hits. Every one of them must
	// be one or the other, and none may compute.
	c2 := NewListCache(64, 4, nil)
	var computations atomic.Int32
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, _, err := getOrCompute1(c2, 1, 5, "x", func() ([]int, []float64, bool, error) {
				computations.Add(1)
				entered <- struct{}{}
				<-release
				return []int{4}, []float64{0.5}, true, nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	<-entered
	close(release)
	wg.Wait()
	if n := computations.Load(); n != 1 {
		t.Fatalf("%d computations for 8 concurrent identical misses, want 1", n)
	}
	if co, hits := c2.Stats().Coalesced(), c2.Stats().Hits(); co+hits != 7 {
		t.Fatalf("coalesced=%d + hits=%d, want 7 between them", co, hits)
	}
}

func TestListCacheUncacheableAndErrors(t *testing.T) {
	c := NewListCache(64, 4, nil)

	// Degraded (uncacheable) results are served but never cached.
	calls := 0
	degraded := func() ([]int, []float64, bool, error) {
		calls++
		return []int{9}, []float64{0.1}, false, nil
	}
	for i := 0; i < 3; i++ {
		items, _, cached, err := getOrCompute1(c, 1, 5, "d", degraded)
		if err != nil || cached || len(items) != 1 {
			t.Fatalf("degraded call %d: items=%v cached=%v err=%v", i, items, cached, err)
		}
	}
	if calls != 3 {
		t.Fatalf("degraded result was cached (%d computations for 3 calls)", calls)
	}
	if c.Len() != 0 {
		t.Fatalf("degraded result stored: cache len %d", c.Len())
	}

	// Errors propagate and are not cached.
	boom := fmt.Errorf("scatter failed")
	_, _, _, err := getOrCompute1(c, 1, 5, "e", func() ([]int, []float64, bool, error) {
		return nil, nil, true, boom
	})
	if err != boom {
		t.Fatalf("error not propagated: %v", err)
	}
	items, _, cached, err := getOrCompute1(c, 1, 5, "e", func() ([]int, []float64, bool, error) {
		return []int{2}, []float64{0.7}, true, nil
	})
	if err != nil || cached || len(items) != 1 {
		t.Fatalf("after error: items=%v cached=%v err=%v (error must not be cached)", items, cached, err)
	}

	// Disabled cache still computes.
	off := NewListCache(0, 0, nil)
	items, _, cached, err = getOrCompute1(off, 1, 5, "x", func() ([]int, []float64, bool, error) {
		return []int{3}, []float64{0.2}, true, nil
	})
	if err != nil || cached || len(items) != 1 || off.Len() != 0 {
		t.Fatalf("disabled cache: items=%v cached=%v err=%v len=%d", items, cached, err, off.Len())
	}
}

// TestListCacheBatch: one call over a batch's users answers hits from the
// cache, skips slots the caller already failed, computes every other
// distinct user in ONE compute call, and gives a repeated user's later
// slots the first's list.
func TestListCacheBatch(t *testing.T) {
	stats := &Stats{}
	c := NewListCache(64, 4, stats)
	list := func(u int) ([]int, []float64) { return []int{u, u + 1}, []float64{0.5, 0.25} }
	getOrCompute1(c, 42, 5, "fp", func() ([]int, []float64, bool, error) {
		items, scores := list(42)
		return items, scores, true, nil
	})
	users := []int{5, 42, 9000, 7, 5, 7}
	out := make([]ListEntry, len(users))
	bad := fmt.Errorf("user 9000 out of range")
	out[2].Err = bad
	var computed [][]int
	c.GetOrComputeBatch(users, 5, "fp", true, out, func(idx []int) {
		computed = append(computed, append([]int(nil), idx...))
		for _, i := range idx {
			out[i].Items, out[i].Scores = list(users[i])
		}
	})
	if len(computed) != 1 || len(computed[0]) != 2 || computed[0][0] != 0 || computed[0][1] != 3 {
		t.Fatalf("compute calls %v, want one call over slots [0 3]", computed)
	}
	for i, u := range users {
		e := out[i]
		if u == 9000 {
			if e.Err != bad || e.Items != nil {
				t.Errorf("the failed slot was touched: %+v", e)
			}
			continue
		}
		if e.Err != nil || len(e.Items) != 2 || e.Items[0] != u {
			t.Errorf("slot %d (user %d): %+v", i, u, e)
		}
		if want := i == 1 || i >= 4; e.Cached != want {
			t.Errorf("slot %d (user %d): cached=%v, want %v", i, u, e.Cached, want)
		}
	}
	// 1 warm-up miss + 2 led misses; 1 hit; 2 repeats shared; 3 computations.
	if stats.Misses() != 3 || stats.Hits() != 1 || stats.Coalesced() != 2 || stats.Ranked() != 3 {
		t.Errorf("misses=%d hits=%d coalesced=%d ranked=%d, want 3/1/2/3",
			stats.Misses(), stats.Hits(), stats.Coalesced(), stats.Ranked())
	}
	// All of it is cached now; an unshareable or failed result never is.
	c.GetOrComputeBatch(users, 5, "fp", true, out, func(idx []int) { t.Errorf("recomputed %v", idx) })
	for round := 0; round < 2; round++ {
		two := make([]ListEntry, 2)
		c.GetOrComputeBatch([]int{1, 2}, 5, "fp", true, two, func(idx []int) {
			two[0] = ListEntry{Items: []int{1}, Scores: []float64{1}, NoShare: true}
			two[1].Err = bad
		})
		if two[0].Cached || !two[0].NoShare || two[1].Err != bad {
			t.Fatalf("round %d: %+v", round, two)
		}
	}
	if c.Len() != 3 {
		t.Errorf("cache holds %d lists, want 3 (users 42, 5, 7)", c.Len())
	}
}

// TestListCacheOverlappingBatches: concurrent batches naming the same users
// in opposite orders lead some of each other's flights. Each publishes what
// it leads before it waits on what it does not, so they cannot deadlock,
// and between them every key is computed exactly once.
func TestListCacheOverlappingBatches(t *testing.T) {
	const n, rounds = 12, 200
	c := NewListCache(rounds*n*2, 4, nil)
	for round := 0; round < rounds; round++ {
		fwd, rev := make([]int, n), make([]int, n)
		for i := range fwd {
			fwd[i], rev[n-1-i] = round*n+i, round*n+i
		}
		var computations atomic.Int32
		var wg sync.WaitGroup
		for _, users := range [][]int{fwd, rev, fwd} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := make([]ListEntry, n)
				c.GetOrComputeBatch(users, 5, "fp", true, out, func(idx []int) {
					computations.Add(int32(len(idx)))
					runtime.Gosched() // let the other batches reach their lookups
					for _, i := range idx {
						out[i].Items, out[i].Scores = []int{users[i]}, []float64{1}
					}
				})
				for i, e := range out {
					if e.Err != nil || len(e.Items) != 1 || e.Items[0] != users[i] {
						t.Errorf("round %d user %d: %+v", round, users[i], e)
					}
				}
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("round %d: overlapping batches deadlocked", round)
		}
		if got := computations.Load(); got != n {
			t.Fatalf("round %d: %d computations for %d distinct users", round, got, n)
		}
	}
}
