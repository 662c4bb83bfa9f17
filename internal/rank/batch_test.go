package rank

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
)

// TopMBatch must be the per-user pipeline verbatim: for every user, in
// input order, the columns hold exactly what TopMStagedTimed returns — same
// items, bit-identical scores, same cache interaction.
func TestTopMBatchMatchesTopMStaged(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	scores := make([][]float64, 12)
	for u := range scores {
		scores[u] = make([]float64, 40)
		for i := range scores[u] {
			scores[u][i] = rng.Float64()
		}
	}
	for _, workers := range []int{1, 4} {
		sc := &fixedScorer{scores: scores}
		e := NewEngine(sc, Config{CacheSize: 64})
		ref := NewEngine(&fixedScorer{scores: scores}, Config{CacheSize: 64})
		users := []int{3, 0, 7, 3, 11, 5}
		filters := []Filter{ExcludeItems([]int{2, 9})}
		stages := []Stage{ScoreFloor(0.1)}
		filtersFor := func(i int) ([]Filter, bool) {
			if users[i] == 5 {
				return nil, false // simulate a serving-layer rejection
			}
			return filters, true
		}
		var cols BatchCols
		e.TopMBatch(users, 6, workers, stages, filtersFor, &cols)
		if len(cols.Counts) != len(users) || len(cols.Cached) != len(users) {
			t.Fatalf("workers=%d: got %d counts for %d users", workers, len(cols.Counts), len(users))
		}
		at := 0
		for i, u := range users {
			n := int(cols.Counts[i])
			if u == 5 {
				if n != 0 {
					t.Fatalf("workers=%d: rejected user got %d items", workers, n)
				}
				continue
			}
			wantItems, wantScores, _ := ref.TopMStagedTimed(u, 6, stages, nil, filters...)
			if n != len(wantItems) {
				t.Fatalf("workers=%d user %d: %d items, want %d", workers, u, n, len(wantItems))
			}
			for j := 0; j < n; j++ {
				if int(cols.Items[at+j]) != wantItems[j] {
					t.Fatalf("workers=%d user %d item %d: %d != %d", workers, u, j, cols.Items[at+j], wantItems[j])
				}
				if math.Float64bits(cols.Scores[at+j]) != math.Float64bits(wantScores[j]) {
					t.Fatalf("workers=%d user %d score %d differs", workers, u, j)
				}
			}
			at += n
		}
		// The duplicated user (3) must have hit the cache on its second
		// appearance, exactly like two sequential TopMStagedTimed calls.
		if hits := e.Stats().Hits() + e.Stats().Coalesced(); hits < 1 {
			t.Fatalf("workers=%d: duplicate user missed the cache (hits+coalesced=%d)", workers, hits)
		}
	}
}

// Batch results are copied out of the rank scratch, where a hit's list was
// copied from the cache: mutating the columns must not corrupt a later cache hit,
// columns one call filled are intact after the next call has ranked in the
// same scratch, and nothing the cache holds is scratch memory.
func TestTopMBatchCopiesOutOfCache(t *testing.T) {
	sc := &fixedScorer{scores: [][]float64{{5, 4, 3, 2, 1}, {1, 2, 3, 4, 5}}}
	e := NewEngine(sc, Config{CacheSize: 8})
	var cols BatchCols
	e.TopMBatch([]int{0}, 3, 1, nil, func(int) ([]Filter, bool) { return nil, true }, &cols)
	for i := range cols.Items {
		cols.Items[i] = 999
		cols.Scores[i] = -1
	}
	items, scores, cached := e.TopMTimed(0, 3, nil)
	if !cached {
		t.Fatal("expected a cache hit after the batch")
	}
	if items[0] != 0 || scores[0] != 5 {
		t.Fatalf("cache entry corrupted by column mutation: %v %v", items, scores)
	}

	// Lists no cache can hold go from the scratch straight into the columns.
	unkeyed := func(int) ([]Filter, bool) { return []Filter{OffsetRange(ExcludeItems([]int{2}), 0, 5)}, true }
	for _, workers := range []int{1, 3} {
		var first, second BatchCols
		e.TopMBatch([]int{0, 1}, 3, workers, nil, unkeyed, &first)
		wantItems, wantScores := slices.Clone(first.Items), slices.Clone(first.Scores)
		if !slices.Equal(wantItems, []uint32{0, 1, 3, 4, 3, 1}) || slices.Contains(first.Cached, true) {
			t.Fatalf("workers=%d: columns %v (cached %v), want [0 1 3 4 3 1], none cached", workers, first.Items, first.Cached)
		}
		e.TopMBatch([]int{1, 1, 0}, 2, workers, nil, unkeyed, &second)
		if !slices.Equal(first.Items, wantItems) || !slices.Equal(first.Scores, wantScores) {
			t.Errorf("workers=%d: a later call rewrote filled columns: %v %v, want %v %v", workers, first.Items, first.Scores, wantItems, wantScores)
		}
	}

	// A cacheable list is ranked in the scratch too and cached as a copy, and
	// a hit is copied back into the scratch: scribbling over the scratch
	// after either leaves the cached list alone.
	s := &scratch{}
	for round, want := range []bool{false, true} {
		if cached := e.list(s, 1, 3, nil, nil, nil); cached != want {
			t.Fatalf("round %d for user 1: cached=%v, want %v", round, cached, want)
		}
		if !slices.Equal(s.items, []int{4, 3, 2}) {
			t.Fatalf("round %d: user 1's list in the scratch is %v, want [4 3 2]", round, s.items)
		}
		for i := range s.items[:cap(s.items)] {
			s.items[:cap(s.items)][i] = 999
		}
		for i := range s.scores[:cap(s.scores)] {
			s.scores[:cap(s.scores)][i] = -1
		}
		if items, scores, cached := e.TopMTimed(1, 3, nil); !cached || !slices.Equal(items, []int{4, 3, 2}) || !slices.Equal(scores, []float64{5, 4, 3}) {
			t.Errorf("round %d: cache entry shares memory with the scratch: %v %v cached=%v", round, items, scores, cached)
		}
	}
}

// What a TopMBatch call allocates must not grow with the batch: a shard's
// lists are copied from one pooled scratch into the caller's columns, so 32
// users cost what the smallest batch through the same branch costs — one
// user serially, one per worker fanned out (a one-user batch never fans
// out; what is left there is the fan-out's goroutines).
func TestTopMBatchAllocsPerUser(t *testing.T) {
	skipUnderRace(t)
	train := plantedSparse(t)
	path := saveTrained(t, train, core.Config{K: 16, Lambda: 5, MaxIter: 40, Seed: 1})
	lo, hi := train.Cols()/4, train.Cols()/2
	for _, workers := range []int{1, 3} {
		e, users, filtersFor := shardBatch(t, train, path, lo, hi, 32)
		var cols BatchCols
		allocs := func(n int) float64 {
			return testing.AllocsPerRun(50, func() {
				cols.Reset()
				e.TopMBatch(users[:n], 20, workers, nil, filtersFor, &cols)
			})
		}
		allocs(32) // warm: scratches pooled, columns grown
		if few, all := allocs(workers), allocs(32); few != all {
			t.Errorf("workers=%d: a batch of %d users allocates %v times, one of 32 users %v times: %v per user, want 0",
				workers, workers, few, all, (all-few)/float64(32-workers))
		}
		if len(cols.Counts) != 32 || len(cols.Items) != 32*20 {
			t.Errorf("workers=%d: %d lists of %d items in all, want 32 of 20 each", workers, len(cols.Counts), len(cols.Items))
		}
	}
}
