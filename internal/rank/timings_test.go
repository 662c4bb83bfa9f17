package rank

import (
	"testing"
	"time"
)

// slowScorer pads ScoreUser so the score phase is reliably measurable:
// the tests below assert Timings.Score > 0, a wall-time reading, and a
// 500-item copy alone can finish inside one tick of a coarse clock. The
// sleep is that padding, not a wait for anything.
type slowScorer struct {
	scores []float64
}

func (s *slowScorer) ScoreUser(u int, dst []float64) {
	time.Sleep(200 * time.Microsecond)
	copy(dst, s.scores)
}
func (s *slowScorer) NumItems() int { return len(s.scores) }

func timingScorer(ni int) *slowScorer {
	scores := make([]float64, ni)
	for i := range scores {
		scores[i] = float64(i % 7)
	}
	return &slowScorer{scores: scores}
}

func TestTopMTimedPopulatesPhases(t *testing.T) {
	e := NewEngine(timingScorer(500), Config{CacheSize: 16})

	var tm Timings
	items, _, cached := e.TopMTimed(3, 10, &tm)
	if cached || len(items) != 10 {
		t.Fatalf("miss: cached=%v items=%d", cached, len(items))
	}
	if tm.Score <= 0 || tm.Select <= 0 {
		t.Fatalf("miss timings not populated: %+v", tm)
	}
	if tm.Stages != 0 {
		t.Fatalf("stageless request has Stages=%v", tm.Stages)
	}
	if tm.Cached || tm.Coalesced {
		t.Fatalf("miss flagged as cached: %+v", tm)
	}

	// Repeat hits the cache: flags set, no phase durations, no ranking.
	before := e.Stats().Ranked()
	var hit Timings
	_, _, cached = e.TopMTimed(3, 10, &hit)
	if !cached || !hit.Cached {
		t.Fatalf("repeat not reported as cache hit: cached=%v tm=%+v", cached, hit)
	}
	if hit.Score != 0 || hit.Select != 0 || hit.Stages != 0 {
		t.Fatalf("cache hit has phase durations: %+v", hit)
	}
	if e.Stats().Ranked() != before {
		t.Fatal("cache hit re-ranked")
	}
}

func TestTopMStagedTimedPopulatesStages(t *testing.T) {
	e := NewEngine(timingScorer(500), Config{})
	var tm Timings
	items, _, _ := e.TopMStagedTimed(1, 10, []Stage{ScoreFloor(1)}, &tm)
	if len(items) == 0 {
		t.Fatal("staged request returned nothing")
	}
	if tm.Score <= 0 || tm.Select <= 0 || tm.Stages <= 0 {
		t.Fatalf("staged timings not populated: %+v", tm)
	}
}

// TestTopMBatchTimings: a one-user batch with BatchCols.Timings set is timed
// as TopMStagedTimed times that user — every stage on a miss, only the flag
// on a hit.
func TestTopMBatchTimings(t *testing.T) {
	e := NewEngine(timingScorer(500), Config{CacheSize: 16})
	stages := []Stage{ScoreFloor(1)}
	filters := func(int) ([]Filter, bool) { return nil, true }
	var miss, hit Timings
	cols := BatchCols{Timings: &miss}
	e.TopMBatch([]int{1}, 10, 1, stages, filters, &cols)
	if miss.Score <= 0 || miss.Select <= 0 || miss.Stages <= 0 || miss.Cached {
		t.Fatalf("miss timings not populated: %+v", miss)
	}
	cols.Reset()
	cols.Timings = &hit
	e.TopMBatch([]int{1}, 10, 1, stages, filters, &cols)
	if !hit.Cached || hit.Score != 0 || hit.Select != 0 || hit.Stages != 0 || !cols.Cached[0] {
		t.Fatalf("hit timings %+v, cached %v: want the flag and no durations", hit, cols.Cached)
	}
}

// TestTopMTimedNil pins the documented contract that a nil Timings is
// identical to the untimed entry point.
func TestTopMTimedNil(t *testing.T) {
	e := NewEngine(timingScorer(100), Config{})
	items, scores, _ := e.TopMTimed(0, 5, nil)
	ref, refScores, _ := e.TopM(0, 5)
	if len(items) != len(ref) {
		t.Fatalf("timed/untimed lengths differ: %d vs %d", len(items), len(ref))
	}
	for i := range items {
		if items[i] != ref[i] || scores[i] != refScores[i] {
			t.Fatalf("timed result diverges at %d", i)
		}
	}
}
