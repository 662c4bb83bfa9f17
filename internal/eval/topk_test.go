package eval

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sparse"
)

// refTopM is an independent full-sort reference for the pre-refactor TopM
// contract: rank the non-owned items by (score desc, index asc), truncate
// to m, return nil when no candidates exist. It shares no code with the
// rank engine, so agreement pins the engine-backed TopM bit-identically to
// the original selection semantics.
func refTopM(scores []float64, owned []int32, m int) []int {
	ownedSet := make(map[int]bool, len(owned))
	for _, i := range owned {
		ownedSet[int(i)] = true
	}
	var cand []int
	for i := range scores {
		if !ownedSet[i] {
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

// TestTopMMatchesReference: the engine-backed TopM must return exactly the
// reference ranking for every m, including under heavy ties and m up to
// the whole catalogue.
func TestTopMMatchesReference(t *testing.T) {
	f := func(seed uint16, mRaw uint8) bool {
		r := rng.New(uint64(seed) + 101)
		ni := 5 + r.Intn(200)
		scores := make([]float64, ni)
		for i := range scores {
			// Coarse quantization forces many exact ties.
			scores[i] = float64(r.Intn(8))
		}
		b := sparse.NewBuilder(1, ni)
		for i := 0; i < ni; i++ {
			if r.Bernoulli(0.2) {
				b.Add(0, i)
			}
		}
		train := b.Build()
		m := 1 + int(mRaw)%ni
		rec := &fixedRec{scores: [][]float64{scores}}
		want := refTopM(scores, train.Row(0), m)
		got := TopM(rec, train, 0, m, nil)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTopMZeroAndNegative(t *testing.T) {
	train := sparse.NewBuilder(1, 4).Build()
	rec := &fixedRec{scores: [][]float64{{1, 2, 3, 4}}}
	if got := TopM(rec, train, 0, 0, nil); got != nil {
		t.Fatalf("m=0 returned %v", got)
	}
	if got := TopM(rec, train, 0, -3, nil); got != nil {
		t.Fatalf("m<0 returned %v", got)
	}
}

func TestTopMAllOwned(t *testing.T) {
	train := sparse.FromDense([][]bool{{true, true, true}})
	rec := &fixedRec{scores: [][]float64{{1, 2, 3}}}
	if got := TopM(rec, train, 0, 2, nil); len(got) != 0 {
		t.Fatalf("fully-owned user got recommendations %v", got)
	}
}

func TestTopMHeapPathExercised(t *testing.T) {
	// Large catalogue, small m: the heap path must produce a correct
	// descending ranking.
	r := rng.New(7)
	ni := 5000
	scores := make([]float64, ni)
	for i := range scores {
		scores[i] = r.Float64()
	}
	rec := &fixedRec{scores: [][]float64{scores}}
	train := sparse.NewBuilder(1, ni).Build()
	top := TopM(rec, train, 0, 10, nil)
	if len(top) != 10 {
		t.Fatalf("got %d items", len(top))
	}
	for n := 1; n < len(top); n++ {
		if scores[top[n]] > scores[top[n-1]] {
			t.Fatalf("ranking not descending at %d", n)
		}
	}
	// Cross-check against the reference.
	want := refTopM(scores, nil, 10)
	for n := range want {
		if top[n] != want[n] {
			t.Fatalf("heap ranking diverges from reference at %d", n)
		}
	}
}

// TestTopMScratchPostcondition: TopM must leave exactly what ScoreUser
// wrote in the scratch buffer (the serving layer reads scores back by
// item index).
func TestTopMScratchPostcondition(t *testing.T) {
	scores := []float64{0.5, 0.1, 0.9, 0.3}
	rec := &fixedRec{scores: [][]float64{scores}}
	train := sparse.FromDense([][]bool{{false, true, false, false}})
	scratch := make([]float64, 4)
	top := TopM(rec, train, 0, 2, scratch)
	for i, want := range scores {
		if scratch[i] != want {
			t.Fatalf("scratch[%d] = %v, want %v (TopM mutated the score buffer)", i, scratch[i], want)
		}
	}
	if len(top) != 2 || top[0] != 2 || top[1] != 0 {
		t.Fatalf("top = %v, want [2 0]", top)
	}
}

func BenchmarkTopMHeap50of5000(b *testing.B) {
	r := rng.New(1)
	ni := 5000
	scores := make([]float64, ni)
	for i := range scores {
		scores[i] = r.Float64()
	}
	rec := &fixedRec{scores: [][]float64{scores}}
	train := sparse.NewBuilder(1, ni).Build()
	scratch := make([]float64, ni)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TopM(rec, train, 0, 50, scratch)
	}
}

func BenchmarkTopMLargeM5000(b *testing.B) {
	// m covers most of the candidate set: the heap holds 2,000 of 5,000.
	r := rng.New(1)
	ni := 5000
	scores := make([]float64, ni)
	for i := range scores {
		scores[i] = r.Float64()
	}
	rec := &fixedRec{scores: [][]float64{scores}}
	train := sparse.NewBuilder(1, ni).Build()
	scratch := make([]float64, ni)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TopM(rec, train, 0, 2000, scratch)
	}
}
