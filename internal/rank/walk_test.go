package rank

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// fuzzShapes are the models FuzzWalk plants factors in: users, items, K —
// K = 70 spans two words of a co-cluster mask.
var fuzzShapes = [][3]int{{4, 40, 1}, {4, 60, 3}, {3, 80, 16}, {2, 50, 70}}

// fuzzFactor turns a byte into a factor: mostly zero, otherwise one of a
// few tying levels, products that underflow or land below 2⁻⁵⁴, affinities
// that saturate the score at 1.0 or overflow, assorted magnitudes, and
// out-of-domain values (NaN, ±Inf, negatives; −0 is in the domain).
func fuzzFactor(b byte) float64 {
	switch {
	case b < 128:
		return 0
	case b < 192:
		return float64(1+b%8) / 8
	case b < 208:
		return []float64{0x1p-27, 0x1p-30, 0x1p-75, 0x1p-540, 0x1p-600, 0x1p-1074}[b%6]
	case b < 224:
		return []float64{38, 40, 1e3, 1e20, 1e30, 3e38, 1e200}[b%7]
	case b < 240:
		return math.Ldexp(float64(b), -int(b%16))
	}
	return []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5, math.Copysign(0, -1), 0x1p-1074}[b%6]
}

// FuzzWalk holds the support path to ScoreItems + Select on a model whose
// every factor the bytes choose (cycled over the user rows, then the item
// rows), with or without the float32 section, over an item range: for
// every user the range walks, the engine's list — training row excluded,
// an exclusion list rebased into the range beside it — is Select's over
// the sweep, ids and score bits. When the range is the whole catalogue the
// user is ranked once more under the exclusion ids as the bytes give them,
// repeats and ids outside the items included, unwindowed, and a predicate
// filter beside them. A user the range declines is swept, which is the
// reference itself.
func FuzzWalk(f *testing.F) {
	r := rng.New(7)
	for s := range fuzzShapes {
		for _, n := range []int{5, 64, 600} {
			data := make([]byte, n)
			for j := range data {
				data[j] = byte(r.Intn(256))
			}
			f.Add(uint8(s), n%2 == 0, uint8(n%7), uint8(255), uint8(n%23), data)
		}
	}
	for s, sh := range fuzzShapes { // the whole catalogue, sparse in-domain factors
		data := make([]byte, 97)
		for j := range data {
			data[j] = byte(r.Intn(128))
			if r.Bernoulli(0.12) {
				data[j] = byte(128 + r.Intn(112))
			}
		}
		f.Add(uint8(s), s%2 == 1, uint8(0), uint8(sh[1]-1), uint8(10+s), data)
	}
	f.Add(uint8(1), false, uint8(0), uint8(255), uint8(3), []byte{130, 0, 130, 0, 0, 130, 130})
	f.Add(uint8(3), true, uint8(4), uint8(30), uint8(9), []byte{210, 0, 0, 140, 200, 0, 0, 0, 150})
	f.Fuzz(func(t *testing.T, shape uint8, f32 bool, lo, span, m uint8, data []byte) {
		if len(data) == 0 {
			return
		}
		sh := fuzzShapes[int(shape)%len(fuzzShapes)]
		users, items, k := sh[0], sh[1], sh[2]
		j := 0
		rows := func(n int) [][]float64 {
			out := make([][]float64, n)
			for i := range out {
				out[i] = make([]float64, k)
				for c := range out[i] {
					out[i][c] = fuzzFactor(data[j%len(data)])
					j++
				}
			}
			return out
		}
		fu, fi := rows(users), rows(items)
		rlo := int(lo) % items
		rhi := rlo + 1 + int(span)%(items-rlo)
		scorer := factorRange(t, fu, fi, f32, rlo, rhi)
		b := sparse.NewBuilder(users, items)
		var ex []int
		for i := 0; i < items; i++ {
			for u := 0; u < users; u++ {
				if data[(u*31+i*7)%len(data)]%3 == 0 {
					b.Add(u, i)
				}
			}
			if data[i%len(data)]%5 == 1 {
				ex = append(ex, i)
			}
		}
		train := b.Build()
		stacks := [][]Filter{{OffsetRange(ExcludeItems(ex), rlo, rhi)}}
		if rlo == 0 && rhi == items {
			raw, pred := make([]int, 0, len(data)), predicateFilter{}
			for i, d := range data {
				raw = append(raw, int(d)%(items+8)-4)
				if d%7 == 2 {
					pred[i%items] = true
				}
			}
			stacks = append(stacks, []Filter{ExcludeItems(raw), pred})
		}
		e := NewEngine(scorer, Config{Train: train})
		dense := make([]float64, scorer.Len())
		for u := 0; u < users; u++ {
			scorer.ScoreItems(u, dense)
			for _, filters := range stacks {
				swept := e.Stats().Swept()
				got, gotScores, _ := e.TopMTimed(u, int(m), nil, filters...)
				if e.Stats().Swept() != swept {
					continue
				}
				want := Select(dense, int(m), append([]Filter{OffsetRange(TrainRow(train, u), rlo, rhi)}, filters...)...)
				if !slices.Equal(got, want) {
					t.Fatalf("user %d of [%d,%d), m=%d, %d filters: walk %v, Select %v", u, rlo, rhi, m, len(filters), got, want)
				}
				for n, it := range got {
					if math.Float64bits(gotScores[n]) != math.Float64bits(dense[it]) {
						t.Fatalf("user %d rank %d item %d: walk scored %v, the sweep %v", u, n, it, gotScores[n], dense[it])
					}
				}
			}
		}
	})
}

// TestWalkFirstRankConcurrent makes the first ranks of fresh ranges from
// many goroutines at once, so one builds the support index while the rest
// wait on it (CI runs it under -race): every list is the sweep's, and no
// user is swept. The training row goes in as a rebased filter, as a shard
// gets it, because SweepOnly hides the range's ItemLo.
func TestWalkFirstRankConcurrent(t *testing.T) {
	train := planted(t, 400, 800, 40, 20)
	path := saveTrained(t, train, core.Config{K: 16, Lambda: 5, MaxIter: 20, Seed: 1})
	for _, rg := range [][2]int{{0, 800}, {200, 600}} {
		ref := NewEngine(SweepOnly{openRange(t, path, rg[0], rg[1])}, Config{})
		row := func(u int) Filter { return OffsetRange(TrainRow(train, u), rg[0], rg[1]) }
		type list struct {
			items  []int
			scores []float64
		}
		want := make([]list, train.Rows())
		for u := range want {
			want[u].items, want[u].scores, _ = ref.TopMTimed(u, 20, nil, row(u))
		}
		for round := 0; round < 3; round++ {
			e := NewEngine(openRange(t, path, rg[0], rg[1]), Config{})
			start := make(chan struct{})
			var wg sync.WaitGroup
			const goroutines = 8
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for u := g; u < train.Rows(); u += goroutines {
						items, scores, _ := e.TopMTimed(u, 20, nil, row(u))
						if !slices.Equal(items, want[u].items) || !slices.EqualFunc(scores, want[u].scores, func(a, b float64) bool {
							return math.Float64bits(a) == math.Float64bits(b)
						}) {
							t.Errorf("range %v user %d: walk %v %v, sweep %v %v", rg, u, items, scores, want[u].items, want[u].scores)
							return
						}
					}
				}()
			}
			close(start)
			wg.Wait()
			if s := e.Stats(); s.Ranked() != int64(train.Rows()) || s.Swept() != 0 {
				t.Fatalf("range %v: ranked %d swept %d, want %d and 0", rg, s.Ranked(), s.Swept(), train.Rows())
			}
		}
	}
}
