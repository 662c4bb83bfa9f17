package parallel

import (
	"math"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 7} {
		for _, n := range []int{0, 1, 2, 10, 100, 1000} {
			var hits = make([]atomic.Int32, max(n, 1))
			For(n, workers, func(i int, _ *Scratch) {
				hits[i].Add(1)
			})
			for i := 0; i < n; i++ {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestForResultsIndependentOfWorkers(t *testing.T) {
	n := 500
	serial := make([]float64, n)
	For(n, 1, func(i int, s *Scratch) {
		buf := s.Float64s(4)
		buf[0] = float64(i)
		serial[i] = buf[0] * 2
	})
	par := make([]float64, n)
	For(n, 8, func(i int, s *Scratch) {
		buf := s.Float64s(4)
		buf[0] = float64(i)
		par[i] = buf[0] * 2
	})
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("index %d: serial %v != parallel %v", i, serial[i], par[i])
		}
	}
}

func TestScratchZeroed(t *testing.T) {
	s := &Scratch{}
	b := s.Float64s(3)
	b[0], b[1], b[2] = 1, 2, 3
	b2 := s.Float64s(2)
	if b2[0] != 0 || b2[1] != 0 {
		t.Fatal("Scratch.Float64s did not zero reused memory")
	}
	b3 := s.Float64s(10)
	for _, v := range b3 {
		if v != 0 {
			t.Fatal("grown scratch not zeroed")
		}
	}
}

func TestSumVectorsBitIdenticalAcrossWorkers(t *testing.T) {
	f := func(seed int64, kRaw uint8, nRaw uint16) bool {
		k := int(kRaw%8) + 1
		// Span several 256-row blocks so the partial-combine path is hit.
		n := int(nRaw%1500) + 1
		flat := make([]float64, n*k)
		x := float64(seed%1000) / 7
		for i := range flat {
			x = math.Mod(x*1.37+0.11, 10)
			flat[i] = x
		}
		want := make([]float64, k)
		SumVectors(want, flat, k, 1)
		for _, workers := range []int{2, 3, 5, 8} {
			got := make([]float64, k)
			SumVectors(got, flat, k, workers)
			for c := range got {
				// The fixed-block reduction makes every worker count follow
				// the same summation tree — agreement is bit-exact.
				if got[c] != want[c] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSumVectorsMatchesNaive(t *testing.T) {
	k, n := 3, 700
	flat := make([]float64, n*k)
	for i := range flat {
		flat[i] = float64(i%13) * 0.25
	}
	naive := make([]float64, k)
	for r := 0; r < n; r++ {
		for c := 0; c < k; c++ {
			naive[c] += flat[r*k+c]
		}
	}
	got := make([]float64, k)
	SumVectors(got, flat, k, 4)
	for c := range got {
		if math.Abs(got[c]-naive[c]) > 1e-9*(1+math.Abs(naive[c])) {
			t.Fatalf("coord %d: SumVectors %v, naive %v", c, got[c], naive[c])
		}
	}
}

func TestReduceSumBitIdenticalAcrossWorkers(t *testing.T) {
	vals := make([]float64, 3000)
	x := 0.3
	for i := range vals {
		x = math.Mod(x*1.7+0.19, 4)
		vals[i] = x - 2
	}
	fn := func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += vals[i] * vals[i]
		}
		return s
	}
	want := ReduceSum(len(vals), 1, fn)
	for _, workers := range []int{2, 4, 7} {
		if got := ReduceSum(len(vals), workers, fn); got != want {
			t.Fatalf("workers=%d: ReduceSum %v != serial %v", workers, got, want)
		}
	}
	naive := 0.0
	for b := 0; b < len(vals); b += 256 {
		hi := b + 256
		if hi > len(vals) {
			hi = len(vals)
		}
		naive += fn(b, hi)
	}
	if want != naive {
		t.Fatalf("ReduceSum %v != block-order naive %v", want, naive)
	}
	if got := ReduceSum(0, 4, fn); got != 0 {
		t.Fatalf("ReduceSum over empty range = %v", got)
	}
}

func TestScratchRawVariants(t *testing.T) {
	s := &Scratch{}
	f := s.Float64s(4)
	f[0], f[3] = 7, 9
	// Raw borrows reuse the arena without zeroing: same backing memory,
	// previous contents visible.
	fr := s.Float64sRaw(4)
	if fr[0] != 7 || fr[3] != 9 {
		t.Fatal("Float64sRaw did not reuse the arena")
	}
	ir := s.IntsRaw(5)
	for i := range ir {
		ir[i] = i + 1
	}
	if got := s.IntsRaw(3); got[0] != 1 || got[2] != 3 {
		t.Fatal("IntsRaw did not reuse the arena")
	}
	// The int and float arenas are independent.
	if got := s.Float64sRaw(4); got[0] != 7 || got[3] != 9 {
		t.Fatal("IntsRaw clobbered the float arena")
	}
}

func TestSumVectorsEmpty(t *testing.T) {
	dst := []float64{5, 5}
	SumVectors(dst, nil, 2, 4)
	if dst[0] != 0 || dst[1] != 0 {
		t.Fatal("SumVectors on empty input should zero dst")
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers < 1")
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func BenchmarkForSerial(b *testing.B) {
	work := func(i int, s *Scratch) {
		buf := s.Float64s(64)
		for j := range buf {
			buf[j] = float64(i + j)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		For(10000, 1, work)
	}
}

func BenchmarkForParallel(b *testing.B) {
	work := func(i int, s *Scratch) {
		buf := s.Float64s(64)
		for j := range buf {
			buf[j] = float64(i + j)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		For(10000, DefaultWorkers(), work)
	}
}

// TestForReusesScratchZeroAlloc: For's arenas outlive the call, so once one
// call has grown them, the next call's per-index borrows allocate nothing,
// serial and parallel. Under -race sync.Pool drops a quarter of what is
// Put, so the test skips itself there; CI's allocation budgets step runs it
// by name without the detector.
func TestForReusesScratchZeroAlloc(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("allocation counts are not meaningful under -race")
	}
	fn := func(i int, s *Scratch) {
		s.Float64sRaw(1 << 12)[i%7] = 1
		s.IntsRaw(1 << 10)[i%5] = i
	}
	// The parallel call's goroutines, WaitGroup and cursor are its own 5
	// allocations; arenas regrown from nothing would add 2 per worker.
	for _, b := range []struct {
		workers int
		allocs  float64
	}{{1, 0}, {2, 5}} {
		For(64, b.workers, fn) // grow the pooled arenas
		if allocs := testing.AllocsPerRun(20, func() { For(64, b.workers, fn) }); allocs > b.allocs {
			t.Errorf("workers=%d: %v allocations per call, budget %v", b.workers, allocs, b.allocs)
		}
	}
}
