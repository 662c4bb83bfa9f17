// Package parallel is the execution engine substituting for the paper's GPU
// implementation (Section VI).
//
// The CUDA design launches one thread block per positive example, each
// computing a partial inner product in shared memory, reducing it, and
// accumulating the weighted factor vector into the item gradient with
// atomic adds. The same decomposition holds at a coarser grain: every item
// (and, in the user sweep, every user) owns a disjoint slice of the factor
// array, and its update depends only on the fixed block's factors plus the
// precomputed constant C = Σ f (the kernel's initialization value). Updates
// within a block are therefore embarrassingly parallel, and — unlike the
// atomic-add CUDA kernel — race-free without synchronization, so the
// parallel schedule is bit-identical to the serial one.
//
// For runs an index space over a worker pool with contiguous chunking
// (coalesced access, the CPU analogue of warp-contiguous reads). Each
// worker carries a Scratch arena so per-index updates allocate nothing,
// and the arenas outlive the call in a package pool, so the next call's
// workers start from arenas already grown.
//
// SumVectors and ReduceSum are the package's deterministic reductions: the
// input is split into fixed-width blocks whose boundaries depend only on
// the input size, blocks are summed serially, and the partials are combined
// in block order. Results are therefore bit-identical for every worker
// count, which lets the trainer use them on its hot path without weakening
// the serial-equals-parallel contract above.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Scratch is a per-worker reusable arena. Get slices of it via Float64s,
// Float64sRaw and IntsRaw; each slice is valid until the next call of a
// getter of the same arena with a larger size. Scratch is not safe for
// concurrent use; For gives each worker its own.
type Scratch struct {
	buf  []float64
	ints []int
}

// Float64s returns a zeroed slice of length n, reusing the arena when
// possible.
func (s *Scratch) Float64s(n int) []float64 {
	if cap(s.buf) < n {
		s.buf = make([]float64, n)
	}
	b := s.buf[:n]
	for i := range b {
		b[i] = 0
	}
	return b
}

// Float64sRaw is Float64s without the zeroing pass, for callers that fully
// overwrite the slice before reading it — the training kernels' factor
// updates, where zeroing would cost O(K + |pos|) extra writes per
// subproblem. Contents are whatever a previous borrow left behind.
func (s *Scratch) Float64sRaw(n int) []float64 {
	if cap(s.buf) < n {
		s.buf = make([]float64, n)
	}
	return s.buf[:n]
}

// IntsRaw returns an unzeroed []int of length n from a separate arena,
// with the same reuse discipline as Float64sRaw. The training kernels
// borrow it for the clamped/live coordinate index lists of the incremental
// line search.
func (s *Scratch) IntsRaw(n int) []int {
	if cap(s.ints) < n {
		s.ints = make([]int, n)
	}
	return s.ints[:n]
}

// scratchPool keeps For's arenas between calls: a training runs For twice
// per iteration, and each call would otherwise regrow every worker's arena
// from nothing.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// DefaultWorkers returns the worker count used when a caller passes 0:
// the number of usable CPUs.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// For executes fn(i, scratch) for every i in [0, n). workers <= 1 runs
// serially on the calling goroutine. With multiple workers, indices are
// dealt in contiguous chunks via an atomic cursor, which balances load when
// per-index cost is skewed (items have wildly varying degree). fn must not
// touch state owned by other indices; under that contract results are
// identical for every worker count. A slice fn borrows from scratch is
// valid only until fn returns: the arenas go on to later calls.
func For(n, workers int, fn func(i int, scratch *Scratch)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers == 1 || n == 1 {
		s := scratchPool.Get().(*Scratch)
		defer scratchPool.Put(s)
		for i := 0; i < n; i++ {
			fn(i, s)
		}
		return
	}
	if workers > n {
		workers = n
	}
	// Chunk size balances scheduling overhead against load balance; with
	// at least 8 chunks per worker the long-degree-tail items spread out.
	chunk := n / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			s := scratchPool.Get().(*Scratch)
			defer scratchPool.Put(s)
			for {
				start := int(cursor.Add(int64(chunk))) - chunk
				if start >= n {
					return
				}
				end := start + chunk
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					fn(i, s)
				}
			}
		}()
	}
	wg.Wait()
}

// sumBlockRows is the fixed range width of the deterministic reductions
// below. Block boundaries depend only on the input size — never on the
// worker count — so every worker count produces the same summation tree
// and therefore bit-identical results. 256 rows per block keeps scheduling
// overhead negligible while giving enough blocks to balance load.
const sumBlockRows = 256

// SumVectors computes dst = Σ_r flat[r·k : (r+1)·k], the parallel reduction
// behind the kernel constant C = Σ_u f_u. Rows are summed in fixed
// 256-row blocks and the block partials are combined in block order, so the
// result is bit-identical for every worker count (including serial) — the
// guarantee the trainer's serial/parallel equivalence contract relies on.
func SumVectors(dst, flat []float64, k, workers int) {
	for i := range dst {
		dst[i] = 0
	}
	if k <= 0 {
		return
	}
	n := len(flat) / k
	if n == 0 {
		return
	}
	nb := (n + sumBlockRows - 1) / sumBlockRows
	if nb == 1 {
		// One block: accumulating straight into dst follows the same
		// addition sequence as the partial-combine path below.
		for off := 0; off < n*k; off += k {
			for c := 0; c < k; c++ {
				dst[c] += flat[off+c]
			}
		}
		return
	}
	partials := make([]float64, nb*k)
	For(nb, workers, func(b int, _ *Scratch) {
		p := partials[b*k : (b+1)*k]
		lo, hi := b*sumBlockRows, (b+1)*sumBlockRows
		if hi > n {
			hi = n
		}
		for r := lo; r < hi; r++ {
			off := r * k
			for c := 0; c < k; c++ {
				p[c] += flat[off+c]
			}
		}
	})
	for b := 0; b < nb; b++ {
		off := b * k
		for c := 0; c < k; c++ {
			dst[c] += partials[off+c]
		}
	}
}

// ReduceSum evaluates fn over the fixed 256-wide blocks of [0, n) in
// parallel and returns the sum of the block results, combined in block
// order. fn(lo, hi) must return the partial for [lo, hi) computed
// serially; under that contract the total is bit-identical for every worker
// count. This is the scalar counterpart of SumVectors, used by the
// parallelized objective evaluation of the convergence check.
func ReduceSum(n, workers int, fn func(lo, hi int) float64) float64 {
	if n <= 0 {
		return 0
	}
	nb := (n + sumBlockRows - 1) / sumBlockRows
	partials := make([]float64, nb)
	For(nb, workers, func(b int, _ *Scratch) {
		lo, hi := b*sumBlockRows, (b+1)*sumBlockRows
		if hi > n {
			hi = n
		}
		partials[b] = fn(lo, hi)
	})
	var total float64
	for _, p := range partials {
		total += p
	}
	return total
}
