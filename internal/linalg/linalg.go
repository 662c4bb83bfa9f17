// Package linalg provides the small dense linear-algebra kernels the
// reproduction needs: BLAS-1 style vector operations used in the factor
// updates, and a Cholesky solver for the K×K normal equations of the wALS
// baseline (Pan et al., 2008).
//
// All operations work on []float64 and are allocation-free unless
// documented otherwise, because the OCuLaR inner loop touches every factor
// vector once per iteration and allocation there would dominate runtime.
package linalg

import (
	"fmt"
	"math"
)

// Dot returns the inner product ⟨a, b⟩. It panics if lengths differ.
//
// The loop is unrolled 4-wide with independent accumulators (the OCuLaR
// inner loops are K-stride walks through Dot, and the unrolling breaks the
// add-latency dependency chain). The accumulators are combined in a fixed
// order, so the result is deterministic for a given input.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	var s0, s1, s2, s3 float64
	n := len(a)
	i := 0
	for ; i <= n-4; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := (s0 + s2) + (s1 + s3)
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

// Score is the one scoring loop behind every served score: heap models,
// mapped models and ranges, and fold-in. z_i is evaluated as
// (⟨fu, fi_i⟩ + userBias) + bi[i] — reassociating that chain would break
// the bit-identity the shard merge and the transport property tests pin.
func Score(dst []float64, fu, fi, bi []float64, userBias float64) {
	k := len(fu)
	if len(fi) != len(dst)*k {
		panic("linalg: Score factor shape mismatch")
	}
	if bi != nil && len(bi) != len(dst) {
		panic("linalg: Score bias length mismatch")
	}
	for i := range dst {
		z := Dot(fu, fi[i*k:(i+1)*k]) + userBias
		if bi != nil {
			z += bi[i]
		}
		dst[i] = 1 - math.Exp(-z)
	}
}

// Axpy computes y += alpha*x in place. It panics if lengths differ. The body
// is unrolled 4-wide; per-element results are unchanged (no reduction).
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: Axpy length mismatch")
	}
	n := len(x)
	i := 0
	for ; i <= n-4; i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

// Norm2Sq returns the squared Euclidean norm ‖x‖². Unrolled 4-wide like Dot,
// with the same fixed accumulator-combine order.
func Norm2Sq(x []float64) float64 {
	var s0, s1, s2, s3 float64
	n := len(x)
	i := 0
	for ; i <= n-4; i += 4 {
		s0 += x[i] * x[i]
		s1 += x[i+1] * x[i+1]
		s2 += x[i+2] * x[i+2]
		s3 += x[i+3] * x[i+3]
	}
	s := (s0 + s2) + (s1 + s3)
	for ; i < n; i++ {
		s += x[i] * x[i]
	}
	return s
}

// Norm2 returns the Euclidean norm ‖x‖.
func Norm2(x []float64) float64 { return math.Sqrt(Norm2Sq(x)) }

// MaxAbsDiff returns max_i |a_i - b_i|, a convergence measure for
// alternating solvers. It panics if lengths differ.
func MaxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: MaxAbsDiff length mismatch")
	}
	var m float64
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > m {
			m = d
		}
	}
	return m
}

// Mat is a dense row-major matrix. It is the working type for the K×K
// systems in wALS; K is small (tens to hundreds), so a flat slice suffices.
type Mat struct {
	RowsN, ColsN int
	Data         []float64 // len RowsN*ColsN, row-major
}

// NewMat allocates a zeroed RowsN×ColsN matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Mat{RowsN: rows, ColsN: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.ColsN+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.ColsN+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.ColsN : (i+1)*m.ColsN] }

// SymRankKUpdate accumulates A += x xᵀ for a symmetric A (only requires A
// square with dim == len(x)). Both triangles are written so the matrix stays
// fully materialized for the Cholesky routine.
func SymRankKUpdate(a *Mat, x []float64) {
	n := len(x)
	if a.RowsN != n || a.ColsN != n {
		panic("linalg: SymRankKUpdate dimension mismatch")
	}
	for i := 0; i < n; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := a.Row(i)
		for j := 0; j < n; j++ {
			row[j] += xi * x[j]
		}
	}
}

// AddDiag adds v to every diagonal element of the square matrix a.
func AddDiag(a *Mat, v float64) {
	if a.RowsN != a.ColsN {
		panic("linalg: AddDiag on non-square matrix")
	}
	for i := 0; i < a.RowsN; i++ {
		a.Data[i*a.ColsN+i] += v
	}
}

// Cholesky factors the symmetric positive-definite matrix a in place into
// its lower-triangular factor L with a = L Lᵀ. Only the lower triangle of
// the result is meaningful. It returns an error if a is not positive
// definite (within floating-point tolerance).
func Cholesky(a *Mat) error {
	if a.RowsN != a.ColsN {
		return fmt.Errorf("linalg: Cholesky on non-square %dx%d matrix", a.RowsN, a.ColsN)
	}
	n := a.RowsN
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			ljk := a.At(j, k)
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("linalg: matrix not positive definite at pivot %d (d=%g)", j, d)
		}
		ljj := math.Sqrt(d)
		a.Set(j, j, ljj)
		inv := 1 / ljj
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= a.At(i, k) * a.At(j, k)
			}
			a.Set(i, j, s*inv)
		}
	}
	return nil
}

// CholeskySolve solves L Lᵀ x = b in place in b, given the Cholesky factor L
// produced by Cholesky (lower triangle of l).
func CholeskySolve(l *Mat, b []float64) {
	n := l.RowsN
	if len(b) != n {
		panic("linalg: CholeskySolve dimension mismatch")
	}
	// Forward substitution: L y = b.
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * b[k]
		}
		b[i] = s / row[i]
	}
	// Back substitution: Lᵀ x = y.
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * b[k]
		}
		b[i] = s / l.At(i, i)
	}
}

// SolveSPD solves the symmetric positive-definite system a x = b, returning
// the solution in b and destroying a. It wraps Cholesky and CholeskySolve.
func SolveSPD(a *Mat, b []float64) error {
	if err := Cholesky(a); err != nil {
		return err
	}
	CholeskySolve(a, b)
	return nil
}

// MatVec computes dst = a · x. It panics on dimension mismatch.
func MatVec(dst []float64, a *Mat, x []float64) {
	if len(x) != a.ColsN || len(dst) != a.RowsN {
		panic("linalg: MatVec dimension mismatch")
	}
	for i := 0; i < a.RowsN; i++ {
		dst[i] = Dot(a.Row(i), x)
	}
}
