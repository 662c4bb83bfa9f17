package linalg

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v", got)
	}
}

// TestUnrolledKernelsMatchNaive covers every tail length of the 4-wide
// unrolled Dot/Axpy/Norm2Sq against the textbook single-accumulator loops.
func TestUnrolledKernelsMatchNaive(t *testing.T) {
	r := rng.New(31)
	for n := 0; n <= 19; n++ {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = r.Float64()*4 - 2
			b[i] = r.Float64()*4 - 2
		}
		var dot, nsq float64
		for i := range a {
			dot += a[i] * b[i]
			nsq += a[i] * a[i]
		}
		if got := Dot(a, b); !almostEq(got, dot, 1e-12*(1+math.Abs(dot))) {
			t.Fatalf("n=%d: Dot = %v, naive %v", n, got, dot)
		}
		if got := Norm2Sq(a); !almostEq(got, nsq, 1e-12*(1+nsq)) {
			t.Fatalf("n=%d: Norm2Sq = %v, naive %v", n, got, nsq)
		}
		y := append([]float64(nil), b...)
		Axpy(1.5, a, y)
		for i := range y {
			if want := b[i] + 1.5*a[i]; y[i] != want {
				t.Fatalf("n=%d: Axpy[%d] = %v, want %v", n, i, y[i], want)
			}
		}
	}
}

// TestDotDeterministic: the unrolled reduction combines its accumulators in
// a fixed order, so repeated calls are bit-identical.
func TestDotDeterministic(t *testing.T) {
	r := rng.New(77)
	a := make([]float64, 101)
	b := make([]float64, 101)
	for i := range a {
		a[i] = r.Float64()
		b[i] = r.Float64()
	}
	first := Dot(a, b)
	for i := 0; i < 10; i++ {
		if got := Dot(a, b); got != first {
			t.Fatal("Dot not deterministic across calls")
		}
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 1, 1}
	Axpy(2, []float64{1, 2, 3}, y)
	want := []float64{3, 5, 7}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy = %v, want %v", y, want)
		}
	}
}

func TestScaleAndNorms(t *testing.T) {
	x := []float64{3, 4}
	if Norm2(x) != 5 {
		t.Fatalf("Norm2 = %v", Norm2(x))
	}
	if Norm2Sq(x) != 25 {
		t.Fatalf("Norm2Sq = %v", Norm2Sq(x))
	}
}

func TestMaxAbsDiff(t *testing.T) {
	if got := MaxAbsDiff([]float64{1, 2}, []float64{1.5, 0}); got != 2 {
		t.Fatalf("MaxAbsDiff = %v", got)
	}
}

func TestMatBasics(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("Set/At broken")
	}
	row := m.Row(1)
	if len(row) != 3 || row[2] != 7 {
		t.Fatal("Row broken")
	}
	c := m.CloneMat()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("CloneMat aliases original")
	}
}

func TestSymRankKUpdate(t *testing.T) {
	a := NewMat(2, 2)
	SymRankKUpdate(a, []float64{1, 2})
	SymRankKUpdate(a, []float64{3, 0})
	// Expected: [1,2]ᵀ[1,2] + [3,0]ᵀ[3,0] = [[1+9, 2],[2, 4]]
	want := [][]float64{{10, 2}, {2, 4}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if a.At(i, j) != want[i][j] {
				t.Fatalf("A = %v, want %v", a.Data, want)
			}
		}
	}
}

func TestAddDiag(t *testing.T) {
	a := NewMat(3, 3)
	AddDiag(a, 2.5)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 2.5
			}
			if a.At(i, j) != want {
				t.Fatalf("AddDiag wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestCholeskyKnown(t *testing.T) {
	// A = [[4,2],[2,3]] has L = [[2,0],[1,sqrt(2)]].
	a := NewMat(2, 2)
	a.Set(0, 0, 4)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 3)
	if err := Cholesky(a); err != nil {
		t.Fatal(err)
	}
	if !almostEq(a.At(0, 0), 2, 1e-12) || !almostEq(a.At(1, 0), 1, 1e-12) ||
		!almostEq(a.At(1, 1), math.Sqrt(2), 1e-12) {
		t.Fatalf("Cholesky factor wrong: %v", a.Data)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewMat(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 1) // eigenvalues 3, -1
	if err := Cholesky(a); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
}

func TestSolveSPDRandom(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(12)
		// Build SPD A = B Bᵀ + I.
		b := NewMat(n, n)
		for i := range b.Data {
			b.Data[i] = r.NormFloat64()
		}
		a := NewMat(n, n)
		for i := 0; i < n; i++ {
			SymRankKUpdate(a, b.Row(i))
		}
		AddDiag(a, 1)
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = r.NormFloat64()
		}
		rhs := make([]float64, n)
		MatVec(rhs, a, xTrue)
		if err := SolveSPD(a.CloneMat(), rhs); err != nil {
			t.Fatal(err)
		}
		if MaxAbsDiff(rhs, xTrue) > 1e-8 {
			t.Fatalf("trial %d: solve error %v", trial, MaxAbsDiff(rhs, xTrue))
		}
	}
}

func TestMatVec(t *testing.T) {
	a := NewMat(2, 3)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	dst := make([]float64, 2)
	MatVec(dst, a, []float64{1, 1, 1})
	if dst[0] != 6 || dst[1] != 15 {
		t.Fatalf("MatVec = %v", dst)
	}
}

func BenchmarkDotK100(b *testing.B) {
	x := make([]float64, 100)
	y := make([]float64, 100)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(i) * 0.5
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = Dot(x, y)
	}
	_ = sink
}

func BenchmarkCholeskyK50(b *testing.B) {
	r := rng.New(7)
	n := 50
	base := NewMat(n, n)
	for i := 0; i < n; i++ {
		v := make([]float64, n)
		for j := range v {
			v[j] = r.NormFloat64()
		}
		SymRankKUpdate(base, v)
	}
	AddDiag(base, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := base.CloneMat()
		if err := Cholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

// CloneMat returns a deep copy of m.
func (m *Mat) CloneMat() *Mat {
	c := NewMat(m.RowsN, m.ColsN)
	copy(c.Data, m.Data)
	return c
}
