package sparse

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestBuildBasic(t *testing.T) {
	b := NewBuilder(3, 4)
	b.Add(0, 1)
	b.Add(2, 3)
	b.Add(0, 0)
	m := b.Build()
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	if m.NNZ() != 3 {
		t.Fatalf("nnz = %d, want 3", m.NNZ())
	}
	if !m.Has(0, 0) || !m.Has(0, 1) || !m.Has(2, 3) {
		t.Fatal("missing expected positives")
	}
	if m.Has(1, 1) || m.Has(0, 2) {
		t.Fatal("unexpected positives")
	}
}

func TestBuildDeduplicates(t *testing.T) {
	b := NewBuilder(2, 2)
	for i := 0; i < 5; i++ {
		b.Add(1, 1)
	}
	m := b.Build()
	if m.NNZ() != 1 {
		t.Fatalf("nnz = %d after duplicate adds, want 1", m.NNZ())
	}
}

func TestRowSorted(t *testing.T) {
	b := NewBuilder(1, 10)
	for _, c := range []int{7, 3, 9, 1, 5} {
		b.Add(0, c)
	}
	m := b.Build()
	row := m.Row(0)
	for i := 1; i < len(row); i++ {
		if row[i-1] >= row[i] {
			t.Fatalf("row not sorted/unique: %v", row)
		}
	}
}

func TestAddPanicsOutOfRange(t *testing.T) {
	for _, tc := range [][2]int{{-1, 0}, {0, -1}, {3, 0}, {0, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d,%d) did not panic", tc[0], tc[1])
				}
			}()
			NewBuilder(3, 4).Add(tc[0], tc[1])
		}()
	}
}

func TestEmptyMatrix(t *testing.T) {
	m := NewBuilder(0, 0).Build()
	if m.NNZ() != 0 || m.Density() != 0 {
		t.Fatal("empty matrix not empty")
	}
	m2 := NewBuilder(5, 5).Build()
	if m2.NNZ() != 0 {
		t.Fatal("blank matrix has entries")
	}
	for r := 0; r < 5; r++ {
		if len(m2.Row(r)) != 0 {
			t.Fatal("blank row not empty")
		}
	}
	tr := m2.Transpose()
	if tr.Rows() != 5 || tr.Cols() != 5 || tr.NNZ() != 0 {
		t.Fatal("blank transpose wrong")
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rng.New(1)
	m := randomMatrix(r, 20, 30, 100)
	tt := m.Transpose().Transpose()
	if !m.Equal(tt) {
		t.Fatal("transpose of transpose differs from original")
	}
	// Cached: transpose of transpose must be the same object.
	if m.Transpose().Transpose() != m {
		t.Fatal("transpose caching broken")
	}
}

// TestTransposeConcurrentFirstUse: goroutines racing to a fresh matrix's
// first Transpose (and to Col, which calls it) all get one transpose, whose
// own transpose is the matrix — under -race, with no data race between the
// build and the readers.
func TestTransposeConcurrentFirstUse(t *testing.T) {
	r := rng.New(4)
	for round := 0; round < 20; round++ {
		m := randomMatrix(r, 40, 30, 300)
		const n = 8
		got := make([]*Matrix, n)
		var ready, done sync.WaitGroup
		ready.Add(n)
		done.Add(n)
		gate := make(chan struct{})
		for g := range n {
			go func() {
				defer done.Done()
				ready.Done()
				<-gate
				if g%2 == 0 {
					got[g] = m.Transpose()
				} else {
					_ = m.Col(g)
					got[g] = m.Transpose()
				}
				if got[g].Transpose() != m {
					t.Error("the transpose's transpose is not the matrix")
				}
			}()
		}
		ready.Wait()
		close(gate)
		done.Wait()
		for g := range got {
			if got[g] != got[0] {
				t.Fatalf("round %d: goroutine %d got a different transpose than goroutine 0", round, g)
			}
		}
		if want := FromDense(m.Dense()).Transpose(); !got[0].Equal(want) {
			t.Fatalf("round %d: the published transpose is wrong", round)
		}
	}
}

func TestTransposeCorrect(t *testing.T) {
	r := rng.New(2)
	f := func(seed uint16) bool {
		rr := rng.New(uint64(seed) + 1)
		m := randomMatrix(rr, 1+rr.Intn(15), 1+rr.Intn(15), 30)
		tr := m.Transpose()
		if tr.Rows() != m.Cols() || tr.Cols() != m.Rows() || tr.NNZ() != m.NNZ() {
			return false
		}
		ok := true
		m.Each(func(row, col int) {
			if !tr.Has(col, row) {
				ok = false
			}
		})
		tr.Each(func(row, col int) {
			if !m.Has(col, row) {
				ok = false
			}
		})
		return ok
	}
	_ = r
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDenseRoundTrip(t *testing.T) {
	f := func(seed uint16) bool {
		rr := rng.New(uint64(seed) + 7)
		m := randomMatrix(rr, 1+rr.Intn(10), 1+rr.Intn(10), 20)
		return m.Equal(FromDense(m.Dense()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNNZConsistency(t *testing.T) {
	r := rng.New(3)
	m := randomMatrix(r, 25, 17, 120)
	sumRows, sumCols := 0, 0
	for i := 0; i < m.Rows(); i++ {
		sumRows += m.RowNNZ(i)
	}
	for j := 0; j < m.Cols(); j++ {
		sumCols += m.ColNNZ(j)
	}
	if sumRows != m.NNZ() || sumCols != m.NNZ() {
		t.Fatalf("row-sum=%d col-sum=%d nnz=%d", sumRows, sumCols, m.NNZ())
	}
}

func TestCoordsAndSelectEntries(t *testing.T) {
	r := rng.New(4)
	m := randomMatrix(r, 10, 10, 30)
	rows, cols := m.Coords()
	if len(rows) != m.NNZ() || len(cols) != m.NNZ() {
		t.Fatal("coords length mismatch")
	}
	all := make([]int, m.NNZ())
	for i := range all {
		all[i] = i
	}
	if !m.SelectEntries(all).Equal(m) {
		t.Fatal("SelectEntries(all) != original")
	}
	half := all[:len(all)/2]
	sub := m.SelectEntries(half)
	if sub.NNZ() != len(half) {
		t.Fatalf("subset nnz = %d, want %d", sub.NNZ(), len(half))
	}
	for _, k := range half {
		if !sub.Has(int(rows[k]), int(cols[k])) {
			t.Fatal("subset missing selected entry")
		}
	}
}

func TestDensity(t *testing.T) {
	b := NewBuilder(4, 5)
	b.Add(0, 0)
	b.Add(1, 1)
	m := b.Build()
	want := 2.0 / 20.0
	if m.Density() != want {
		t.Fatalf("density = %v, want %v", m.Density(), want)
	}
}

func TestEqual(t *testing.T) {
	a := FromDense([][]bool{{true, false}, {false, true}})
	b := FromDense([][]bool{{true, false}, {false, true}})
	c := FromDense([][]bool{{true, true}, {false, true}})
	if !a.Equal(b) {
		t.Fatal("identical matrices not equal")
	}
	if a.Equal(c) {
		t.Fatal("different matrices equal")
	}
	d := NewBuilder(2, 3).Build()
	if a.Equal(d) {
		t.Fatal("different shapes equal")
	}
}

func TestString(t *testing.T) {
	m := FromDense([][]bool{{true, false}})
	want := "sparse.Matrix(1x2, nnz=1)"
	if m.String() != want {
		t.Fatalf("String() = %q, want %q", m.String(), want)
	}
}

func TestNewBuilderPanics(t *testing.T) {
	over := math.MaxInt32
	over++
	for _, dims := range [][2]int{{-1, 2}, {2, -1}, {over, 2}, {2, over}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBuilder(%d, %d) did not panic", dims[0], dims[1])
				}
			}()
			NewBuilder(dims[0], dims[1])
		}()
	}
}

func TestFromDenseRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged input")
		}
	}()
	FromDense([][]bool{{true}, {true, false}})
}

// randomMatrix builds a rows x cols matrix with up to n random positives.
func randomMatrix(r *rng.RNG, rows, cols, n int) *Matrix {
	b := NewBuilder(rows, cols)
	for i := 0; i < n; i++ {
		b.Add(r.Intn(rows), r.Intn(cols))
	}
	return b.Build()
}

func BenchmarkBuild(b *testing.B) {
	r := rng.New(1)
	coordsR := make([]int, 100000)
	coordsC := make([]int, 100000)
	for i := range coordsR {
		coordsR[i] = r.Intn(5000)
		coordsC[i] = r.Intn(2000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd := NewBuilder(5000, 2000)
		for j := range coordsR {
			bd.Add(coordsR[j], coordsC[j])
		}
		_ = bd.Build()
	}
}

func BenchmarkHas(b *testing.B) {
	r := rng.New(2)
	m := randomMatrix(r, 1000, 1000, 50000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Has(i%1000, (i*7)%1000)
	}
}

func BenchmarkTranspose(b *testing.B) {
	r := rng.New(3)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := randomMatrix(r, 2000, 1000, 50000)
		b.StartTimer()
		_ = m.Transpose()
	}
}

func TestPadTo(t *testing.T) {
	b := NewBuilder(3, 4)
	b.Add(0, 1)
	b.Add(2, 3)
	m := b.Build()

	p := m.PadTo(5, 6)
	if p.Rows() != 5 || p.Cols() != 6 {
		t.Fatalf("shape = %dx%d, want 5x6", p.Rows(), p.Cols())
	}
	if p.NNZ() != m.NNZ() {
		t.Fatalf("nnz = %d, want %d", p.NNZ(), m.NNZ())
	}
	if !p.Has(0, 1) || !p.Has(2, 3) {
		t.Fatal("positives lost by padding")
	}
	for r := 3; r < 5; r++ {
		if p.RowNNZ(r) != 0 {
			t.Fatalf("padded row %d has %d positives", r, p.RowNNZ(r))
		}
	}
	// Transpose of the padded view covers the padded columns.
	if got := p.Transpose().Rows(); got != 6 {
		t.Fatalf("transpose rows = %d, want 6", got)
	}
	if p.ColNNZ(5) != 0 {
		t.Fatal("padded column has positives")
	}
	// Same shape returns the receiver; shrinking panics.
	if m.PadTo(3, 4) != m {
		t.Fatal("PadTo(same shape) did not return the receiver")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PadTo shrink did not panic")
		}
	}()
	m.PadTo(2, 4)
}

// Dense renders the matrix as a dense [][]bool, the tests' oracle view.
func (m *Matrix) Dense() [][]bool {
	d := make([][]bool, m.rows)
	for r := range d {
		d[r] = make([]bool, m.cols)
		for _, c := range m.Row(r) {
			d[r][c] = true
		}
	}
	return d
}
