// Package sparse implements sparse binary matrices for one-class
// collaborative filtering.
//
// The rating matrix R of the paper has r_ui ∈ {0, 1}, where 1 marks a
// positive example (a purchase) and 0 marks an unknown. Only the positives
// are stored. The central type is Matrix, a compressed sparse row (CSR)
// structure with an optional column-compressed view (the transpose), which
// the OCuLaR trainer needs because the block coordinate descent sweeps once
// over items (columns) and once over users (rows) per iteration.
//
// Matrices are immutable after construction; build them through a Builder.
// Immutability lets trainers, evaluators, and grid-search workers share one
// matrix across goroutines without locks.
package sparse

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Builder accumulates (row, col) coordinates and produces an immutable
// Matrix. Duplicate coordinates are merged. The zero value is not usable;
// construct with NewBuilder.
type Builder struct {
	rows, cols int
	entries    []coord
}

type coord struct{ r, c int32 }

// NewBuilder returns a builder for a matrix with the given dimensions.
// It panics if either dimension is negative.
func NewBuilder(rows, cols int) *Builder {
	if rows < 0 || cols < 0 {
		panic("sparse: negative dimension")
	}
	return &Builder{rows: rows, cols: cols}
}

// Add records a positive example at (row, col). It panics if the coordinate
// is out of range.
func (b *Builder) Add(row, col int) {
	if row < 0 || row >= b.rows || col < 0 || col >= b.cols {
		panic(fmt.Sprintf("sparse: coordinate (%d,%d) out of range %dx%d", row, col, b.rows, b.cols))
	}
	b.entries = append(b.entries, coord{int32(row), int32(col)})
}

// Build sorts and deduplicates the accumulated coordinates and returns the
// finished matrix. The builder may be reused afterwards; its entries are
// retained.
func (b *Builder) Build() *Matrix {
	es := make([]coord, len(b.entries))
	copy(es, b.entries)
	sort.Slice(es, func(i, j int) bool {
		if es[i].r != es[j].r {
			return es[i].r < es[j].r
		}
		return es[i].c < es[j].c
	})
	// Deduplicate in place.
	dst := 0
	for i := range es {
		if i > 0 && es[i] == es[i-1] {
			continue
		}
		es[dst] = es[i]
		dst++
	}
	es = es[:dst]

	m := &Matrix{
		rows:   b.rows,
		cols:   b.cols,
		rowPtr: make([]int32, b.rows+1),
		colIdx: make([]int32, len(es)),
	}
	for i, e := range es {
		m.rowPtr[e.r+1]++
		m.colIdx[i] = e.c
	}
	for r := 0; r < b.rows; r++ {
		m.rowPtr[r+1] += m.rowPtr[r]
	}
	return m
}

// Matrix is an immutable sparse binary matrix in CSR form. All methods are
// safe for concurrent use.
type Matrix struct {
	rows, cols int
	rowPtr     []int32 // len rows+1; row r occupies colIdx[rowPtr[r]:rowPtr[r+1]]
	colIdx     []int32 // sorted within each row

	transposed atomic.Pointer[Matrix] // published by the first Transpose; nil until then
}

// Rows returns the number of rows (users).
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns (items).
func (m *Matrix) Cols() int { return m.cols }

// NNZ returns the number of positive examples stored.
func (m *Matrix) NNZ() int { return len(m.colIdx) }

// Density returns NNZ / (rows*cols), or 0 for an empty shape.
func (m *Matrix) Density() float64 {
	if m.rows == 0 || m.cols == 0 {
		return 0
	}
	return float64(m.NNZ()) / (float64(m.rows) * float64(m.cols))
}

// Row returns the sorted column indices of the positives in row r. The
// returned slice aliases internal storage and must not be modified.
func (m *Matrix) Row(r int) []int32 {
	return m.colIdx[m.rowPtr[r]:m.rowPtr[r+1]]
}

// RowNNZ returns the number of positives in row r.
func (m *Matrix) RowNNZ(r int) int {
	return int(m.rowPtr[r+1] - m.rowPtr[r])
}

// Has reports whether (r, c) is a positive example, in O(log RowNNZ(r)).
func (m *Matrix) Has(r, c int) bool {
	row := m.Row(r)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= int32(c) })
	return i < len(row) && row[i] == int32(c)
}

// Transpose returns the column-major view of m: a Matrix whose row j lists
// the rows of m that have a positive in column j. The result is cached, so
// repeated calls are cheap, and its own Transpose is m. The cached
// transpose shares no mutable state.
//
// Concurrent first calls may each build a transpose; the first to publish
// wins, and every caller gets that one.
func (m *Matrix) Transpose() *Matrix {
	if t := m.transposed.Load(); t != nil {
		return t
	}
	t := &Matrix{
		rows:   m.cols,
		cols:   m.rows,
		rowPtr: make([]int32, m.cols+1),
		colIdx: make([]int32, len(m.colIdx)),
	}
	for _, c := range m.colIdx {
		t.rowPtr[c+1]++
	}
	for c := 0; c < m.cols; c++ {
		t.rowPtr[c+1] += t.rowPtr[c]
	}
	next := make([]int32, m.cols)
	copy(next, t.rowPtr[:m.cols])
	for r := 0; r < m.rows; r++ {
		for _, c := range m.Row(r) {
			t.colIdx[next[c]] = int32(r)
			next[c]++
		}
	}
	// The back-pointer is set before t is published, so no reader can see
	// a transpose without it.
	t.transposed.Store(m)
	if !m.transposed.CompareAndSwap(nil, t) {
		return m.transposed.Load()
	}
	return t
}

// Each calls fn for every positive example in row-major order.
func (m *Matrix) Each(fn func(r, c int)) {
	for r := 0; r < m.rows; r++ {
		for _, c := range m.Row(r) {
			fn(r, int(c))
		}
	}
}

// Coords returns all positive coordinates in row-major order as parallel
// slices. The slices are freshly allocated.
func (m *Matrix) Coords() (rows, cols []int32) {
	rows = make([]int32, m.NNZ())
	cols = make([]int32, m.NNZ())
	i := 0
	m.Each(func(r, c int) {
		rows[i] = int32(r)
		cols[i] = int32(c)
		i++
	})
	return rows, cols
}

// SelectEntries returns a new matrix of the same shape containing only the
// positives whose row-major index appears in keep. Indices in keep refer to
// the ordering of Coords. Out-of-range indices cause a panic.
func (m *Matrix) SelectEntries(keep []int) *Matrix {
	rows, cols := m.Coords()
	b := NewBuilder(m.rows, m.cols)
	for _, k := range keep {
		b.Add(int(rows[k]), int(cols[k]))
	}
	return b.Build()
}

// ColNNZ returns the number of positives in column c. It materializes the
// transpose on first use.
func (m *Matrix) ColNNZ(c int) int {
	return m.Transpose().RowNNZ(c)
}

// Col returns the sorted row indices of positives in column c. The returned
// slice aliases the transpose's storage and must not be modified.
func (m *Matrix) Col(c int) []int32 {
	return m.Transpose().Row(c)
}

// PadTo returns a view of m extended to rows × cols: the same positives,
// with the added rows empty and the added columns never occupied. The
// result shares m's column-index storage (both are immutable), so padding
// costs O(rows), not O(nnz) — the serving layer pads its exclusion matrix
// up to a freshly retrained, grown model's shape on every reload. PadTo
// panics if either dimension shrinks; it returns m itself when the shape
// already matches.
func (m *Matrix) PadTo(rows, cols int) *Matrix {
	if rows < m.rows || cols < m.cols {
		panic(fmt.Sprintf("sparse: PadTo(%d,%d) shrinks %dx%d", rows, cols, m.rows, m.cols))
	}
	if rows == m.rows && cols == m.cols {
		return m
	}
	rowPtr := make([]int32, rows+1)
	copy(rowPtr, m.rowPtr)
	nnz := m.rowPtr[m.rows]
	for r := m.rows; r < rows; r++ {
		rowPtr[r+1] = nnz
	}
	return &Matrix{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: m.colIdx}
}

// Equal reports whether two matrices have identical shape and positives.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols || len(m.colIdx) != len(o.colIdx) {
		return false
	}
	for i := range m.rowPtr {
		if m.rowPtr[i] != o.rowPtr[i] {
			return false
		}
	}
	for i := range m.colIdx {
		if m.colIdx[i] != o.colIdx[i] {
			return false
		}
	}
	return true
}

// String returns a compact description like "sparse.Matrix(100x50, nnz=420)".
func (m *Matrix) String() string {
	return fmt.Sprintf("sparse.Matrix(%dx%d, nnz=%d)", m.rows, m.cols, m.NNZ())
}

// Dense renders the matrix as a dense [][]bool, for tests and small
// visualizations only.
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

// FromDense builds a matrix from a dense boolean grid. All rows must have
// equal length; it panics otherwise.
func FromDense(d [][]bool) *Matrix {
	rows := len(d)
	cols := 0
	if rows > 0 {
		cols = len(d[0])
	}
	b := NewBuilder(rows, cols)
	for r, rowVals := range d {
		if len(rowVals) != cols {
			panic("sparse: ragged dense input")
		}
		for c, v := range rowVals {
			if v {
				b.Add(r, c)
			}
		}
	}
	return b.Build()
}
