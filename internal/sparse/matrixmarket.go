package sparse

// MatrixMarket coordinate I/O. The pattern variant is the natural
// interchange format for one-class matrices (only coordinates, no values),
// and most public sparse datasets ship in this format, so the repository
// can exchange data with standard tooling.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

const mmHeader = "%%MatrixMarket matrix coordinate"

// WriteMatrixMarket serializes m in MatrixMarket "coordinate pattern
// general" format with 1-based indices.
func WriteMatrixMarket(w io.Writer, m *Matrix) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%s pattern general\n%d %d %d\n", mmHeader, m.Rows(), m.Cols(), m.NNZ()); err != nil {
		return err
	}
	var err error
	m.Each(func(r, c int) {
		if err == nil {
			_, err = fmt.Fprintf(bw, "%d %d\n", r+1, c+1)
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReadMatrixMarket parses a MatrixMarket coordinate stream. Pattern
// matrices yield their coordinates directly; integer and real matrices
// treat any non-zero value as a positive example (the binarization
// convention of one-class data). The "symmetric" qualifier mirrors entries
// across the diagonal.
func ReadMatrixMarket(r io.Reader) (*Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	if !sc.Scan() {
		return nil, fmt.Errorf("sparse: empty MatrixMarket stream")
	}
	header := strings.ToLower(strings.TrimSpace(sc.Text()))
	if !strings.HasPrefix(header, strings.ToLower(mmHeader)) {
		return nil, fmt.Errorf("sparse: bad MatrixMarket header %q", sc.Text())
	}
	fields := strings.Fields(header)
	if len(fields) < 5 {
		return nil, fmt.Errorf("sparse: short MatrixMarket header %q", sc.Text())
	}
	valueType := fields[3] // pattern | integer | real
	symmetry := fields[4]  // general | symmetric
	switch valueType {
	case "pattern", "integer", "real":
	default:
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket value type %q", valueType)
	}
	switch symmetry {
	case "general", "symmetric":
	default:
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket symmetry %q", symmetry)
	}
	hasValue := valueType != "pattern"

	// Skip comments, read the size line.
	var rows, cols, nnz int
	sized := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscanf(line, "%d %d %d", &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("sparse: bad MatrixMarket size line %q: %v", line, err)
		}
		sized = true
		break
	}
	if !sized {
		return nil, fmt.Errorf("sparse: missing MatrixMarket size line")
	}
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("sparse: negative MatrixMarket dimensions %dx%d nnz=%d", rows, cols, nnz)
	}
	if rows > math.MaxInt32 || cols > math.MaxInt32 {
		return nil, fmt.Errorf("sparse: MatrixMarket dimensions %dx%d exceed the int32 ids a Matrix stores", rows, cols)
	}
	if symmetry == "symmetric" && rows != cols {
		return nil, fmt.Errorf("sparse: symmetric MatrixMarket matrix must be square, got %dx%d", rows, cols)
	}

	b := NewBuilder(rows, cols)
	read := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		parts := strings.Fields(line)
		want := 2
		if hasValue {
			want = 3
		}
		if len(parts) < want {
			return nil, fmt.Errorf("sparse: MatrixMarket entry %q has %d fields, want %d", line, len(parts), want)
		}
		ri, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad row index %q: %v", parts[0], err)
		}
		ci, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad column index %q: %v", parts[1], err)
		}
		if ri < 1 || ri > rows || ci < 1 || ci > cols {
			return nil, fmt.Errorf("sparse: MatrixMarket entry (%d,%d) outside %dx%d", ri, ci, rows, cols)
		}
		if hasValue {
			v, err := strconv.ParseFloat(parts[2], 64)
			if err != nil {
				return nil, fmt.Errorf("sparse: bad value %q: %v", parts[2], err)
			}
			if v == 0 {
				read++
				continue // explicit zero: not a positive example
			}
		}
		b.Add(ri-1, ci-1)
		if symmetry == "symmetric" && ri != ci {
			b.Add(ci-1, ri-1)
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sparse: reading MatrixMarket entries: %w", err)
	}
	if read != nnz {
		return nil, fmt.Errorf("sparse: MatrixMarket declared %d entries but stream held %d", nnz, read)
	}
	return b.Build(), nil
}
