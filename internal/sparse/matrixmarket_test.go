package sparse

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestMatrixMarketRoundTrip(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed) + 55)
		m := randomMatrix(r, 1+r.Intn(20), 1+r.Intn(20), 60)
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, m); err != nil {
			return false
		}
		got, err := ReadMatrixMarket(&buf)
		if err != nil {
			return false
		}
		return got.Equal(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixMarketReadPattern(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate pattern general
% a comment
3 4 2
1 1
3 4
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 3 || m.Cols() != 4 || m.NNZ() != 2 {
		t.Fatalf("shape %v", m)
	}
	if !m.Has(0, 0) || !m.Has(2, 3) {
		t.Fatal("entries wrong")
	}
}

func TestMatrixMarketReadRealBinarizes(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real general
2 2 3
1 1 0.5
1 2 0
2 2 -3.5
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 { // the explicit zero is dropped
		t.Fatalf("nnz = %d, want 2", m.NNZ())
	}
	if !m.Has(0, 0) || !m.Has(1, 1) || m.Has(0, 1) {
		t.Fatal("binarization wrong")
	}
}

func TestMatrixMarketReadSymmetric(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate pattern symmetric
3 3 2
2 1
3 3
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Has(1, 0) || !m.Has(0, 1) {
		t.Fatal("symmetric mirroring missing")
	}
	if m.NNZ() != 3 { // (1,0), (0,1), (2,2)
		t.Fatalf("nnz = %d, want 3", m.NNZ())
	}
}

func TestMatrixMarketReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"bad header":     "not a matrix\n1 1 0\n",
		"bad value type": "%%MatrixMarket matrix coordinate complex general\n1 1 0\n",
		"bad symmetry":   "%%MatrixMarket matrix coordinate pattern skew\n1 1 0\n",
		"no size":        "%%MatrixMarket matrix coordinate pattern general\n% only comments\n",
		"bad size":       "%%MatrixMarket matrix coordinate pattern general\nx y z\n",
		"nonsquare sym":  "%%MatrixMarket matrix coordinate pattern symmetric\n2 3 0\n",
		"out of range":   "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n3 1\n",
		"zero index":     "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n0 1\n",
		"short entry":    "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
		"bad row index":  "%%MatrixMarket matrix coordinate pattern general\n2 2 1\nx 1\n",
		"bad value":      "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 notanumber\n",
		"count mismatch": "%%MatrixMarket matrix coordinate pattern general\n2 2 5\n1 1\n",
		"negative size":  "%%MatrixMarket matrix coordinate pattern general\n-1 2 0\n",
		// ids are int32: a wider dimension must not wrap to negative ids,
		// nor allocate its row offsets before it is refused.
		"cols over int32": "%%MatrixMarket matrix coordinate pattern general\n3 2147483649 1\n1 2147483649\n",
		"rows over int32": "%%MatrixMarket matrix coordinate pattern general\n2147483649 3 1\n2147483649 1\n",
	}
	for name, src := range cases {
		if _, err := ReadMatrixMarket(strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestMatrixMarketWriteFormat(t *testing.T) {
	m := FromDense([][]bool{{true, false}, {false, true}})
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, m); err != nil {
		t.Fatal(err)
	}
	want := "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n"
	if buf.String() != want {
		t.Fatalf("output:\n%q\nwant:\n%q", buf.String(), want)
	}
}

// TestMatrixMarketFuzzNeverPanics feeds structured garbage to the parser;
// it must error or succeed, never panic.
func TestMatrixMarketFuzzNeverPanics(t *testing.T) {
	tokens := []string{
		"%%MatrixMarket matrix coordinate pattern general\n",
		"%%MatrixMarket matrix coordinate real symmetric\n",
		"% comment\n", "3 3 1\n", "1 1\n", "1 1 0.5\n", "-1 2\n",
		"999 999\n", "x y\n", "\n", "0 0 0\n", "2 2\n",
	}
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed) + 31337)
		var b bytes.Buffer
		for n := 0; n < r.Intn(12); n++ {
			b.WriteString(tokens[r.Intn(len(tokens))])
		}
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("panic on input %q: %v", b.String(), p)
			}
		}()
		_, _ = ReadMatrixMarket(&b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
