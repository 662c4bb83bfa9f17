package jsonfloat

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

// mismatch reports, when Append does not write f as json.Marshal does,
// what each wrote.
func mismatch(f float64) (got, want string, bad bool) {
	w, err := json.Marshal(f)
	if err != nil {
		panic(err)
	}
	g := Append([]byte("x"), f)[1:]
	return string(g), string(w), string(g) != string(w)
}

// hardCases are every class of value enumerated in full: each power of two
// a float64 has and each power of ten it reaches (1e-6 and 1e21, where
// encoding/json switches notation, among them), both with the neighbours
// on either side; the first 100,000 subnormals; −0 and MaxFloat64.
func hardCases() []float64 {
	var fs []float64
	near := func(f float64) {
		fs = append(fs, math.Nextafter(f, 0), f, math.Nextafter(f, math.Inf(1)))
	}
	for k := -1074; k <= 1023; k++ {
		near(math.Ldexp(1, k))
	}
	for k := -323; k <= 308; k++ {
		f, err := strconv.ParseFloat("1e"+strconv.Itoa(k), 64)
		if err != nil {
			panic(err)
		}
		near(f)
	}
	for b := range uint64(100_000) {
		fs = append(fs, math.Float64frombits(b+1))
	}
	return append(fs, math.Copysign(0, -1), math.MaxFloat64)
}

// drawn returns n values of each drawn class: random bit patterns, scores
// 1 − exp(−z) from 1e-11 to 1, float32 values widened, integers below 2^53
// of every magnitude and thousandths — half of each negated.
func drawn(r *rand.Rand, n int) []float64 {
	var fs []float64
	sign := func(f float64) float64 {
		if r.IntN(2) == 0 {
			return -f
		}
		return f
	}
	for range n {
		if f := math.Float64frombits(r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			fs = append(fs, f)
		}
		fs = append(fs, 1-math.Exp(-math.Exp(r.Float64()*30-25)))
		if f := float64(math.Float32frombits(r.Uint32())); !math.IsNaN(f) && !math.IsInf(f, 0) {
			fs = append(fs, f)
		}
		fs = append(fs, sign(float64(r.Int64N(1<<r.IntN(54)+1))), sign(float64(r.IntN(1_000_000))/1000))
	}
	return fs
}

// TestAppendMatchesEncodingJSON: on every value of the enumerated classes
// and 100,000 of each drawn one, Append writes json.Marshal's bytes.
func TestAppendMatchesEncodingJSON(t *testing.T) {
	fails := 0
	for _, f := range append(hardCases(), drawn(rand.New(rand.NewPCG(39, 1)), 100_000)...) {
		if got, want, bad := mismatch(f); bad {
			t.Errorf("%v (bits %#016x): wrote %s, encoding/json writes %s", f, math.Float64bits(f), got, want)
			if fails++; fails == 10 {
				t.FailNow()
			}
		}
	}
}

// FuzzAppend: for every finite float64, Append writes json.Marshal's
// bytes.
func FuzzAppend(f *testing.F) {
	for _, v := range []float64{0, 1, 5e-324, 1e-323, 9.99999e-7, 1e-6, 1e21, math.Nextafter(1e21, 0), 0.30000000000000004, math.MaxFloat64} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		v := math.Float64frombits(b)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		if got, want, bad := mismatch(v); bad {
			t.Fatalf("%v (bits %#016x): wrote %s, encoding/json writes %s", v, b, got, want)
		}
	})
}

// scores are 640 scores as the model computes them, 1 − exp(−z) for an
// affinity z ≥ 0.
func scores() []float64 {
	r := rand.New(rand.NewPCG(39, 2))
	fs := make([]float64, 640)
	for i := range fs {
		fs[i] = 1 - math.Exp(-r.ExpFloat64())
	}
	return fs
}

// TestAppendZeroAlloc: into a buffer with room, Append allocates nothing.
func TestAppendZeroAlloc(t *testing.T) {
	fs := append(scores(), 5e-324, -1e21, math.MaxFloat64, 123456789)
	buf := make([]byte, 0, 32)
	if n := testing.AllocsPerRun(100, func() {
		for _, f := range fs {
			buf = Append(buf[:0], f)
		}
	}); n != 0 {
		t.Errorf("%v allocations per %d scores, want 0", n, len(fs))
	}
}

// BenchmarkAppend: the cost of one score, appended into a buffer with room.
func BenchmarkAppend(b *testing.B) {
	fs := scores()
	buf := make([]byte, 0, 32)
	for b.Loop() {
		for _, f := range fs {
			buf = Append(buf[:0], f)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(fs)), "ns/score")
}
