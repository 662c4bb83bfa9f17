package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// writeV2File saves m's v2 bytes under dir and returns the path.
func writeV2File(t testing.TB, dir, name string, m *Model, f32 bool) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, v2Bytes(t, m, f32), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenMappedModelRangeRejectsCorruption is the corruption table for
// the partial-map open: out-of-bounds and empty item ranges, offset
// tables whose entries are not the canonical page-aligned layout, files
// truncated so the requested slice would cross the section end, and the
// header corruptions the full-map open rejects too.
func TestOpenMappedModelRangeRejectsCorruption(t *testing.T) {
	model := trainedModel(t, true)
	good := v2Bytes(t, model, true)
	items := model.NumItems()
	dir := t.TempDir()

	write := func(name string, data []byte) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	goodPath := write("good", good)
	mutate := func(off int, b byte) []byte {
		out := append([]byte(nil), good...)
		out[off] = b
		return out
	}

	cases := []struct {
		name   string
		path   string
		lo, hi int
	}{
		// Range out of bounds against a pristine file.
		{"negative-lo", goodPath, -1, items},
		{"hi-past-catalogue", goodPath, 0, items + 1},
		{"empty-range", goodPath, 3, 3},
		{"inverted-range", goodPath, 5, 2},
		{"both-past-catalogue", goodPath, items + 4, items + 8},
		// Header corruption: the full header is validated even though only
		// a slice is mapped.
		{"bad-magic", write("bad-magic", mutate(7, 'X')), 0, items},
		// Offset not page-aligned: entry 1 (the item section the range
		// slices) nudged off the canonical v2Align boundary.
		{"unaligned-item-offset", write("unaligned-offset", mutate(48, 1)), 0, items},
		{"bad-flags", write("bad-flags", mutate(32, 0x80)), 0, items},
		{"reserved", write("reserved", mutate(120, 1)), 0, items},
		// Slice crossing the section end: the header promises items the
		// truncated file no longer holds, so mapping the last rows would
		// run past EOF. The size cross-check rejects it up front.
		{"truncated-tail", write("truncated", good[:len(good)-16]), items - 1, items},
		{"too-small", write("tiny", good[:64]), 0, 1},
	}
	for _, tc := range cases {
		if rr, err := OpenMappedModelRange(tc.path, tc.lo, tc.hi); err == nil {
			rr.Close()
			t.Errorf("%s: corruption accepted for range [%d,%d)", tc.name, tc.lo, tc.hi)
		}
	}

	// The pristine file opens for every valid range shape.
	for _, r := range [][2]int{{0, items}, {0, 1}, {items - 1, items}, {items / 3, 2 * items / 3}} {
		rr, err := OpenMappedModelRange(goodPath, r[0], r[1])
		if err != nil {
			t.Fatalf("pristine file rejected for range %v: %v", r, err)
		}
		if rr.ItemLo() != r[0] || rr.ItemHi() != r[1] || rr.Len() != r[1]-r[0] {
			t.Fatalf("range accessors disagree: got [%d,%d) len %d, want %v", rr.ItemLo(), rr.ItemHi(), rr.Len(), r)
		}
		rr.Close()
	}
}

// TestMappedModelRangeRowsByteIdentical is the property test of the
// sliced sections: for every item of every sub-range, the range-mapped
// float64 and float32 factor rows (and biases) are byte-identical to the
// full map's rows, and scoring through the range is bit-identical to the
// corresponding entries of full-map scoring.
func TestMappedModelRangeRowsByteIdentical(t *testing.T) {
	for _, variant := range []struct {
		bias, f32 bool
	}{{false, false}, {true, false}, {false, true}, {true, true}} {
		t.Run(fmt.Sprintf("bias=%v_f32=%v", variant.bias, variant.f32), func(t *testing.T) {
			model := trainedModel(t, variant.bias)
			dir := t.TempDir()
			path := writeV2File(t, dir, "model.bin", model, variant.f32)

			full, err := OpenMappedModel(path)
			if err != nil {
				t.Fatal(err)
			}
			defer full.Close()
			items, users, k := full.NumItems(), full.NumUsers(), full.K()

			ranges := [][2]int{{0, items}, {0, 1}, {items - 1, items}, {1, items / 2}, {items / 2, items}, {3, 11}}
			for _, r := range ranges {
				lo, hi := r[0], r[1]
				rr, err := OpenMappedModelRange(path, lo, hi)
				if err != nil {
					t.Fatalf("range [%d,%d): %v", lo, hi, err)
				}
				// A range maps its float64 sections only: fu and fi, and
				// bu and bi with bias — never a float32 one.
				want := 2
				if variant.bias {
					want = 4
				}
				if rr.HasBias() != variant.bias || len(rr.windows) != want {
					t.Fatalf("range [%d,%d): bias %v with %d windows, want %v with %d",
						lo, hi, rr.HasBias(), len(rr.windows), variant.bias, want)
				}

				// Every item row of the slice, byte for byte.
				for i := lo; i < hi; i++ {
					wantRow := full.Model().ItemFactor(i)
					gotRow := rr.ItemFactorF64(i)
					for c := 0; c < k; c++ {
						if math.Float64bits(gotRow[c]) != math.Float64bits(wantRow[c]) {
							t.Fatalf("range [%d,%d) item %d coord %d: f64 %x != %x",
								lo, hi, i, c, math.Float64bits(gotRow[c]), math.Float64bits(wantRow[c]))
						}
					}
					if variant.f32 {
						got32 := full.ItemFactorF32(i)
						for c := 0; c < k; c++ {
							if math.Float32bits(got32[c]) != math.Float32bits(float32(wantRow[c])) {
								t.Fatalf("range [%d,%d) item %d coord %d: f32 row differs", lo, hi, i, c)
							}
						}
					}
					if variant.bias {
						if math.Float64bits(rr.ItemBiasF64(i)) != math.Float64bits(full.Model().ItemBias(i)) {
							t.Fatalf("range [%d,%d) item %d: bias differs", lo, hi, i)
						}
					}
				}
				// User rows are mapped in full and must match too.
				for u := 0; u < users; u++ {
					wantRow := full.Model().UserFactor(u)
					gotRow := rr.UserFactorF64(u)
					for c := 0; c < k; c++ {
						if math.Float64bits(gotRow[c]) != math.Float64bits(wantRow[c]) {
							t.Fatalf("range [%d,%d) user %d coord %d: f64 differs", lo, hi, u, c)
						}
					}
				}

				// Scoring through the slice equals the full map's entries
				// bit for bit, on both the f32 and f64 paths.
				fullScores := make([]float64, items)
				rangeScores := make([]float64, hi-lo)
				for u := 0; u < users; u++ {
					full.ScoreUser(u, fullScores)
					rr.ScoreItems(u, rangeScores)
					for n := range rangeScores {
						if math.Float64bits(rangeScores[n]) != math.Float64bits(fullScores[lo+n]) {
							t.Fatalf("range [%d,%d) user %d item %d: score %v != %v",
								lo, hi, u, lo+n, rangeScores[n], fullScores[lo+n])
						}
					}
				}
				rr.Close()
			}
		})
	}
}

// TestMappedModelRangePartitionCoversCatalogue checks that a disjoint
// partition of ranges scores, in union, exactly what a full map scores —
// the property the scatter-gather serving tier is built on.
func TestMappedModelRangePartitionCoversCatalogue(t *testing.T) {
	model := trainedModel(t, true)
	dir := t.TempDir()
	path := writeV2File(t, dir, "model.bin", model, true)
	full, err := OpenMappedModel(path)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	items := full.NumItems()

	bounds := []int{0, items / 4, items / 2, items}
	got := make([]float64, items)
	fullScores := make([]float64, items)
	for p := 0; p+1 < len(bounds); p++ {
		lo, hi := bounds[p], bounds[p+1]
		rr, err := OpenMappedModelRange(path, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		rr.ScoreItems(2, got[lo:hi])
		rr.Close()
	}
	full.ScoreUser(2, fullScores)
	for i := range fullScores {
		if math.Float64bits(got[i]) != math.Float64bits(fullScores[i]) {
			t.Fatalf("item %d: partition score %v != full score %v", i, got[i], fullScores[i])
		}
	}
}

// K returns the number of co-clusters.
func (rr *MappedModelRange) K() int { return rr.k }

// HasBias reports whether the model carries the Section IV-A bias terms.
func (rr *MappedModelRange) HasBias() bool { return rr.bu != nil }

// UserFactorF64 returns user u's float64 factor row (a view into the
// mapping; do not modify, invalid after Close). Tests use it to compare
// sliced sections against a full map.
func (rr *MappedModelRange) UserFactorF64(u int) []float64 {
	return rr.fu[u*rr.k : (u+1)*rr.k]
}

// ItemFactorF64 returns the float64 factor row of global item i, which
// must lie in [ItemLo, ItemHi).
func (rr *MappedModelRange) ItemFactorF64(i int) []float64 {
	n := i - rr.lo
	return rr.fi[n*rr.k : (n+1)*rr.k]
}

// ItemFactorF32 returns the float32 factor row of item i (nil when the
// file has no float32 section).
func (mm *MappedModel) ItemFactorF32(i int) []float32 {
	if mm.f32[1] == nil {
		return nil
	}
	return mm.f32[1][i*mm.k : (i+1)*mm.k]
}

// ItemBiasF64 returns the float64 bias of global item i, 0 without bias.
func (rr *MappedModelRange) ItemBiasF64(i int) float64 {
	if rr.bi == nil {
		return 0
	}
	return rr.bi[i-rr.lo]
}
