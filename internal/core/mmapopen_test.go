package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestWholeRangeIsMappedModel pins the property the serving tier's single
// representation rests on: a full server is the range [0, items). The
// open-ended whole-catalogue range scores bit for bit what OpenMappedModel
// scores, an interior range scores exactly its window of that, and only
// the whole-catalogue range carries the *Model view — on float64 and
// float32 files, with and without bias.
func TestWholeRangeIsMappedModel(t *testing.T) {
	for _, v := range []struct{ bias, f32 bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		t.Run(fmt.Sprintf("bias=%v_f32=%v", v.bias, v.f32), func(t *testing.T) {
			path := writeV2File(t, t.TempDir(), "model.bin", trainedModel(t, v.bias), v.f32)
			mm, err := OpenMappedModel(path)
			if err != nil {
				t.Fatal(err)
			}
			defer mm.Close()
			items, users := mm.NumItems(), mm.NumUsers()
			if mm.ItemLo() != 0 || mm.ItemHi() != items || mm.Len() != items || mm.Model() == nil {
				t.Fatalf("OpenMappedModel is not the range [0,%d) with a view: %v", items, mm.MappedModelRange)
			}
			whole, err := OpenMappedModelRange(path, 0, -1)
			if err != nil {
				t.Fatal(err)
			}
			defer whole.Close()
			a, b := items/4, 3*items/4
			part, err := OpenMappedModelRange(path, a, b)
			if err != nil {
				t.Fatal(err)
			}
			defer part.Close()
			if whole.Model() == nil || whole.ItemHi() != items {
				t.Fatalf("[0,-1) resolved to %v, want the whole catalogue with a Model view", whole)
			}
			if part.Model() != nil {
				t.Fatalf("partition %v carries a Model view", part)
			}

			want := make([]float64, items)
			got := make([]float64, items)
			win := make([]float64, b-a)
			viewScores := make([]float64, items)
			exact := make([]float64, items)
			for u := 0; u < users; u++ {
				mm.ScoreUser(u, want)
				whole.ScoreItems(u, got)
				part.ScoreItems(u, win)
				// The view and the explicit-factor path always score the
				// exact float64 factors, through the one float64 kernel.
				whole.Model().ScoreUser(u, viewScores)
				whole.ScoreItemsWithFactor(whole.UserFactorF64(u), whole.Model().UserBias(u), exact)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("user %d item %d: [0,-1) scored %v, OpenMappedModel %v", u, i, got[i], want[i])
					}
					if math.Float64bits(exact[i]) != math.Float64bits(viewScores[i]) {
						t.Fatalf("user %d item %d: explicit factor scored %v, the view %v", u, i, exact[i], viewScores[i])
					}
					if !v.f32 && math.Float64bits(viewScores[i]) != math.Float64bits(want[i]) {
						t.Fatalf("user %d item %d: float64 file, view scored %v, mapping %v", u, i, viewScores[i], want[i])
					}
				}
				for n := range win {
					if math.Float64bits(win[n]) != math.Float64bits(want[a+n]) {
						t.Fatalf("user %d item %d: [%d,%d) scored %v, the full map %v", u, a+n, a, b, win[n], want[a+n])
					}
				}
			}
		})
	}
}

// candidatesMatchSweep holds ScoreCandidates to ScoreItems for user u:
// whenever it answers, its ids are ascending and inside the range, and its
// answer densified (every other item +0) is the sweep's, bit for bit on
// every item. It reports whether it answered.
func candidatesMatchSweep(t testing.TB, rr *MappedModelRange, u int) bool {
	t.Helper()
	ids, scores, ok := rr.ScoreCandidates(u, nil, nil)
	if !ok {
		if len(ids)+len(scores) != 0 {
			t.Fatalf("%v user %d: declined with %d ids, %d scores appended", rr, u, len(ids), len(scores))
		}
		return false
	}
	want, got := make([]float64, rr.Len()), make([]float64, rr.Len())
	rr.ScoreItems(u, want)
	for j, id := range ids {
		if int(id) >= len(got) || j > 0 && id <= ids[j-1] || len(scores) != len(ids) {
			t.Fatalf("%v user %d: candidate ids %v with %d scores, want ascending ids inside the range", rr, u, ids, len(scores))
		}
		got[id] = scores[j]
	}
	for n := range want {
		if math.Float64bits(got[n]) != math.Float64bits(want[n]) {
			t.Fatalf("%v user %d item %d: candidates give %v (%#x), the sweep %v (%#x)",
				rr, u, rr.ItemLo()+n, got[n], math.Float64bits(got[n]), want[n], math.Float64bits(want[n]))
		}
	}
	return true
}

// itemFactorAt returns a copy of a v2 file's bytes with the j-th entry of
// the item-factor section the kernel reads — float32 when the file has one
// — replaced by v.
func itemFactorAt(m *Model, data []byte, f32 bool, j int, v float64) []byte {
	out := append([]byte(nil), data...)
	l := layoutV2(uint64(m.K()), uint64(m.NumUsers()), uint64(m.NumItems()), m.HasBias(), f32)
	if f32 {
		binary.LittleEndian.PutUint32(out[int(l.off[5])+4*j:], math.Float32bits(float32(v)))
	} else {
		binary.LittleEndian.PutUint64(out[int(l.off[1])+8*j:], math.Float64bits(v))
	}
	return out
}

// TestScoreCandidatesMatchesScoreItems: over every file format and over
// partitions, the support index answers for no user of a model with bias
// and, for a model without, with exactly the sweep's scores; one item
// factor outside the domain — the sections are unchecked bytes — turns the
// index off for the mapping, whichever user asks.
func TestScoreCandidatesMatchesScoreItems(t *testing.T) {
	for _, v := range []struct{ bias, f32 bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		t.Run(fmt.Sprintf("bias=%v_f32=%v", v.bias, v.f32), func(t *testing.T) {
			model := trainedModel(t, v.bias)
			data := v2Bytes(t, model, v.f32)
			items, dir := model.NumItems(), t.TempDir()
			open := func(name string, data []byte, lo, hi int) *MappedModelRange {
				path := filepath.Join(dir, name)
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				rr, err := OpenMappedModelRange(path, lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = rr.Close() })
				return rr
			}
			for _, rg := range [][2]int{{0, -1}, {items / 4, 3 * items / 4}, {items - 1, items}} {
				rr := open("good", data, rg[0], rg[1])
				answered := 0
				for u := 0; u < rr.NumUsers(); u++ {
					if candidatesMatchSweep(t, rr, u) {
						answered++
					}
				}
				if (answered > 0) == v.bias {
					t.Errorf("%v: answered for %d users, want some exactly when the model has no bias", rr, answered)
				}
			}
			if v.bias {
				return
			}
			for name, bad := range map[string]float64{"nan": math.NaN(), "negative": -0.25, "inf": math.Inf(1)} {
				rr := open(name, itemFactorAt(model, data, v.f32, 2*model.K()+1, bad), 0, -1)
				for u := 0; u < rr.NumUsers(); u++ {
					if candidatesMatchSweep(t, rr, u) {
						t.Errorf("%s item factor: the index answered for user %d", name, u)
					}
				}
			}
		})
	}
}

// FuzzOpenMappedRange throws arbitrary bytes and ranges at the one opener
// behind every serving snapshot. Whatever the file holds it must be
// rejected or opened without a panic or a fault, and an opened range must
// describe itself consistently and score user 0 inside its windows — an
// out-of-bounds view would fault here, on the mapping's edge. Factor
// sections are unchecked bytes, so the fuzzer also feeds the support index
// NaN, infinite and negative factors: whenever ScoreCandidates answers for
// one of the first users, its answer densified must equal the sweep's bit
// for bit (candidatesMatchSweep) — the domain guard, differentially.
func FuzzOpenMappedRange(f *testing.F) {
	model := trainedModel(f, true)
	good := v2Bytes(f, model, true)
	items := model.NumItems()
	offByOne := append([]byte(nil), good...)
	offByOne[48]++ // item-factor entry of the offset table
	plain := trainedModel(f, false)
	plainF64, plainF32 := v2Bytes(f, plain, false), v2Bytes(f, plain, true)
	f.Add(good, 0, -1)
	f.Add(good, 0, items)
	f.Add(good, 3, 11)
	f.Add(plainF64, items/2, -1)
	f.Add(plainF32, 0, -1)
	// Item 0 on co-clusters 0 and 3: user 1's factor is zero on the first
	// (NaN·0 = NaN) and positive on the second (a negative affinity).
	f.Add(itemFactorAt(plain, plainF64, false, 0, math.NaN()), 0, -1)
	f.Add(itemFactorAt(plain, plainF32, true, 3, -0.5), 0, -1)
	f.Add(good[:len(good)-16], items-1, items)
	f.Add(good[:64], 0, 1)
	f.Add(offByOne, 0, items)
	f.Add(v1Fixture(4*v2HeaderSize), 0, 1)
	f.Fuzz(func(t *testing.T, data []byte, lo, hi int) {
		path := filepath.Join(t.TempDir(), "model.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rr, err := OpenMappedModelRange(path, lo, hi)
		if err != nil {
			return
		}
		defer rr.Close()
		if rr.ItemLo() != lo || rr.ItemLo() < 0 || rr.Len() <= 0 || rr.ItemHi() > rr.NumItems() {
			t.Fatalf("opened [%d,%d) as the inconsistent range %v", lo, hi, rr)
		}
		if (rr.Model() != nil) != (rr.Len() == rr.NumItems()) {
			t.Fatalf("%v: Model view present = %v", rr, rr.Model() != nil)
		}
		if rr.NumUsers() == 0 {
			return
		}
		rr.ScoreItems(0, make([]float64, rr.Len()))
		rr.ScoreItemsWithFactor(rr.UserFactorF64(0), 0, make([]float64, rr.Len()))
		for u := 0; u < min(rr.NumUsers(), 4); u++ {
			candidatesMatchSweep(t, rr, u)
		}
	})
}
