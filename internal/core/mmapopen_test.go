package core

import (
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

// FuzzOpenMappedRange throws arbitrary bytes and ranges at the one opener
// behind every serving snapshot. Whatever the file holds it must be
// rejected or opened without a panic or a fault, and an opened range must
// describe itself consistently and score user 0 inside its windows — an
// out-of-bounds view would fault here, on the mapping's edge.
func FuzzOpenMappedRange(f *testing.F) {
	model := trainedModel(f, true)
	good := v2Bytes(f, model, true)
	items := model.NumItems()
	offByOne := append([]byte(nil), good...)
	offByOne[48]++ // item-factor entry of the offset table
	f.Add(good, 0, -1)
	f.Add(good, 0, items)
	f.Add(good, 3, 11)
	f.Add(v2Bytes(f, trainedModel(f, false), false), items/2, -1)
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
	})
}
