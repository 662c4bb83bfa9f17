package core

import (
	"bytes"
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
// the whole-catalogue range carries the *Model view — and every score is
// the view's, whether or not the file carries a float32 section, with and
// without bias.
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
				// The mapping, the view and the explicit-factor path all
				// score the float64 factors, through the one kernel.
				whole.Model().ScoreUser(u, viewScores)
				whole.ScoreItemsWithFactor(whole.UserFactorF64(u), whole.Model().UserBias(u), exact)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("user %d item %d: [0,-1) scored %v, OpenMappedModel %v", u, i, got[i], want[i])
					}
					if math.Float64bits(exact[i]) != math.Float64bits(viewScores[i]) {
						t.Fatalf("user %d item %d: explicit factor scored %v, the view %v", u, i, exact[i], viewScores[i])
					}
					if math.Float64bits(viewScores[i]) != math.Float64bits(want[i]) {
						t.Fatalf("user %d item %d: view scored %v, mapping %v", u, i, viewScores[i], want[i])
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

// walkMatchesSweep holds a Walk to ScoreItems for user u: whenever the
// range walks u, the walk yields each item at most once and inside the
// range, Next's affinities never go up, every yielded affinity z scores
// 1 − exp(−z) what the sweep writes, and every item not yielded scores +0 —
// bit for bit on every item. It reports whether the range walked u.
func walkMatchesSweep(t testing.TB, rr *MappedModelRange, u int) bool {
	t.Helper()
	var w Walk
	if !rr.Walk(u, &w) {
		return false
	}
	want, seen := make([]float64, rr.Len()), make([]bool, rr.Len())
	rr.ScoreItems(u, want)
	yield := func(phase string, id int32, z float64) {
		if id < 0 || int(id) >= len(seen) || seen[id] {
			t.Fatalf("%v user %d: %s yielded item %d twice or outside the range", rr, u, phase, id)
		}
		seen[id] = true
		if got := 1 - math.Exp(-z); math.Float64bits(got) != math.Float64bits(want[id]) {
			t.Fatalf("%v user %d item %d: %s scores %v (%#x), the sweep %v (%#x)",
				rr, u, rr.ItemLo()+int(id), phase, got, math.Float64bits(got), want[id], math.Float64bits(want[id]))
		}
	}
	for id, z, ok := w.Shared(); ok; id, z, ok = w.Shared() {
		yield("Shared", id, z)
	}
	last := math.Inf(1)
	for id, z, ok := w.Next(); ok; id, z, ok = w.Next() {
		yield("Next", id, z)
		if z > last {
			t.Fatalf("%v user %d: Next went up from affinity %v to %v at item %d", rr, u, last, z, rr.ItemLo()+int(id))
		}
		last = z
	}
	for n := range want {
		if !seen[n] && math.Float64bits(want[n]) != 0 {
			t.Fatalf("%v user %d item %d: not walked, the sweep scores it %v", rr, u, rr.ItemLo()+n, want[n])
		}
	}
	return true
}

// itemFactorAt returns a copy of a v2 file's bytes with the j-th entry of
// the float64 item-factor section — the one every reader scores from —
// replaced by v. f32 says whether the file carries float32 sections.
func itemFactorAt(m *Model, data []byte, f32 bool, j int, v float64) []byte {
	out := append([]byte(nil), data...)
	l := layoutV2(uint64(m.K()), uint64(m.NumUsers()), uint64(m.NumItems()), m.HasBias(), f32)
	binary.LittleEndian.PutUint64(out[int(l.off[1])+8*j:], math.Float64bits(v))
	return out
}

// float32ItemFactorAt returns a copy of a v2 file's bytes, which must carry
// float32 sections, with the j-th entry of the float32 item-factor section
// replaced by v.
func float32ItemFactorAt(m *Model, data []byte, j int, v float32) []byte {
	out := append([]byte(nil), data...)
	l := layoutV2(uint64(m.K()), uint64(m.NumUsers()), uint64(m.NumItems()), m.HasBias(), true)
	binary.LittleEndian.PutUint32(out[int(l.off[5])+4*j:], math.Float32bits(v))
	return out
}

// TestWalkMatchesScoreItems: over every file format and over partitions,
// the support index walks no user of a model with bias and, for a model
// without, yields exactly the sweep's scores; one float64 item factor
// outside the domain — the sections are unchecked bytes — turns the index
// off for the mapping, whichever user asks. A float32 item factor that
// disagrees with its float64 twin changes no score and no walk, and Verify
// still refuses the file.
func TestWalkMatchesScoreItems(t *testing.T) {
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
					if walkMatchesSweep(t, rr, u) {
						answered++
					}
				}
				if (answered > 0) == v.bias {
					t.Errorf("%v: answered for %d users, want some exactly when the model has no bias", rr, answered)
				}
			}
			if v.f32 {
				pristine := open("pristine", data, 0, -1)
				rr := open("f32-nan", float32ItemFactorAt(model, data, 2*model.K()+1, float32(math.NaN())), 0, -1)
				want, got := make([]float64, items), make([]float64, items)
				var w Walk
				for u := 0; u < rr.NumUsers(); u++ {
					model.ScoreUser(u, want)
					rr.ScoreItems(u, got)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("float32 NaN: user %d item %d scored %v, the heap model %v", u, i, got[i], want[i])
						}
					}
					if walked := walkMatchesSweep(t, rr, u); walked != pristine.Walk(u, &w) {
						t.Errorf("float32 NaN: user %d walked %v, %v on the pristine file", u, walked, !walked)
					}
				}
				mm, err := OpenMappedModel(filepath.Join(dir, "f32-nan"))
				if err != nil {
					t.Fatal(err)
				}
				defer mm.Close()
				if err := mm.Verify(); err == nil {
					t.Error("float32 NaN: Verify accepted a float32 section disagreeing with float64")
				}
			}
			if v.bias {
				return
			}
			for name, bad := range map[string]float64{"nan": math.NaN(), "negative": -0.25, "inf": math.Inf(1)} {
				rr := open(name, itemFactorAt(model, data, v.f32, 2*model.K()+1, bad), 0, -1)
				for u := 0; u < rr.NumUsers(); u++ {
					if walkMatchesSweep(t, rr, u) {
						t.Errorf("%s item factor: the index answered for user %d", name, u)
					}
				}
			}
		})
	}
}

// FuzzOpenMappedRange throws arbitrary bytes and ranges at the one opener
// behind every serving snapshot and every heap load. ReadModel must accept
// the bytes as a stream exactly when OpenMappedModel opens them as a file
// and Verify passes, and then hold the mapped view's float64 factors bit
// for bit. Whatever the file holds it must be rejected or opened without
// a panic or a fault, and an opened range must describe itself
// consistently and score user 0 inside its windows — an out-of-bounds
// view would fault here, on the mapping's edge. User 0's scores must be
// the ones its float64 row scores explicitly: a file's float32 sections,
// in range or corrupt, are never scored. Factor sections are unchecked
// bytes, so the fuzzer also feeds the support index NaN, infinite and
// negative factors: whenever the range walks one of the first users, the
// walk must yield the sweep's scores bit for bit, best first
// (walkMatchesSweep) — the domain guard, differentially.
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
	f.Add(float32ItemFactorAt(plain, plainF32, 3, float32(math.NaN())), 0, -1)
	f.Add(good[:len(good)-16], items-1, items)
	f.Add(good[:64], 0, 1)
	f.Add(offByOne, 0, items)
	f.Add(v1Fixture(4*v2HeaderSize), 0, 1)
	f.Fuzz(func(t *testing.T, data []byte, lo, hi int) {
		path := filepath.Join(t.TempDir(), "model.bin")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		mm, verified := OpenMappedModel(path)
		if verified == nil {
			defer mm.Close()
			verified = mm.Verify()
		}
		heap, err := ReadModel(bytes.NewReader(data))
		if (err == nil) != (verified == nil) {
			t.Fatalf("ReadModel: %v; OpenMappedModel then Verify: %v", err, verified)
		}
		if err == nil {
			sameFactorBits(t, heap, mm.Model())
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
		got, exact := make([]float64, rr.Len()), make([]float64, rr.Len())
		rr.ScoreItems(0, got)
		var bias float64
		if rr.HasBias() {
			bias = rr.bu[0]
		}
		rr.ScoreItemsWithFactor(rr.UserFactorF64(0), bias, exact)
		for n := range got {
			if math.Float64bits(got[n]) != math.Float64bits(exact[n]) {
				t.Fatalf("%v user 0 item %d: scored %v, its float64 row scores %v", rr, rr.ItemLo()+n, got[n], exact[n])
			}
		}
		for u := 0; u < min(rr.NumUsers(), 4); u++ {
			walkMatchesSweep(t, rr, u)
		}
	})
}
