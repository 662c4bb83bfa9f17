package core

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/linalg"
)

// trainedModel fits a small model, optionally with biases, for the
// serialization tests.
func trainedModel(t testing.TB, bias bool) *Model {
	t.Helper()
	m := smallMatrix(31, 20, 15, 90)
	res, err := Train(m, Config{K: 5, Lambda: 1, MaxIter: 10, Seed: 7, Bias: bias})
	if err != nil {
		t.Fatal(err)
	}
	return res.Model
}

// sameFactorBits asserts two models agree bit for bit on every float64
// factor and bias.
func sameFactorBits(t *testing.T, a, b *Model) {
	t.Helper()
	arrays := [][2][]float64{{a.fu, b.fu}, {a.fi, b.fi}, {a.bu, b.bu}, {a.bi, b.bi}}
	for n, pair := range arrays {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("array %d: length %d vs %d", n, len(pair[0]), len(pair[1]))
		}
		for j := range pair[0] {
			if pair[0][j] != pair[1][j] {
				t.Fatalf("array %d element %d: %v vs %v (not bit-exact)", n, j, pair[0][j], pair[1][j])
			}
		}
	}
}

// v1Fixture is a stream of n bytes carrying the retired v1 magic. Readers
// classify by the magic alone, so the payload is zeros.
func v1Fixture(n int) []byte {
	return append([]byte(magicV1), make([]byte, n-len(magicV1))...)
}

// TestV1Rejected: the v1 format has no reader any more, but its magic is
// still recognised — every entry point refuses a v1 stream or file with
// ErrLegacyFormat rather than a bad-magic or size error, whether or not
// the file is big enough to hold a v2 header.
func TestV1Rejected(t *testing.T) {
	for _, size := range []int{40, 4 * v2HeaderSize} {
		v1 := v1Fixture(size)
		if _, err := ReadModel(bytes.NewReader(v1)); !errors.Is(err, ErrLegacyFormat) {
			t.Errorf("ReadModel, %d-byte v1 stream: got %v, want ErrLegacyFormat", size, err)
		}
		path := filepath.Join(t.TempDir(), "v1.bin")
		if err := os.WriteFile(path, v1, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadModelFile(path); !errors.Is(err, ErrLegacyFormat) {
			t.Errorf("LoadModelFile, %d-byte v1 file: got %v, want ErrLegacyFormat", size, err)
		}
		if _, err := OpenMappedModel(path); !errors.Is(err, ErrLegacyFormat) {
			t.Errorf("OpenMappedModel, %d-byte v1 file: got %v, want ErrLegacyFormat", size, err)
		}
		if _, err := OpenMappedModelRange(path, 0, 1); !errors.Is(err, ErrLegacyFormat) {
			t.Errorf("OpenMappedModelRange, %d-byte v1 file: got %v, want ErrLegacyFormat", size, err)
		}
	}
}

// v2Bytes serializes m in v2 format for byte-surgery tests.
func v2Bytes(t testing.TB, m *Model, f32 bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.WriteToV2(&buf, SaveOptions{Float32: f32}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadModelCorruption is the corruption table: bad magic, dimension
// overflow, truncated headers and factor sections, trailing bytes,
// out-of-domain factors, tampered offset tables, flags, reserved bytes
// and float32 sections.
func TestReadModelCorruption(t *testing.T) {
	model := trainedModel(t, true)

	v2 := v2Bytes(t, model, true)
	v2plain := v2Bytes(t, model, false)

	mutate := func(data []byte, off int, b byte) []byte {
		out := append([]byte(nil), data...)
		out[off] = b
		return out
	}
	le64 := func(data []byte, off int, v uint64) []byte {
		out := append([]byte(nil), data...)
		for i := 0; i < 8; i++ {
			out[off+i] = byte(v >> (8 * i))
		}
		return out
	}

	// The first float64 of the fu section sits at the first aligned
	// offset; 0xC0 in its top byte makes it negative.
	fuOff := int(layoutV2(5, 20, 15, true, true).off[0])
	// The first float32 of the fu32 section.
	fu32Off := int(layoutV2(5, 20, 15, true, true).off[4])

	cases := map[string][]byte{
		"empty":           {},
		"truncated magic": v2[:5],

		"v2 bad magic":          mutate(v2, 7, 'X'),
		"v2 truncated header":   v2[:64],
		"v2 truncated factors":  v2[:len(v2)-5],
		"v2 trailing bytes":     append(append([]byte{}, v2...), 0),
		"v2 implausible K":      le64(v2, 8, 0),
		"v2 huge users":         le64(v2, 16, 1<<40),
		"v2 dim product":        le64(le64(v2, 8, 1<<20), 16, 1<<27),
		"v2 unknown flags":      le64(v2, 32, 1<<7),
		"v2 tampered offset":    le64(v2, 40, 12345),
		"v2 tampered file size": le64(v2, 104, uint64(len(v2))+v2Align),
		"v2 reserved non-zero":  mutate(v2, 120, 1),
		"v2 negative factor":    mutate(v2, fuOff+7, 0xC0),
		"v2 NaN factor":         le64(v2, fuOff, math.Float64bits(math.NaN())),
		"v2 Inf factor":         le64(v2, fuOff, math.Float64bits(math.Inf(1))),
		"v2 f32 disagrees":      mutate(v2, fu32Off, v2[fu32Off]^0x01),

		"v2 plain truncated": v2plain[:len(v2plain)-1],
		"v2 plain trailing":  append(append([]byte{}, v2plain...), 0),
	}
	for name, data := range cases {
		if _, err := ReadModel(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}

	// Sanity: the uncorrupted baselines load.
	for name, data := range map[string][]byte{"v2": v2, "v2 plain": v2plain} {
		if _, err := ReadModel(bytes.NewReader(data)); err != nil {
			t.Errorf("%s baseline rejected: %v", name, err)
		}
	}
}

// TestOpenMappedModel checks the O(1) open path: header-validated views,
// scores bit-identical to the copying loader on the float64 path, the
// documented error bound on the float32 path, and the fold-in view.
func TestOpenMappedModel(t *testing.T) {
	for _, bias := range []bool{false, true} {
		for _, f32 := range []bool{false, true} {
			model := trainedModel(t, bias)
			dir := t.TempDir()
			path := filepath.Join(dir, "model.bin")
			if err := model.SaveModelFileOpts(path, SaveOptions{Float32: f32}); err != nil {
				t.Fatal(err)
			}
			mm, err := OpenMappedModel(path)
			if err != nil {
				t.Fatalf("bias=%v f32=%v: %v", bias, f32, err)
			}
			if mm.HasFloat32() != f32 || mm.HasBias() != bias {
				t.Fatalf("bias=%v f32=%v: mapped reports bias=%v f32=%v", bias, f32, mm.HasBias(), mm.HasFloat32())
			}
			if mm.K() != model.K() || mm.NumUsers() != model.NumUsers() || mm.NumItems() != model.NumItems() {
				t.Fatalf("shape mismatch: %v vs %v", mm, model)
			}
			sameFactorBits(t, model, mm.Model())

			bound := linalg.ScoreErrorBoundF32(model.K())
			want := make([]float64, model.NumItems())
			got := make([]float64, model.NumItems())
			for u := 0; u < model.NumUsers(); u++ {
				model.ScoreUser(u, want)
				mm.ScoreUser(u, got)
				for i := range want {
					if f32 {
						if d := math.Abs(got[i] - want[i]); d > bound {
							t.Fatalf("u=%d i=%d: f32 score off by %g (bound %g)", u, i, d, bound)
						}
					} else if got[i] != want[i] {
						t.Fatalf("u=%d i=%d: mapped f64 score %v != %v", u, i, got[i], want[i])
					}
				}
			}

			// ScoreWithFactor (the fold-in path) is always exact.
			model.ScoreWithFactor(model.UserFactor(3), model.UserBias(3), want)
			mm.ScoreWithFactor(model.UserFactor(3), model.UserBias(3), got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("ScoreWithFactor i=%d: %v != %v", i, got[i], want[i])
				}
			}

			if err := mm.Close(); err != nil {
				t.Fatal(err)
			}
			if err := mm.Close(); err != nil { // idempotent
				t.Fatal(err)
			}
		}
	}
}

// TestOpenMappedModelRejectsCorruption tampers with the on-disk header:
// the O(1) open must reject everything the streaming reader rejects at
// the header level, plus size mismatches, without scanning factors.
func TestOpenMappedModelRejectsCorruption(t *testing.T) {
	model := trainedModel(t, true)
	good := v2Bytes(t, model, true)
	dir := t.TempDir()

	check := func(name string, data []byte) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenMappedModel(path); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
	mutate := func(off int, b byte) []byte {
		out := append([]byte(nil), good...)
		out[off] = b
		return out
	}
	check("too-small", good[:100])
	check("bad-magic", mutate(7, 'X'))
	check("bad-flags", mutate(32, 0x80))
	check("bad-offset", mutate(40, 1))
	check("truncated", good[:len(good)-1])
	check("trailing", append(append([]byte(nil), good...), 0))
	check("reserved", mutate(120, 1))

	// The pristine file opens.
	path := filepath.Join(dir, "good")
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	mm, err := OpenMappedModel(path)
	if err != nil {
		t.Fatalf("pristine file rejected: %v", err)
	}
	mm.Close()
}

// TestFloat32ScoreBound checks the documented quantization bound
// linalg.ScoreErrorBoundF32 on a Fig 7-scale fixture: every float32-path
// score is within the bound of the float64 score.
func TestFloat32ScoreBound(t *testing.T) {
	d := dataset.SyntheticNetflix(1, 0.05)
	res, err := Train(d.R, Config{K: 10, Lambda: 5, MaxIter: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	model := res.Model
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := model.SaveModelFileOpts(path, SaveOptions{Float32: true}); err != nil {
		t.Fatal(err)
	}
	mm, err := OpenMappedModel(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	if !mm.HasFloat32() {
		t.Fatal("float32 section missing")
	}
	want := make([]float64, model.NumItems())
	got := make([]float64, model.NumItems())
	maxErr := 0.0
	for u := 0; u < model.NumUsers(); u += 7 {
		model.ScoreUser(u, want)
		mm.ScoreUser(u, got)
		for i := range want {
			if d := math.Abs(got[i] - want[i]); d > maxErr {
				maxErr = d
			}
		}
	}
	bound := linalg.ScoreErrorBoundF32(model.K())
	if maxErr > bound {
		t.Fatalf("float32 score error %g exceeds the documented bound %g", maxErr, bound)
	}
	t.Logf("max float32 score error: %g (documented bound %g)", maxErr, bound)
}

// TestSaveModelFileAtomicity exercises the temp-file discipline: a failed
// rename leaves no .tmp litter and no clobbered target, and overwriting
// an existing model file works.
func TestSaveModelFileAtomicity(t *testing.T) {
	model := trainedModel(t, false)
	dir := t.TempDir()

	// Overwrite: second save over the same path succeeds and loads.
	path := filepath.Join(dir, "model.bin")
	if err := model.SaveModelFile(path); err != nil {
		t.Fatal(err)
	}
	if err := model.SaveModelFileOpts(path, SaveOptions{Float32: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModelFile(path); err != nil {
		t.Fatal(err)
	}

	// Failed rename: the target is a non-empty directory, so the rename
	// must fail — and the temporary file must be cleaned up.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := model.SaveModelFile(blocked); err == nil {
		t.Fatal("SaveModelFile over a non-empty directory succeeded")
	}
	if litter, _ := filepath.Glob(blocked + ".tmp*"); len(litter) != 0 {
		t.Errorf("temp files left behind after failed save: %v", litter)
	}

	// Unwritable destination directory errors cleanly.
	if err := model.SaveModelFile(filepath.Join(dir, "no", "such", "dir", "m.bin")); err == nil {
		t.Fatal("SaveModelFile into a missing directory succeeded")
	}
}

// TestSaveTempPathUnique pins the anti-clobber property behind
// concurrent saves: every call gets its own temp file name, so a trainer
// daemon and a manual cmd/ocular -save writing the same path can never
// interleave bytes in one in-flight temp file.
func TestSaveTempPathUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		p := saveTempPath("/x/model.bin")
		if seen[p] {
			t.Fatalf("duplicate temp path %q", p)
		}
		seen[p] = true
	}
}

// TestSaveSweepsOldTempLitter: crash litter from other processes (whose
// pid+seq a later save never collides with) is swept once it is older
// than any live save could be; a recent temp file — possibly another
// process's in-flight save — is left alone.
func TestSaveSweepsOldTempLitter(t *testing.T) {
	model := trainedModel(t, false)
	path := filepath.Join(t.TempDir(), "model.bin")
	old := path + ".tmp.99999.7"
	fresh := path + ".tmp.99998.3"
	for _, p := range []string{old, fresh} {
		if err := os.WriteFile(p, []byte("litter"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	past := time.Now().Add(-2 * staleTempAge)
	if err := os.Chtimes(old, past, past); err != nil {
		t.Fatal(err)
	}
	if err := model.SaveModelFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Error("stale temp litter survived the save's sweep")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("recent temp file (a possible in-flight save) was swept")
	}
}

// TestSaveModelFileConcurrent races many saves of two distinct models to
// one path; with per-call temp files, the surviving file must always be
// one of the two complete models, never a hybrid or a truncation.
func TestSaveModelFileConcurrent(t *testing.T) {
	a := trainedModel(t, false)
	b := trainedModel(t, true) // different flags → different bytes
	path := filepath.Join(t.TempDir(), "model.bin")

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		m := a
		if i%2 == 1 {
			m = b
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- m.SaveModelFileOpts(path, SaveOptions{})
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	got, err := LoadModelFile(path)
	if err != nil {
		t.Fatalf("model at path is not loadable after concurrent saves: %v", err)
	}
	if g, wa, wb := got.String(), a.String(), b.String(); g != wa && g != wb {
		t.Fatalf("loaded model %s is neither contender (%s / %s)", g, wa, wb)
	}
	if litter, _ := filepath.Glob(path + ".tmp*"); len(litter) != 0 {
		t.Errorf("temp files left behind: %v", litter)
	}
}

// TestSaveModelFileSyncsDir asserts the durability contract: a
// successful save fsyncs the parent directory exactly once (after the
// rename — a crash later must not roll the rename back), and a failing
// directory sync is reported instead of swallowed.
func TestSaveModelFileSyncsDir(t *testing.T) {
	model := trainedModel(t, false)
	dir := t.TempDir()
	orig := fsyncDir
	defer func() { fsyncDir = orig }()

	var synced []string
	fsyncDir = func(d string) error {
		synced = append(synced, d)
		return orig(d)
	}
	path := filepath.Join(dir, "model.bin")
	if err := model.SaveModelFile(path); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != dir {
		t.Fatalf("directory syncs after save: %v, want exactly [%s]", synced, dir)
	}

	// A failed save (rename never happens) must not sync the directory.
	synced = nil
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := model.SaveModelFile(blocked); err == nil {
		t.Fatal("save over a non-empty directory succeeded")
	}
	if len(synced) != 0 {
		t.Errorf("failed save synced the directory: %v", synced)
	}

	// A failing directory sync surfaces as a save error.
	fsyncDir = func(string) error { return errors.New("fsync: injected failure") }
	if err := model.SaveModelFile(filepath.Join(dir, "other.bin")); err == nil {
		t.Error("SaveModelFile swallowed a directory sync failure")
	}
}

// TestMappedModelVerify: Verify runs the factor-domain and float32
// agreement scan the O(1) open skips, catching section corruption the
// header cannot see.
func TestMappedModelVerify(t *testing.T) {
	model := trainedModel(t, true)
	good := v2Bytes(t, model, true)
	dir := t.TempDir()
	l := layoutV2(5, 20, 15, true, true)

	open := func(name string, data []byte) *MappedModel {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		mm, err := OpenMappedModel(path)
		if err != nil {
			t.Fatalf("%s: header-only open rejected: %v", name, err)
		}
		t.Cleanup(func() { mm.Close() })
		return mm
	}
	if err := open("good", good).Verify(); err != nil {
		t.Errorf("pristine model failed Verify: %v", err)
	}

	negative := append([]byte(nil), good...)
	negative[int(l.off[0])+7] = 0xC0 // flip the first fu factor negative
	if err := open("negative", negative).Verify(); err == nil {
		t.Error("Verify accepted a negative factor")
	}

	disagree := append([]byte(nil), good...)
	disagree[int(l.off[4])] ^= 0x01 // perturb the first fu32 value
	if err := open("disagree", disagree).Verify(); err == nil {
		t.Error("Verify accepted a float32 section disagreeing with float64")
	}
}
