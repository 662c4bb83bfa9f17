package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"unsafe"

	"repro/internal/linalg"
)

// Scorer is the read-only scoring surface shared by *Model and
// *MappedModel: everything the serving hot path needs. Higher-level
// operations (fold-in, explanations, training warm starts) take a *Model;
// MappedModel.Model returns a zero-copy view for those.
type Scorer interface {
	// ScoreUser writes P[r_ui = 1] for every item of user u into dst
	// (length NumItems).
	ScoreUser(u int, dst []float64)
	// ScoreWithFactor scores every item against an explicit user factor
	// and bias, the fold-in path.
	ScoreWithFactor(fu []float64, bias float64, dst []float64)
	NumUsers() int
	NumItems() int
}

var (
	_ Scorer = (*Model)(nil)
	_ Scorer = (*MappedModel)(nil)
)

// ErrLegacyFormat reports that a model file holds the retired v1 stream
// format, which no reader loads any more.
var ErrLegacyFormat = errors.New("legacy v1 model format is no longer supported (retrain and save as v2)")

// MappedModel is a model served directly out of an mmapped v2 file. Open
// cost is O(1) in the model size: the 128-byte header is parsed and
// validated, the factor sections become typed views into the mapping, and
// no factor byte is touched until it is scored (the kernel pages it in on
// demand and is free to drop clean pages under memory pressure).
//
// When the file carries a float32 section, ScoreUser streams it instead
// of the float64 factors — half the memory traffic per scored user, with
// the reported probability off by at most linalg.ScoreErrorBoundF32(K) =
// (⌈K/4⌉+3)·2⁻²⁴/e, e.g. 3.5e−7 at K=50. ScoreWithFactor and Model()
// always use the exact float64 sections, so fold-in and explanations are
// bit-identical to a heap-loaded model.
//
// The mapping is released when the MappedModel (and the view returned by
// Model, which shares its storage) becomes unreachable, or eagerly via
// Close. All views — Model, UserFactor of the view, score outputs'
// inputs — are invalid after Close.
//
// A MappedModel is immutable and safe for concurrent use. The single-
// writer discipline of SaveModelFile guarantees the mapped inode is never
// rewritten in place: retraining renames a fresh file over the path, and
// the mapping keeps the old inode alive until released.
type MappedModel struct {
	data []byte
	view *Model // float64 factor views into data; shares lifetime with mm

	// float32 sections; nil when the file has none.
	fu32, fi32, bu32, bi32 []float32

	cleanup runtime.Cleanup
	path    string
}

// OpenMappedModel maps the v2 model file at path. It validates only the
// header (O(1), no factor scan — the offset-table cross-check in
// parseV2Header proves every section is in bounds). A v1 file yields an
// error wrapping ErrLegacyFormat.
func OpenMappedModel(path string) (*MappedModel, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: mapping model: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("core: mapping model: %w", err)
	}
	size := st.Size()
	if size < v2HeaderSize {
		// Could still be a tiny legacy v1 file; classify by magic so
		// callers get the legacy sentinel rather than a size error.
		magic := make([]byte, 8)
		if _, err := io.ReadFull(f, magic); err == nil && string(magic) == magicV1 {
			return nil, fmt.Errorf("core: mapping model %s: %w", path, ErrLegacyFormat)
		}
		return nil, fmt.Errorf("core: mapping model %s: file of %d bytes is too small for a v2 header", path, size)
	}
	data, err := mmapFile(f, int(size))
	if err != nil {
		return nil, fmt.Errorf("core: mapping model %s: %w", path, err)
	}
	mm, err := newMappedModel(data, path)
	if err != nil {
		munmapFile(data)
		return nil, err
	}
	return mm, nil
}

func newMappedModel(data []byte, path string) (*MappedModel, error) {
	switch string(data[:8]) {
	case magicV1:
		return nil, fmt.Errorf("core: mapping model %s: %w", path, ErrLegacyFormat)
	case magicV2:
	default:
		return nil, fmt.Errorf("core: mapping model %s: bad magic %q", path, data[:8])
	}
	h, err := parseV2Header(data[8:v2HeaderSize])
	if err != nil {
		return nil, fmt.Errorf("core: mapping model %s: %w", path, err)
	}
	if uint64(len(data)) != h.layout.size {
		return nil, fmt.Errorf("core: mapping model %s: file is %d bytes, header says %d", path, len(data), h.layout.size)
	}
	if uintptr(unsafe.Pointer(&data[0]))%8 != 0 {
		// Cannot happen for a real mmap (page-aligned base) and the heap
		// fallback (8-aligned allocations); checked so the unsafe casts
		// below are provably sound.
		return nil, fmt.Errorf("core: mapping model %s: mapping base not 8-byte aligned", path)
	}
	view := &Model{
		k:     int(h.k),
		users: int(h.users),
		items: int(h.items),
		fu:    f64view(data, h.layout.off[0], h.users*h.k),
		fi:    f64view(data, h.layout.off[1], h.items*h.k),
	}
	mm := &MappedModel{data: data, view: view, path: path}
	if h.bias {
		view.bu = f64view(data, h.layout.off[2], h.users)
		view.bi = f64view(data, h.layout.off[3], h.items)
	}
	if h.f32 {
		mm.fu32 = f32view(data, h.layout.off[4], h.users*h.k)
		mm.fi32 = f32view(data, h.layout.off[5], h.items*h.k)
		if h.bias {
			mm.bu32 = f32view(data, h.layout.off[6], h.users)
			mm.bi32 = f32view(data, h.layout.off[7], h.items)
		}
	}
	// Attach the cleanup to the view: anything keeping either the
	// MappedModel or the Model view reachable keeps the mapping alive
	// (mm.view makes mm → view reachability hold), so the munmap can only
	// run once both are gone.
	mm.cleanup = runtime.AddCleanup(view, func(d []byte) { _ = munmapFile(d) }, data)
	return mm, nil
}

// f64view reinterprets n float64s of the mapping starting at off. The
// v2 layout aligns sections to v2Align, so &data[off] is 8-aligned
// whenever the base is.
func f64view(data []byte, off, n uint64) []float64 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&data[off])), n)
}

func f32view(data []byte, off, n uint64) []float32 {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&data[off])), n)
}

// Model returns the full-precision model view sharing the mapping's
// storage — zero copy. It supports everything a trained model does
// (fold-in, explanations, Objective, re-serialization). The view is
// invalidated by Close; keep the MappedModel reachable while the view is
// in use (holding either one suffices, see the type comment).
func (mm *MappedModel) Model() *Model { return mm.view }

// K returns the number of co-clusters.
func (mm *MappedModel) K() int { return mm.view.k }

// NumUsers returns the number of users the model was trained on.
func (mm *MappedModel) NumUsers() int { return mm.view.users }

// NumItems returns the number of items the model was trained on.
func (mm *MappedModel) NumItems() int { return mm.view.items }

// HasBias reports whether the model carries the Section IV-A bias terms.
func (mm *MappedModel) HasBias() bool { return mm.view.bu != nil }

// HasFloat32 reports whether the file carries the float32 factor copy,
// i.e. whether ScoreUser runs the half-bandwidth path.
func (mm *MappedModel) HasFloat32() bool { return mm.fu32 != nil }

// String describes the mapped model.
func (mm *MappedModel) String() string {
	suffix := ""
	if mm.fu32 != nil {
		suffix = "+f32"
	}
	return fmt.Sprintf("core.MappedModel(K=%d, %d users, %d items, mmap%s)",
		mm.view.k, mm.view.users, mm.view.items, suffix)
}

// ScoreUser writes P[r_ui = 1] for every item into dst, implementing
// eval.Recommender. With a float32 section present it streams that
// section — half the memory bandwidth of the float64 path — within the
// linalg.ScoreErrorBoundF32 error bound; otherwise it scores the exact
// float64 factors, bit-identically to a heap-loaded model.
func (mm *MappedModel) ScoreUser(u int, dst []float64) {
	if mm.fu32 == nil {
		mm.view.ScoreUser(u, dst)
		runtime.KeepAlive(mm)
		return
	}
	k := mm.view.k
	var bias float64
	if mm.bu32 != nil {
		bias = float64(mm.bu32[u])
	}
	linalg.ScoreF32(dst, mm.fu32[u*k:(u+1)*k], mm.fi32, mm.bi32, bias)
	runtime.KeepAlive(mm)
}

// ScoreWithFactor scores every item against an explicit (float64) user
// factor, always through the exact float64 item factors so fold-in
// results match a heap-loaded model bit for bit.
func (mm *MappedModel) ScoreWithFactor(fu []float64, bias float64, dst []float64) {
	mm.view.ScoreWithFactor(fu, bias, dst)
	runtime.KeepAlive(mm)
}

// Verify runs the full factor-domain scan the O(1) open intentionally
// skips: every float64 factor must be non-negative and finite, and every
// float32 section value must equal the quantization of its float64
// counterpart — exactly what ReadModel enforces on the copying path. It
// costs O(model) and pages the whole mapping in; tools and load-time
// paranoia can call it, the serving hot path does not.
func (mm *MappedModel) Verify() error {
	v := mm.view
	for _, arr := range [][]float64{v.fu, v.fi, v.bu, v.bi} {
		if err := checkFactors(arr); err != nil {
			return err
		}
	}
	f32s := [4][]float32{mm.fu32, mm.fi32, mm.bu32, mm.bi32}
	for s, arr := range [][]float64{v.fu, v.fi, v.bu, v.bi} {
		q := f32s[s]
		if q == nil {
			continue
		}
		for j, want := range arr {
			if q[j] != float32(want) {
				return fmt.Errorf("core: corrupt model: float32 section disagrees with float64 factors")
			}
		}
	}
	runtime.KeepAlive(mm)
	return nil
}

// Close releases the mapping eagerly. Every view into the model —
// including the Model() view and any factor slices obtained from it — is
// invalid afterwards. Close is not safe to call while other goroutines
// still use the model; a serving process that hot-swaps models should
// simply drop the reference and let the cleanup release the old mapping
// once in-flight requests finish (see serve's snapshot discipline).
func (mm *MappedModel) Close() error {
	if mm.data == nil {
		return nil
	}
	mm.cleanup.Stop()
	data := mm.data
	mm.data = nil
	mm.view = nil
	mm.fu32, mm.fi32, mm.bu32, mm.bi32 = nil, nil, nil, nil
	return munmapFile(data)
}
