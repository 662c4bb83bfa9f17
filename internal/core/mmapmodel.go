package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
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

// MappedModelRange is the item range [ItemLo, ItemHi) of a model served
// directly out of an mmapped v2 file — the one serving representation. A
// full server holds the range [0, NumItems); a shard of the cluster tier
// holds its partition.
//
// The user factor (and bias) sections are mapped in full, but of the item
// sections only the rows of the range are mapped — a process serving one
// item-partition of a catalogue too large for a single box touches (and
// can page in) only its slice of the factor bytes. Open cost is O(1) in
// the model size: the 128-byte header is always validated in full
// (including the offset-table cross-check against the recomputed canonical
// layout), so the offset math starts from proven-in-bounds sections, and no
// factor byte is touched until it is scored (the kernel pages it in on
// demand and is free to drop clean pages under memory pressure). The
// windows are rounded down to page boundaries, as mmap requires, with the
// sub-page remainder skipped in the returned views.
//
// The one thing a range builds is its support index, and lazily: the first
// ScoreCandidates call on a model without bias reads the range's item
// factors once and keeps, per co-cluster, the ids of the items with a
// positive factor on it — 4 bytes of heap per positive factor entry (under
// 1 % of the section on a sparse catalogue, a few per cent on a dense one),
// nothing in the file. A range that is only ever swept (ScoreItems) never
// builds it.
//
// When the file carries a float32 section, ScoreItems streams it instead
// of the float64 factors — half the memory traffic per scored user, with
// the reported probability off by at most linalg.ScoreErrorBoundF32(K) =
// (⌈K/4⌉+3)·2⁻²⁴/e, e.g. 3.5e−7 at K=50. ScoreItemsWithFactor and Model
// always use the exact float64 sections. Either way each item's score is
// computed independently from the same bytes whatever the range, so a
// shard's score for item i is bit-identical to a full server's score for
// item i. That per-item identity is what makes the scatter-gathered merge
// of the cluster tier provably equal to single-process serving.
//
// A MappedModelRange is immutable and safe for concurrent use. The
// single-writer discipline of SaveModelFile guarantees the mapped inode is
// never rewritten in place: retraining renames a fresh file over the path,
// and the mappings keep the old inode alive until released. They are
// released when the range (and the view returned by Model, which shares
// its storage) becomes unreachable, or eagerly via Close, after which
// every view is invalid.
type MappedModelRange struct {
	k, users, items int
	lo, hi          int

	// windows are the raw page-aligned mappings backing the views below.
	windows [][]byte

	fu, bu []float64 // full user sections
	fi, bi []float64 // item rows [lo, hi) only; index local (row 0 = item lo)

	fu32, bu32 []float32 // float32 sections, nil when absent
	fi32, bi32 []float32

	// view is the zero-copy *Model over the float64 sections, nil unless
	// the range is the whole catalogue. It points back at the range
	// (Model.pin), so holding either one keeps the mappings alive.
	view *Model

	// support is the support index ScoreCandidates merges, built on first
	// use (supportLists); nil until then, and for good when the range
	// cannot be ranked from it.
	supportOnce sync.Once
	support     [][]int32

	cleanup runtime.Cleanup
}

// OpenMappedModelRange maps the v2 model file at path, restricted to the
// item range [itemLo, itemHi). It validates only the header (O(1), no
// factor scan — the offset-table cross-check in parseV2Header proves every
// section is in bounds); the item factor (and bias, and float32) sections
// are mapped only across the requested rows, each window starting on a
// page boundary. A v1 file yields an error wrapping ErrLegacyFormat; an
// empty or out-of-bounds range is rejected. itemHi == -1 means "through
// the end of the catalogue", resolved against the file's header — the
// tail shard of an item partition uses it to follow catalogue growth
// across retrained models without reconfiguration.
func OpenMappedModelRange(path string, itemLo, itemHi int) (*MappedModelRange, error) {
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
	hdr := make([]byte, v2HeaderSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("core: mapping model %s: reading header: %w", path, err)
	}
	switch string(hdr[:8]) {
	case magicV1:
		return nil, fmt.Errorf("core: mapping model %s: %w", path, ErrLegacyFormat)
	case magicV2:
	default:
		return nil, fmt.Errorf("core: mapping model %s: bad magic %q", path, hdr[:8])
	}
	h, err := parseV2Header(hdr)
	if err != nil {
		return nil, fmt.Errorf("core: mapping model %s: %w", path, err)
	}
	if uint64(size) != h.layout.size {
		return nil, fmt.Errorf("core: mapping model %s: file is %d bytes, header says %d", path, size, h.layout.size)
	}
	if itemHi == -1 {
		itemHi = int(h.items)
	}
	if itemLo < 0 || itemHi > int(h.items) || itemLo >= itemHi {
		return nil, fmt.Errorf("core: mapping model %s: item range [%d,%d) out of bounds for %d items",
			path, itemLo, itemHi, h.items)
	}

	rr := &MappedModelRange{
		k: int(h.k), users: int(h.users), items: int(h.items),
		lo: itemLo, hi: itemHi,
	}
	ok := false
	defer func() {
		if !ok {
			_ = munmapAll(rr.windows)
		}
	}()

	page := uint64(os.Getpagesize())
	// mapAt maps length bytes starting at the (section-interior) byte
	// offset start, rounding the mapping itself down to a page boundary
	// and returning the view beginning at start. The v2 layout aligns
	// sections to v2Align and every slice start is a multiple of the
	// section's element size, so the returned view keeps the element
	// alignment (elem: 8 for float64 sections, 4 for float32) the typed
	// reinterpretations below require.
	mapAt := func(start, length, elem uint64) ([]byte, error) {
		aligned := start &^ (page - 1)
		w, err := mmapFileAt(f, int64(aligned), int(start-aligned+length))
		if err != nil {
			return nil, fmt.Errorf("core: mapping model %s: %w", path, err)
		}
		rr.windows = append(rr.windows, w)
		view := w[start-aligned:]
		if uintptr(unsafe.Pointer(&view[0]))%uintptr(elem) != 0 {
			// Cannot happen (page-aligned mapping base + element-aligned
			// interior offset); checked so the unsafe casts are provably
			// sound.
			return nil, fmt.Errorf("core: mapping model %s: view base not %d-byte aligned", path, elem)
		}
		return view, nil
	}
	// One window per present section, in layout order fu, fi, bu, bi —
	// float64 (sections 0–3), then float32 (4–7): the user sections (even)
	// in full, the item sections (odd) across rows [lo, hi) only.
	var f64 [4][]float64
	var f32 [4][]float32
	for s, n := range sectionLens(h.k, h.users, h.items, h.bias, h.f32) {
		if n == 0 {
			continue
		}
		elem := uint64(8)
		if s >= 4 {
			elem = 4
		}
		start := h.layout.off[s]
		if s%2 == 1 {
			// Slice the section by row-offset math.
			width := n / h.items
			start += uint64(itemLo) * width * elem
			n = uint64(itemHi-itemLo) * width
		}
		b, err := mapAt(start, n*elem, elem)
		if err != nil {
			return nil, err
		}
		if s < 4 {
			f64[s] = unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), n)
		} else {
			f32[s-4] = unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), n)
		}
	}
	rr.fu, rr.fi, rr.bu, rr.bi = f64[0], f64[1], f64[2], f64[3]
	rr.fu32, rr.fi32, rr.bu32, rr.bi32 = f32[0], f32[1], f32[2], f32[3]
	if itemLo == 0 && itemHi == rr.items {
		rr.view = &Model{k: rr.k, users: rr.users, items: rr.items,
			fu: rr.fu, fi: rr.fi, bu: rr.bu, bi: rr.bi, pin: rr}
	}
	ok = true
	rr.cleanup = runtime.AddCleanup(rr, func(ws [][]byte) { _ = munmapAll(ws) }, rr.windows)
	return rr, nil
}

// munmapAll releases every window and returns the first error.
func munmapAll(windows [][]byte) error {
	var first error
	for _, w := range windows {
		if err := munmapFile(w); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Model returns the full-precision model view sharing the mapping's
// storage — zero copy — when the range covers the whole catalogue, and nil
// otherwise (a partition cannot fold in or explain). The view supports
// everything a trained model does (fold-in, explanations, Objective,
// re-serialization). It is invalidated by Close; holding either the view
// or the range keeps the mapping alive.
func (rr *MappedModelRange) Model() *Model { return rr.view }

// K returns the number of co-clusters.
func (rr *MappedModelRange) K() int { return rr.k }

// NumUsers returns the full user count of the underlying model.
func (rr *MappedModelRange) NumUsers() int { return rr.users }

// NumItems returns the full catalogue size of the underlying model — not
// the mapped range; see Len for that.
func (rr *MappedModelRange) NumItems() int { return rr.items }

// ItemLo returns the first mapped item (inclusive).
func (rr *MappedModelRange) ItemLo() int { return rr.lo }

// ItemHi returns the end of the mapped item range (exclusive).
func (rr *MappedModelRange) ItemHi() int { return rr.hi }

// Len returns the number of mapped items, ItemHi − ItemLo.
func (rr *MappedModelRange) Len() int { return rr.hi - rr.lo }

// HasBias reports whether the model carries the Section IV-A bias terms.
func (rr *MappedModelRange) HasBias() bool { return rr.bu != nil }

// HasFloat32 reports whether the file carries the float32 factor copy,
// i.e. whether ScoreItems runs the half-bandwidth path.
func (rr *MappedModelRange) HasFloat32() bool { return rr.fu32 != nil }

// mmapSuffix names the scoring sections in the String forms.
func (rr *MappedModelRange) mmapSuffix() string {
	if rr.fu32 != nil {
		return "mmap+f32"
	}
	return "mmap"
}

// String describes the mapped range.
func (rr *MappedModelRange) String() string {
	return fmt.Sprintf("core.MappedModelRange(K=%d, %d users, items [%d,%d) of %d, %s)",
		rr.k, rr.users, rr.lo, rr.hi, rr.items, rr.mmapSuffix())
}

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

// ItemFactorF32 returns the float32 factor row of global item i (nil when
// the file has no float32 section).
func (rr *MappedModelRange) ItemFactorF32(i int) []float32 {
	if rr.fi32 == nil {
		return nil
	}
	n := i - rr.lo
	return rr.fi32[n*rr.k : (n+1)*rr.k]
}

// ItemBiasF64 returns the float64 bias of global item i, 0 without bias.
func (rr *MappedModelRange) ItemBiasF64(i int) float64 {
	if rr.bi == nil {
		return 0
	}
	return rr.bi[i-rr.lo]
}

// ScoreItems writes P[r_ui = 1] for every mapped item into dst (length
// Len(); dst[n] scores global item ItemLo+n). With a float32 section
// present it streams that section — half the memory bandwidth of the
// float64 path — within the linalg.ScoreErrorBoundF32 error bound;
// otherwise it scores the exact float64 factors, bit-identically to a
// heap-loaded model.
func (rr *MappedModelRange) ScoreItems(u int, dst []float64) {
	k := rr.k
	if rr.fu32 != nil {
		var bias float64
		if rr.bu32 != nil {
			bias = float64(rr.bu32[u])
		}
		linalg.ScoreF32(dst, rr.fu32[u*k:(u+1)*k], rr.fi32, rr.bi32, bias)
		runtime.KeepAlive(rr)
		return
	}
	var bias float64
	if rr.bu != nil {
		bias = rr.bu[u]
	}
	rr.ScoreItemsWithFactor(rr.fu[u*k:(u+1)*k], bias, dst)
}

// ScoreItemsWithFactor scores every mapped item against an explicit
// float64 user factor and bias, always through the exact float64 item
// factors — the same per-item arithmetic as Model.ScoreWithFactor, so
// fold-in results match a heap-loaded model bit for bit.
func (rr *MappedModelRange) ScoreItemsWithFactor(fu []float64, bias float64, dst []float64) {
	linalg.Score(dst[:rr.hi-rr.lo], fu, rr.fi, rr.bi, bias)
	runtime.KeepAlive(rr)
}

// Close releases the mappings eagerly. Every view into the range —
// including the Model() view and any factor slices obtained from it — is
// invalid afterwards. Close is not safe to call while other goroutines
// still use the range; a serving process that hot-swaps models should
// simply drop the reference and let the cleanup release the old mappings
// once in-flight requests finish (see serve's snapshot discipline).
func (rr *MappedModelRange) Close() error {
	if rr.windows == nil {
		return nil
	}
	rr.cleanup.Stop()
	windows := rr.windows
	rr.windows, rr.view = nil, nil
	rr.fu, rr.fi, rr.bu, rr.bi = nil, nil, nil, nil
	rr.fu32, rr.fi32, rr.bu32, rr.bi32 = nil, nil, nil, nil
	return munmapAll(windows)
}

// MappedModel is the whole-catalogue range [0, NumItems) under the names
// the rest of the code base scores a full model by: ScoreUser and
// ScoreWithFactor (with the promoted NumUsers and NumItems, the Scorer
// interface), plus Verify. Everything else — Model, K, HasFloat32, Close,
// ... — is the range's own method.
type MappedModel struct{ *MappedModelRange }

// OpenMappedModel maps the whole v2 model file at path: the range
// [0, items) of OpenMappedModelRange.
func OpenMappedModel(path string) (*MappedModel, error) {
	rr, err := OpenMappedModelRange(path, 0, -1)
	if err != nil {
		return nil, err
	}
	return &MappedModel{rr}, nil
}

// String describes the mapped model.
func (mm *MappedModel) String() string {
	return fmt.Sprintf("core.MappedModel(K=%d, %d users, %d items, %s)", mm.k, mm.users, mm.items, mm.mmapSuffix())
}

// ScoreUser is ScoreItems over the whole catalogue, implementing
// eval.Recommender.
func (mm *MappedModel) ScoreUser(u int, dst []float64) { mm.ScoreItems(u, dst) }

// ScoreWithFactor is ScoreItemsWithFactor over the whole catalogue.
func (mm *MappedModel) ScoreWithFactor(fu []float64, bias float64, dst []float64) {
	mm.ScoreItemsWithFactor(fu, bias, dst)
}

// Verify runs the full factor-domain scan the O(1) open intentionally
// skips: every float64 factor must be non-negative and finite, and every
// float32 section value must equal the quantization of its float64
// counterpart — exactly what ReadModel enforces on the copying path. It
// costs O(model) and pages the whole mapping in; tools and load-time
// paranoia can call it, the serving hot path does not.
func (mm *MappedModel) Verify() error {
	f64s := [][]float64{mm.fu, mm.fi, mm.bu, mm.bi}
	for _, arr := range f64s {
		if err := checkFactors(arr); err != nil {
			return err
		}
	}
	f32s := [4][]float32{mm.fu32, mm.fi32, mm.bu32, mm.bi32}
	for s, arr := range f64s {
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
