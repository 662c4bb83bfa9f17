package core

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"unsafe"

	"repro/internal/linalg"
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
// Walk on a model without bias reads the range's item factors once and
// keeps, per co-cluster, the ids of the items with a positive factor on it
// in (factor desc, id asc) order, and of those the ones on two or more
// co-clusters; and per item its co-clusters as a ⌈K/64⌉-word bitmask. That
// is 4 bytes of heap per positive factor entry, 4 more per entry of an item
// on two or more co-clusters, and 8·⌈K/64⌉ bytes per item — on a planted
// catalogue shaped like the benchmark's (12,000 items, K=16) 104 KB, 96 KB
// of it the masks, beside the 1.5 MB float64 item section; nothing in the
// file. A range that is only ever swept (ScoreItems) never builds it.
//
// Every score is computed from the float64 sections, each item's
// independently of the range, so a shard's score for item i is
// bit-identical to a full server's and to the heap Model's. That per-item
// identity is what makes the scatter-gathered merge of the cluster tier
// provably equal to single-process serving. A range never maps a file's
// float32 sections: only a whole-file MappedModel does, for Verify's
// cross-check, and nothing scores from them.
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

	// view is the zero-copy *Model over the float64 sections, nil unless
	// the range is the whole catalogue. It points back at the range
	// (Model.pin), so holding either one keeps the mappings alive.
	view *Model

	// support is the support index a Walk reads, built on first use
	// (index); nil until then, and for good when the range cannot be
	// ranked from it.
	supportOnce sync.Once
	support     *supportIndex

	cleanup runtime.Cleanup
}

// OpenMappedModelRange maps the v2 model file at path, restricted to the
// item range [itemLo, itemHi). It validates only the header and the file
// size (O(1), no factor scan — the offset-table cross-check in
// parseV2Header proves every section is in bounds); the item factor (and
// bias) sections are mapped only across the requested rows, each window
// starting on a page boundary, and the float32 sections not at all. A v1
// file yields an error wrapping ErrLegacyFormat; an empty or out-of-bounds
// range is rejected.
// itemHi == -1 means "through the end of the catalogue", resolved against
// the file's header — the tail shard of an item partition uses it to
// follow catalogue growth across retrained models without reconfiguration.
func OpenMappedModelRange(path string, itemLo, itemHi int) (*MappedModelRange, error) {
	return mapRange(path, itemLo, itemHi, nil)
}

// mapRange is OpenMappedModelRange, also mapping the float32 sections into
// f32 when it is not nil (openSections).
func mapRange(path string, itemLo, itemHi int, f32 *[4][]float32) (*MappedModelRange, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: mapping model: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("core: mapping model: %w", err)
	}
	h, _, err := readV2Header(f)
	if err != nil {
		return nil, fmt.Errorf("core: mapping model %s: %w", path, err)
	}
	page := uint64(os.Getpagesize())
	var windows [][]byte
	// Each window is rounded down to a page boundary, as mmap requires; the
	// view skips the sub-page remainder.
	rr, err := openSections(h, uint64(st.Size()), itemLo, itemHi, f32, func(start, length uint64) ([]byte, error) {
		aligned := start &^ (page - 1)
		w, err := mmapFileAt(f, int64(aligned), int(start-aligned+length))
		if err != nil {
			return nil, err
		}
		windows = append(windows, w)
		return w[start-aligned:], nil
	})
	if err != nil {
		_ = munmapAll(windows)
		return nil, fmt.Errorf("core: mapping model %s: %w", path, err)
	}
	rr.windows = windows
	rr.cleanup = runtime.AddCleanup(rr, func(ws [][]byte) { _ = munmapAll(ws) }, windows)
	return rr, nil
}

// openSections is the one section walk behind every reader of a v2 file.
// Given the validated header h and the file's size, it builds the range
// [itemLo, itemHi) (itemHi == -1: through the last item) over the views
// window returns, each the length bytes at file offset start: one per
// present float64 section (0–3) in layout order fu, fi, bu, bi, and, when
// f32 is not nil, one per present float32 section (4–7) into f32 — the
// user sections (even) in full, the item sections (odd) across rows
// [itemLo, itemHi) only. The v2 layout aligns sections to v2Align and
// every row start is a multiple of the element size, so a view on an
// aligned base keeps the alignment the typed reinterpretations require; it
// is checked all the same, so the unsafe casts are provably sound.
func openSections(h v2Header, size uint64, itemLo, itemHi int, f32 *[4][]float32, window func(start, length uint64) ([]byte, error)) (*MappedModelRange, error) {
	if size != h.layout.size {
		return nil, fmt.Errorf("model is %d bytes, header says %d", size, h.layout.size)
	}
	if itemHi == -1 {
		itemHi = int(h.items)
	}
	if itemLo < 0 || itemHi > int(h.items) || itemLo >= itemHi {
		return nil, fmt.Errorf("item range [%d,%d) out of bounds for %d items", itemLo, itemHi, h.items)
	}
	rr := &MappedModelRange{
		k: int(h.k), users: int(h.users), items: int(h.items),
		lo: itemLo, hi: itemHi,
	}
	f64 := [4]*[]float64{&rr.fu, &rr.fi, &rr.bu, &rr.bi}
	for s, n := range sectionLens(h.k, h.users, h.items, h.bias, h.f32 && f32 != nil) {
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
		b, err := window(start, n*elem)
		if err != nil {
			return nil, err
		}
		p := unsafe.Pointer(&b[0])
		if uintptr(p)%uintptr(elem) != 0 {
			return nil, fmt.Errorf("section %d view not %d-byte aligned", s, elem)
		}
		if s < 4 {
			*f64[s] = unsafe.Slice((*float64)(p), n)
		} else {
			f32[s-4] = unsafe.Slice((*float32)(p), n)
		}
	}
	if itemLo == 0 && itemHi == rr.items {
		rr.view = &Model{k: rr.k, users: rr.users, items: rr.items,
			fu: rr.fu, fi: rr.fi, bu: rr.bu, bi: rr.bi, pin: rr}
	}
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
// everything a trained model does (fold-in, explanations,
// re-serialization). It is invalidated by Close; holding either the view
// or the range keeps the mapping alive.
func (rr *MappedModelRange) Model() *Model { return rr.view }

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

// String describes the mapped range.
func (rr *MappedModelRange) String() string {
	return fmt.Sprintf("core.MappedModelRange(K=%d, %d users, items [%d,%d) of %d, mmap)",
		rr.k, rr.users, rr.lo, rr.hi, rr.items)
}

// ScoreItems writes P[r_ui = 1] for every mapped item into dst (length
// Len(); dst[n] scores global item ItemLo+n), bit-identically to a
// heap-loaded model.
func (rr *MappedModelRange) ScoreItems(u int, dst []float64) {
	k := rr.k
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
	return munmapAll(windows)
}

// MappedModel is the whole-catalogue range [0, NumItems) under the name
// the rest of the code base scores a full model by, ScoreUser, plus
// Verify. Everything else — Model, Walk, Close, ... — is the
// range's own method.
type MappedModel struct {
	*MappedModelRange

	// f32 holds the file's float32 sections fu, fi, bu, bi in full, nil
	// where absent. Only Verify reads them; Close invalidates them with
	// the range's views.
	f32 [4][]float32
}

// OpenMappedModel maps the whole v2 model file at path: the range
// [0, items) of OpenMappedModelRange, plus the float32 sections, when the
// file carries them, for Verify.
func OpenMappedModel(path string) (*MappedModel, error) {
	mm := &MappedModel{}
	rr, err := mapRange(path, 0, -1, &mm.f32)
	if err != nil {
		return nil, err
	}
	mm.MappedModelRange = rr
	return mm, nil
}

// String describes the mapped model.
func (mm *MappedModel) String() string {
	return fmt.Sprintf("core.MappedModel(K=%d, %d users, %d items, mmap)", mm.k, mm.users, mm.items)
}

// ScoreUser is ScoreItems over the whole catalogue, implementing
// eval.Recommender.
func (mm *MappedModel) ScoreUser(u int, dst []float64) { mm.ScoreItems(u, dst) }

// Verify runs the full factor-domain scan the O(1) open intentionally
// skips: every float64 factor must be non-negative and finite, and every
// float32 section value must equal the quantization of its float64
// counterpart (no reader scores from those sections, but a file whose two
// copies disagree is corrupt all the same). It is the one validator of the
// factor sections: ReadModel and LoadModelFile run it before they copy, and
// ocular-trainer -once runs it on the artifact it saved. It costs O(model)
// and pages the whole mapping in; the serving hot path does not call it.
func (mm *MappedModel) Verify() error {
	f64s := [][]float64{mm.fu, mm.fi, mm.bu, mm.bi}
	for _, arr := range f64s {
		if err := checkFactors(arr); err != nil {
			return err
		}
	}
	for s, arr := range f64s {
		q := mm.f32[s]
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
