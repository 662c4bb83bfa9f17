package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/fsutil"
)

// The serialized model format is versioned through the trailing magic
// digit.
//
// v1 ("OCuLaR:1") was a plain stream: magic, four uint64 dimensions, then
// the factor (and bias) arrays back to back. Nothing writes it any more;
// readers recognise its magic only to reject it with ErrLegacyFormat.
//
// v2 ("OCuLaR:2") is the mappable format: a fixed 128-byte header followed
// by page-aligned little-endian sections, optionally including a
// float32-quantized copy of every factor section that no reader scores
// from (MappedModel.Verify checks it against the float64 sections).
// Layout:
//
//	offset   0  magic "OCuLaR:2"
//	offset   8  K, users, items, flags     (4 × uint64 LE)
//	offset  40  section offset table       (8 × uint64 LE)
//	offset 104  total file size            (uint64 LE)
//	offset 112  reserved, must be zero     (16 bytes)
//	offset 128… zero padding, then sections, each aligned to 4096 bytes
//
// The section order is fixed: fu64, fi64, bu64, bi64, fu32, fi32, bu32,
// bi32; absent sections (per the flags) have offset 0. Because the layout
// is fully determined by (K, users, items, flags), readers recompute it
// and reject any offset table that disagrees — the table exists so that
// external tools can seek without reimplementing the layout rules.
const (
	magicV1 = "OCuLaR:1"
	magicV2 = "OCuLaR:2"

	v2HeaderSize = 128
	v2Align      = 4096 // section alignment; matches common page sizes

	v2FlagBias = 1 << 0 // bias sections present
	v2FlagF32  = 1 << 1 // float32 factor sections present
)

// The v2 header's fields, each at its offset from the start of the file,
// named once for the writer and the parser alike.
const (
	v2OffMagic    = 0
	v2OffK        = 8
	v2OffUsers    = 16
	v2OffItems    = 24
	v2OffFlags    = 32
	v2OffSections = 40 // 8 × uint64, one per section in fixed order
	v2OffSize     = 104
	v2OffReserved = 112 // through v2HeaderSize
)

// maxModelDim bounds the accepted dimensions when reading, as a guard
// against corrupt or hostile headers allocating absurd amounts of memory.
const maxModelDim = 1 << 28

// SaveOptions configures the v2 writer.
type SaveOptions struct {
	// Float32 appends a float32-quantized copy of every factor section,
	// shaped like the artifacts already on disk. No reader scores from the
	// copy: every served score comes from the float64 sections, and
	// MappedModel.Verify only checks that the copy agrees with them. Costs
	// 50% extra file size.
	Float32 bool
}

// v2Layout is the computed byte layout of a v2 file: one offset per
// section in fixed order (absent sections keep offset 0) and the total
// file size.
type v2Layout struct {
	off  [8]uint64
	size uint64
}

// sectionLens returns the element count of each of the eight sections
// (zero when absent).
func sectionLens(k, users, items uint64, bias, f32 bool) [8]uint64 {
	var n [8]uint64
	n[0], n[1] = users*k, items*k
	if bias {
		n[2], n[3] = users, items
	}
	if f32 {
		n[4], n[5] = users*k, items*k
		if bias {
			n[6], n[7] = users, items
		}
	}
	return n
}

// layoutV2 computes the unique layout for the given shape: sections in
// fixed order, each starting on a v2Align boundary.
func layoutV2(k, users, items uint64, bias, f32 bool) v2Layout {
	lens := sectionLens(k, users, items, bias, f32)
	var l v2Layout
	pos := uint64(v2HeaderSize)
	for s, n := range lens {
		if n == 0 && s >= 2 { // fu64/fi64 are always present, even if empty
			continue
		}
		pos = (pos + v2Align - 1) &^ uint64(v2Align-1)
		l.off[s] = pos
		elem := uint64(8)
		if s >= 4 {
			elem = 4
		}
		pos += n * elem
	}
	l.size = pos
	return l
}

// v2Header is the parsed and validated header of a v2 model file.
type v2Header struct {
	k, users, items uint64
	bias, f32       bool
	layout          v2Layout
}

// parseV2Header parses and validates the first bytes of a model file — all
// of them when there are fewer than v2HeaderSize. It is the one magic
// check: a v1 magic yields ErrLegacyFormat, whatever the length. It then
// checks the dimensions against the size guard, rejects unknown flags and
// non-zero reserved bytes, and requires the stored offset table and file
// size to equal the recomputed canonical layout — so a reader that trusts
// the header never needs to scan the factor sections to know they are in
// bounds.
func parseV2Header(hdr []byte) (v2Header, error) {
	magic := string(hdr[:min(len(hdr), len(magicV2))])
	switch {
	case magic == magicV1:
		return v2Header{}, ErrLegacyFormat
	case len(magic) == len(magicV2) && magic != magicV2:
		return v2Header{}, fmt.Errorf("core: bad model magic %q (want %q)", magic, magicV2)
	case len(hdr) < v2HeaderSize:
		return v2Header{}, fmt.Errorf("core: model of %d bytes is too small for a v2 header", len(hdr))
	}
	le := binary.LittleEndian
	h := v2Header{
		k:     le.Uint64(hdr[v2OffK:]),
		users: le.Uint64(hdr[v2OffUsers:]),
		items: le.Uint64(hdr[v2OffItems:]),
	}
	flags := le.Uint64(hdr[v2OffFlags:])
	switch {
	case h.k == 0 || h.k > maxModelDim:
		return v2Header{}, fmt.Errorf("core: implausible K=%d in model header", h.k)
	case h.users > maxModelDim || h.items > maxModelDim:
		return v2Header{}, fmt.Errorf("core: implausible shape %dx%d in model header", h.users, h.items)
	case h.users*h.k > maxModelDim || h.items*h.k > maxModelDim:
		return v2Header{}, fmt.Errorf("core: model %dx%d with K=%d exceeds size guard", h.users, h.items, h.k)
	case flags&^uint64(v2FlagBias|v2FlagF32) != 0:
		return v2Header{}, fmt.Errorf("core: unknown flags %#x in model header", flags)
	}
	h.bias = flags&v2FlagBias != 0
	h.f32 = flags&v2FlagF32 != 0
	for _, b := range hdr[v2OffReserved:] {
		if b != 0 {
			return v2Header{}, fmt.Errorf("core: non-zero reserved bytes in model header")
		}
	}
	h.layout = layoutV2(h.k, h.users, h.items, h.bias, h.f32)
	for s := range h.layout.off {
		if got := le.Uint64(hdr[v2OffSections+8*s:]); got != h.layout.off[s] {
			return v2Header{}, fmt.Errorf("core: section %d offset %d disagrees with canonical layout (%d)", s, got, h.layout.off[s])
		}
	}
	if got := le.Uint64(hdr[v2OffSize:]); got != h.layout.size {
		return v2Header{}, fmt.Errorf("core: file size %d in header disagrees with canonical layout (%d)", got, h.layout.size)
	}
	return h, nil
}

// readV2Header reads the first v2HeaderSize bytes of r — fewer if r ends
// first — and parses them, returning the header and its bytes.
func readV2Header(r io.Reader) (v2Header, []byte, error) {
	hdr := make([]byte, v2HeaderSize)
	n, err := io.ReadFull(r, hdr)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return v2Header{}, nil, fmt.Errorf("core: reading model header: %w", err)
	}
	h, err := parseV2Header(hdr[:n])
	return h, hdr, err
}

type byteCounter struct {
	w io.Writer
	n int64
}

func (c *byteCounter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// WriteTo serializes the model in format v2 without the float32 section.
// It implements io.WriterTo; use WriteToV2 to choose SaveOptions.
func (m *Model) WriteTo(w io.Writer) (int64, error) {
	return m.WriteToV2(w, SaveOptions{})
}

// WriteToV2 serializes the model in format v2 (see the package layout
// comment above). The float64 sections hold the exact training bits; with
// opts.Float32 a quantized copy of each factor section is appended.
func (m *Model) WriteToV2(w io.Writer, opts SaveOptions) (int64, error) {
	bias := m.bu != nil
	l := layoutV2(uint64(m.k), uint64(m.users), uint64(m.items), bias, opts.Float32)

	cw := &byteCounter{w: w}
	bw := bufio.NewWriterSize(cw, 1<<16)
	le := binary.LittleEndian

	hdr := make([]byte, v2HeaderSize)
	copy(hdr[v2OffMagic:], magicV2)
	le.PutUint64(hdr[v2OffK:], uint64(m.k))
	le.PutUint64(hdr[v2OffUsers:], uint64(m.users))
	le.PutUint64(hdr[v2OffItems:], uint64(m.items))
	flags := uint64(0)
	if bias {
		flags |= v2FlagBias
	}
	if opts.Float32 {
		flags |= v2FlagF32
	}
	le.PutUint64(hdr[v2OffFlags:], flags)
	for s := range l.off {
		le.PutUint64(hdr[v2OffSections+8*s:], l.off[s])
	}
	le.PutUint64(hdr[v2OffSize:], l.size)
	if _, err := bw.Write(hdr); err != nil {
		return cw.n, err
	}

	pos := uint64(v2HeaderSize)
	zeros := make([]byte, v2Align)
	padTo := func(off uint64) error {
		for pos < off {
			n := off - pos
			if n > uint64(len(zeros)) {
				n = uint64(len(zeros))
			}
			if _, err := bw.Write(zeros[:n]); err != nil {
				return err
			}
			pos += n
		}
		return nil
	}
	// Factor sections go through bounded chunks: binary.Write on a whole
	// slice transiently allocates a byte copy of it, which would double
	// peak memory for a large model.
	const chunk = 8192
	f64s := [4][]float64{m.fu, m.fi, m.bu, m.bi}
	for s, arr := range f64s {
		if s >= 2 && len(arr) == 0 {
			continue
		}
		if err := padTo(l.off[s]); err != nil {
			return cw.n, err
		}
		for start := 0; start < len(arr); start += chunk {
			if err := binary.Write(bw, le, arr[start:min(start+chunk, len(arr))]); err != nil {
				return cw.n, err
			}
		}
		pos += 8 * uint64(len(arr))
	}
	if opts.Float32 {
		buf := make([]float32, 4096)
		for s, arr := range f64s {
			if s >= 2 && len(arr) == 0 {
				continue
			}
			if err := padTo(l.off[4+s]); err != nil {
				return cw.n, err
			}
			for start := 0; start < len(arr); start += len(buf) {
				end := min(start+len(buf), len(arr))
				chunk := buf[:end-start]
				for j := range chunk {
					chunk[j] = float32(arr[start+j])
				}
				if err := binary.Write(bw, le, chunk); err != nil {
					return cw.n, err
				}
			}
			pos += 4 * uint64(len(arr))
		}
	}
	err := bw.Flush()
	return cw.n, err
}

// SaveModelFile writes the model to path atomically in format v2, without
// the float32 section; SaveModelFileOpts chooses. The bytes land in a
// sibling temporary file which is renamed over path only after a
// successful write and sync, and the parent directory is fsynced after
// the rename, so a crash at any point leaves either the old or the new
// model durably at path — never a truncated one, and never a rename that
// evaporates with the directory's dirty metadata. The temp file is
// created with mode 0644 (subject to the umask, like a plain create), so
// a serving process under another user can read the model. The temp name
// carries a per-process, per-call unique suffix, so concurrent saves to
// the same path (a trainer daemon racing a manual cmd/ocular -save)
// cannot clobber each other's in-flight bytes; they still race at the
// rename, where last-writer-wins over complete files is the best either
// could ask for.
func (m *Model) SaveModelFile(path string) error {
	return m.SaveModelFileOpts(path, SaveOptions{})
}

// saveSeq disambiguates temp files of concurrent saves within one
// process; the pid disambiguates across processes sharing a directory,
// and the random component covers processes whose pids collide anyway —
// two containers both running as pid 1 against a shared volume would
// otherwise deterministically race on the same temp name.
var saveSeq atomic.Uint64

// saveTempPath returns a temp-file sibling of path unique to this call.
func saveTempPath(path string) string {
	return fmt.Sprintf("%s.tmp.%d.%d.%08x", path, os.Getpid(), saveSeq.Add(1), rand.Uint32())
}

// staleTempAge is how old a sibling temp file must be before a save
// sweeps it: long past any live save's write window, so only crash
// litter qualifies.
const staleTempAge = time.Hour

// sweepStaleTemps deletes crash litter (model temp files abandoned by a
// killed writer) next to path. With per-call unique temp names the
// litter would otherwise accumulate forever — unlike the old fixed
// ".tmp" name, no later save truncates it implicitly. Only files older
// than staleTempAge are removed so a concurrent save's in-flight temp
// (the thing unique names exist to protect) is never swept. Best-effort:
// errors are ignored, the save itself does not depend on it.
func sweepStaleTemps(path string) {
	matches, err := filepath.Glob(path + ".tmp.*")
	if err != nil {
		return
	}
	for _, m := range matches {
		if st, err := os.Stat(m); err == nil && time.Since(st.ModTime()) > staleTempAge {
			os.Remove(m)
		}
	}
}

// SaveModelFileOpts is SaveModelFile with explicit SaveOptions.
func (m *Model) SaveModelFileOpts(path string, opts SaveOptions) error {
	sweepStaleTemps(path)
	tmpPath := saveTempPath(path)
	// O_EXCL: a name collision (astronomically unlikely given the random
	// suffix) must fail loudly rather than risk two writers sharing one
	// in-flight file. Crash litter is handled by sweepStaleTemps, never
	// by reclaiming a name that could belong to a live writer.
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("core: saving model: %w", err)
	}
	defer os.Remove(tmpPath)
	if _, err := m.WriteToV2(tmp, opts); err != nil {
		tmp.Close()
		return fmt.Errorf("core: saving model: %w", err)
	}
	fsutil.Wrote(tmpPath)
	// Flush to stable storage before the rename so a crash cannot leave a
	// durably-renamed but truncated model at path.
	if err := fsutil.Sync(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("core: saving model: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("core: saving model: %w", err)
	}
	if err := fsutil.Rename(tmpPath, path); err != nil {
		return fmt.Errorf("core: saving model: %w", err)
	}
	// The rename only becomes durable once the directory entry reaches
	// stable storage; without this a crash after SaveModelFile returns
	// could still roll back to the old model (or to nothing, for a first
	// save).
	return fsyncDir(filepath.Dir(path))
}

// fsyncDir points at syncDir; tests swap it to observe that every
// successful save makes its rename durable.
var fsyncDir = syncDir

// syncDir makes previously-renamed entries durable via the shared
// directory-fsync helper, with this package's error prefix.
func syncDir(dir string) error {
	if err := fsutil.SyncDir(dir); err != nil {
		return fmt.Errorf("core: saving model: %w", err)
	}
	return nil
}

// LoadModelFile reads a model saved with SaveModelFile (or WriteTo) into
// memory. It opens the file through OpenMappedModel — so the file size is
// checked against the header before anything is mapped — runs Verify, and
// copies the float64 factors out before it closes the mapping. A v1 file
// yields an error wrapping ErrLegacyFormat. Serving paths that reload
// frequently should keep the mapping instead: OpenMappedModel is O(1).
func LoadModelFile(path string) (*Model, error) {
	mm, err := OpenMappedModel(path)
	if err != nil {
		return nil, err
	}
	defer mm.Close()
	return heapCopy(mm)
}

// ReadModel deserializes a model written by WriteTo/WriteToV2. It buffers
// the stream — at most the size its header declares plus one byte, which
// exposes trailing data, and only as bytes arrive, so a header alone never
// makes it allocate — then opens the buffer through the section walk of
// OpenMappedModel and checks it as LoadModelFile does. A legacy v1 stream
// is refused with an error wrapping ErrLegacyFormat.
func ReadModel(r io.Reader) (*Model, error) {
	h, hdr, err := readV2Header(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading model: %w", err)
	}
	buf := bytes.NewBuffer(hdr)
	if _, err := buf.ReadFrom(io.LimitReader(r, int64(h.layout.size-v2HeaderSize)+1)); err != nil {
		return nil, fmt.Errorf("core: reading model: %w", err)
	}
	data := buf.Bytes()
	mm := &MappedModel{}
	rr, err := openSections(h, uint64(len(data)), 0, -1, &mm.f32, func(start, length uint64) ([]byte, error) {
		return data[start : start+length], nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: reading model: %w", err)
	}
	mm.MappedModelRange = rr
	return heapCopy(mm)
}

// heapCopy is the one exit of both heap loaders: it runs Verify over mm and
// copies its float64 sections into a heap Model. The float32 sections,
// once checked against the float64 factors, stay behind.
func heapCopy(mm *MappedModel) (*Model, error) {
	if err := mm.Verify(); err != nil {
		return nil, err
	}
	return &Model{k: mm.k, users: mm.users, items: mm.items,
		fu: slices.Clone(mm.fu), fi: slices.Clone(mm.fi), bu: slices.Clone(mm.bu), bi: slices.Clone(mm.bi)}, nil
}

// checkFactors rejects values outside the model domain: factors and
// biases are non-negative and finite by construction.
func checkFactors(arr []float64) error {
	for _, v := range arr {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: corrupt model: factor %v out of domain", v)
		}
	}
	return nil
}
