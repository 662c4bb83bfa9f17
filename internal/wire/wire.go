// Package wire is the binary columnar batch transport: a length-prefixed
// little-endian frame format carrying many users' top-M requests and
// responses in flat id/score columns, so the serving layer can write
// ranked lists straight from the rank engine's pooled buffers into an
// HTTP response with zero intermediate allocation in steady state.
//
// The format borrows the v2 model file's validation idiom (see
// core.parseV2Header): a fixed 64-byte header whose counts fully
// determine the layout. The decoder recomputes every section offset and
// the total frame length from those counts and rejects any frame whose
// declared length disagrees — wire offsets are never trusted, truncated
// or padded frames are rejected, and unknown magic, version or flag bits
// fail closed. Both decoders reuse the caller's column slices, so a
// serving loop decodes and encodes without allocating once warm.
//
// Request frame (POST /v2/batch; POST /v2/shard/topm: one or more users,
// which is how the router sends a whole batch to a shard in one call):
//
//	off  size  field
//	0     8    magic "OCuLaRq1" (the trailing "1" is the format version)
//	8     8    length: total frame bytes, header included
//	16    4    flags: must be zero (unknown bits rejected)
//	20    4    m: requested list length (0 = server default)
//	24    4    nUsers
//	28    4    nExclude
//	32    2    nAllow   (allow-tag count)
//	34    2    nDeny    (deny-tag count)
//	36    4    tenantLen
//	40    8    expectVersion: shard model-version pin (0 = unpinned;
//	           must be 0 on /v2/batch)
//	48   16    reserved, must be zero
//	64         users   [nUsers]uint32
//	           exclude [nExclude]uint32
//	           allow tags: nAllow × (uint16 len + bytes)
//	           deny  tags: nDeny  × (uint16 len + bytes)
//	           tenant bytes [tenantLen]
//
// Response frame:
//
//	off  size  field
//	0     8    magic "OCuLaRr1"
//	8     8    length: total frame bytes
//	16    4    flags: bit0 = shard partial (shardLo/shardHi meaningful),
//	           bit1 = router merge (modelVersion carries the route epoch)
//	20    4    m (the clamped list length the lists were ranked under)
//	24    4    nUsers
//	28    4    shardLo
//	32    4    shardHi
//	36    4    reserved, must be zero
//	40    8    modelVersion (route epoch when bit1 is set)
//	48   16    reserved, must be zero
//	64         status [nUsers]uint8 (bit0 error, bit1 cached, bit2 degraded)
//	           pad to 4-byte boundary, zero bytes
//	           counts [nUsers]uint32
//	           items  [T]uint32   where T = Σ counts (4-aligned by layout)
//	           pad to 8-byte boundary, zero bytes
//	           scores [T]float64 (IEEE-754 bits, little-endian)
//
// Every count is bounded by the declared frame length before a byte is
// read or a slice grown, so a hostile frame can never make the decoder
// allocate more than O(len(frame)) bytes.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

const (
	// MagicRequest and MagicResponse open every frame; the trailing byte
	// is the format version. An unknown magic or version is rejected with
	// ErrBadMagic so transports can answer a stable "bad_frame" error.
	MagicRequest  = "OCuLaRq1"
	MagicResponse = "OCuLaRr1"

	// HeaderSize is the fixed header length of both frame kinds.
	HeaderSize = 64

	// MaxFrameLen caps the declared frame length the decoders accept —
	// a backstop against absurd length fields on transports that forgot
	// their own body cap. 64 MiB holds a full MaxBatch×MaxM response.
	MaxFrameLen = 64 << 20
)

// The header layout of the tables above, each field's offset named once
// and used by the encoders, the decoders and SetExpectVersion alike. Both
// kinds share the prologue, m and nUsers; past them a request's fields and
// a response's overlay the same bytes.
const (
	offMagic  = 0  // both: magic
	offLength = 8  // both: total frame bytes
	offFlags  = 16 // both: flags
	offM      = 20 // both: m
	offUsers  = 24 // both: nUsers

	offExclude       = 28 // request: nExclude
	offAllow         = 32 // request: nAllow
	offDeny          = 34 // request: nDeny
	offTenant        = 36 // request: tenantLen
	offExpectVersion = 40 // request: expectVersion

	offShardLo      = 28 // response: shardLo
	offShardHi      = 32 // response: shardHi
	offPad          = 36 // response: reserved word, zero
	offModelVersion = 40 // response: modelVersion

	offReserved = 48 // both: reserved through HeaderSize, zero
)

// Response status-column bits, one byte per user.
const (
	// StatusError marks a user slot that failed (out of range, filter
	// rejection, shard outage); its count is zero.
	StatusError = 1 << 0
	// StatusCached marks a list answered from a cache or coalesced with
	// another request's computation.
	StatusCached = 1 << 1
	// StatusDegraded marks a router merge assembled from surviving
	// shards only (cluster.Config.AllowDegraded).
	StatusDegraded = 1 << 2
)

// Response header flag bits.
const (
	// FlagShardPartial marks a shard's partition partial: shardLo and
	// shardHi describe the item range the lists were ranked over.
	FlagShardPartial = 1 << 0
	// FlagRouterMerge marks a router scatter-gather response; the
	// modelVersion field carries the route-table epoch instead.
	FlagRouterMerge = 1 << 1
)

// ErrBadMagic reports a frame that is not this format (or not this
// version). Transports answer it with the stable "bad_frame" error code.
type ErrBadMagic struct {
	got [8]byte
}

func (e *ErrBadMagic) Error() string {
	return fmt.Sprintf("wire: bad frame magic %q (want %q or %q)", e.got[:], MagicRequest, MagicResponse)
}

// BatchRequest is the decoded form of a request frame. Decoding reuses
// the slices across calls (capacity kept, length reset), so a warm
// serving loop allocates only when a request grows past everything seen
// before — or carries tags or a tenant, whose strings must be copied out
// of the frame.
type BatchRequest struct {
	M             uint32
	ExpectVersion uint64
	Users         []uint32
	Exclude       []uint32
	AllowTags     []string
	DenyTags      []string
	Tenant        string
}

// BatchResponse is the decoded form of a response frame, and the
// column set the encoder writes from. Items holds the concatenated
// per-user lists; Counts says where each user's slice ends.
type BatchResponse struct {
	Flags        uint32
	M            uint32
	ShardLo      uint32
	ShardHi      uint32
	ModelVersion uint64
	Status       []uint8
	Counts       []uint32
	Items        []uint32
	Scores       []float64
}

func align4(n int) int { return (n + 3) &^ 3 }
func align8(n int) int { return (n + 7) &^ 7 }

// requestLen recomputes the exact frame length of a request with the
// given section sizes (tag wire size passed precomputed).
func requestLen(nUsers, nExclude, tagBytes, tenantLen int) int {
	return HeaderSize + 4*nUsers + 4*nExclude + tagBytes + tenantLen
}

// responseLen recomputes the exact frame length of a response carrying
// nUsers lists totalling t items, along with the items/scores offsets.
func responseLen(nUsers, t int) (itemsOff, scoresOff, total int) {
	countsOff := align4(HeaderSize + nUsers)
	itemsOff = countsOff + 4*nUsers
	scoresOff = align8(itemsOff + 4*t)
	return itemsOff, scoresOff, scoresOff + 8*t
}

// MaxResponseLen is the length of the largest response frame a request for
// nUsers lists of at most m items each can legally draw — what a client
// bounds its read by, instead of a constant.
func MaxResponseLen(nUsers, m int) int {
	_, _, total := responseLen(nUsers, nUsers*m)
	return total
}

// SetExpectVersion rewrites the version pin of an encoded request frame in
// place. It is the one field in which the per-shard copies of a scatter
// differ, so a router encodes the frame once and patches each copy.
func SetExpectVersion(frame []byte, version uint64) {
	binary.LittleEndian.PutUint64(frame[offExpectVersion:], version)
}

// AppendBatchRequest appends req as one request frame to dst and returns
// the extended slice. With a reused dst (capacity kept across calls) the
// steady state allocates nothing. A request that cannot be represented —
// a tag count or tag length past the uint16 wire fields — is rejected
// here rather than silently truncated into a frame decoders would call
// malformed; dst is returned unextended alongside the error.
func AppendBatchRequest(dst []byte, req *BatchRequest) ([]byte, error) {
	if len(req.AllowTags) > math.MaxUint16 || len(req.DenyTags) > math.MaxUint16 {
		return dst, fmt.Errorf("wire: %d allow + %d deny tags exceed the uint16 count fields",
			len(req.AllowTags), len(req.DenyTags))
	}
	tagBytes := 0
	for _, tags := range [2][]string{req.AllowTags, req.DenyTags} {
		for _, t := range tags {
			if len(t) > math.MaxUint16 {
				return dst, fmt.Errorf("wire: tag of %d bytes exceeds the uint16 length field", len(t))
			}
			tagBytes += 2 + len(t)
		}
	}
	total := requestLen(len(req.Users), len(req.Exclude), tagBytes, len(req.Tenant))
	dst = grow(dst, total)
	hdr := dst[len(dst)-total:]
	for i := range hdr[:HeaderSize] {
		hdr[i] = 0
	}
	copy(hdr[offMagic:], MagicRequest)
	binary.LittleEndian.PutUint64(hdr[offLength:], uint64(total))
	binary.LittleEndian.PutUint32(hdr[offM:], req.M)
	binary.LittleEndian.PutUint32(hdr[offUsers:], uint32(len(req.Users)))
	binary.LittleEndian.PutUint32(hdr[offExclude:], uint32(len(req.Exclude)))
	binary.LittleEndian.PutUint16(hdr[offAllow:], uint16(len(req.AllowTags)))
	binary.LittleEndian.PutUint16(hdr[offDeny:], uint16(len(req.DenyTags)))
	binary.LittleEndian.PutUint32(hdr[offTenant:], uint32(len(req.Tenant)))
	binary.LittleEndian.PutUint64(hdr[offExpectVersion:], req.ExpectVersion)
	at := HeaderSize
	for _, u := range req.Users {
		binary.LittleEndian.PutUint32(hdr[at:], u)
		at += 4
	}
	for _, e := range req.Exclude {
		binary.LittleEndian.PutUint32(hdr[at:], e)
		at += 4
	}
	for _, tags := range [2][]string{req.AllowTags, req.DenyTags} {
		for _, t := range tags {
			binary.LittleEndian.PutUint16(hdr[at:], uint16(len(t)))
			at += 2
			copy(hdr[at:], t)
			at += len(t)
		}
	}
	copy(hdr[at:], req.Tenant)
	return dst, nil
}

// DecodeBatchRequest parses one request frame into req, reusing its
// slices. The frame must be exactly data: a declared length disagreeing
// with len(data), or with the length recomputed from the section counts,
// is rejected.
func DecodeBatchRequest(data []byte, req *BatchRequest) error {
	if err := checkHeader(data, MagicRequest); err != nil {
		return err
	}
	if flags := binary.LittleEndian.Uint32(data[offFlags:]); flags != 0 {
		return fmt.Errorf("wire: unknown request flags %#x", flags)
	}
	req.M = binary.LittleEndian.Uint32(data[offM:])
	nUsers := int(binary.LittleEndian.Uint32(data[offUsers:]))
	nExclude := int(binary.LittleEndian.Uint32(data[offExclude:]))
	nAllow := int(binary.LittleEndian.Uint16(data[offAllow:]))
	nDeny := int(binary.LittleEndian.Uint16(data[offDeny:]))
	tenantLen := int(binary.LittleEndian.Uint32(data[offTenant:]))
	req.ExpectVersion = binary.LittleEndian.Uint64(data[offExpectVersion:])
	if err := reservedZero(data[offReserved:HeaderSize]); err != nil {
		return err
	}
	// Bound every count by what the frame can physically hold before
	// growing any slice: each user or exclusion costs 4 bytes, each tag
	// at least 2, so a hostile header cannot force an allocation larger
	// than the frame itself. The per-count bounds also keep each term
	// below MaxFrameLen, so the joint sum — which the fixed-width reads
	// below rely on — cannot overflow.
	body := len(data) - HeaderSize
	if nUsers > body/4 || nExclude > body/4 || tenantLen > body || (nAllow+nDeny) > body/2 ||
		4*nUsers+4*nExclude+2*(nAllow+nDeny)+tenantLen > body {
		return fmt.Errorf("wire: header counts exceed the %d-byte frame", len(data))
	}
	at := HeaderSize
	req.Users = growU32(req.Users[:0], nUsers)
	for i := 0; i < nUsers; i++ {
		req.Users[i] = binary.LittleEndian.Uint32(data[at:])
		at += 4
	}
	req.Exclude = growU32(req.Exclude[:0], nExclude)
	for i := 0; i < nExclude; i++ {
		req.Exclude[i] = binary.LittleEndian.Uint32(data[at:])
		at += 4
	}
	tagAt := at
	var err error
	if req.AllowTags, at, err = decodeTags(data, at, nAllow, req.AllowTags[:0]); err != nil {
		return err
	}
	if req.DenyTags, at, err = decodeTags(data, at, nDeny, req.DenyTags[:0]); err != nil {
		return err
	}
	if at+tenantLen > len(data) {
		return fmt.Errorf("wire: tenant overruns the frame")
	}
	req.Tenant = string(data[at : at+tenantLen])
	at += tenantLen
	// Recompute-and-reject: the walked cursor must land exactly on the
	// declared (and actual) end — a frame with slack bytes is as invalid
	// as a truncated one.
	if want := requestLen(nUsers, nExclude, at-tenantLen-tagAt, tenantLen); at != len(data) || want != len(data) {
		return fmt.Errorf("wire: frame length %d disagrees with recomputed layout %d", len(data), want)
	}
	return nil
}

// decodeTags reads n length-prefixed tag strings starting at 'at'.
func decodeTags(data []byte, at, n int, dst []string) ([]string, int, error) {
	for i := 0; i < n; i++ {
		if at+2 > len(data) {
			return dst, at, fmt.Errorf("wire: tag %d overruns the frame", i)
		}
		l := int(binary.LittleEndian.Uint16(data[at:]))
		at += 2
		if at+l > len(data) {
			return dst, at, fmt.Errorf("wire: tag %d overruns the frame", i)
		}
		dst = append(dst, string(data[at:at+l]))
		at += l
	}
	return dst, at, nil
}

// AppendBatchResponse appends resp as one response frame to dst and
// returns the extended slice — the zero-copy half of the transport: the
// Items/Scores columns are the caller's pooled columns the rank engine
// copied its lists into, written straight into the output buffer. len(resp.Items) and
// len(resp.Scores) must equal the sum of resp.Counts, and len(resp.Status)
// must equal len(resp.Counts); the encoder panics otherwise (a malformed
// response is a server bug, never client input).
func AppendBatchResponse(dst []byte, resp *BatchResponse) []byte {
	nUsers := len(resp.Counts)
	t := 0
	for _, c := range resp.Counts {
		t += int(c)
	}
	if len(resp.Items) != t || len(resp.Scores) != t || len(resp.Status) != nUsers {
		panic("wire: AppendBatchResponse column lengths disagree with counts")
	}
	itemsOff, scoresOff, total := responseLen(nUsers, t)
	dst = grow(dst, total)
	hdr := dst[len(dst)-total:]
	for i := range hdr[:HeaderSize] {
		hdr[i] = 0
	}
	copy(hdr[offMagic:], MagicResponse)
	binary.LittleEndian.PutUint64(hdr[offLength:], uint64(total))
	binary.LittleEndian.PutUint32(hdr[offFlags:], resp.Flags)
	binary.LittleEndian.PutUint32(hdr[offM:], resp.M)
	binary.LittleEndian.PutUint32(hdr[offUsers:], uint32(nUsers))
	binary.LittleEndian.PutUint32(hdr[offShardLo:], resp.ShardLo)
	binary.LittleEndian.PutUint32(hdr[offShardHi:], resp.ShardHi)
	binary.LittleEndian.PutUint64(hdr[offModelVersion:], resp.ModelVersion)
	copy(hdr[HeaderSize:], resp.Status)
	for i := HeaderSize + nUsers; i < align4(HeaderSize+nUsers); i++ {
		hdr[i] = 0
	}
	at := align4(HeaderSize + nUsers)
	for _, c := range resp.Counts {
		binary.LittleEndian.PutUint32(hdr[at:], c)
		at += 4
	}
	if at != itemsOff {
		panic("wire: items offset miscomputed")
	}
	for _, it := range resp.Items {
		binary.LittleEndian.PutUint32(hdr[at:], it)
		at += 4
	}
	for ; at < scoresOff; at++ {
		hdr[at] = 0
	}
	for _, s := range resp.Scores {
		binary.LittleEndian.PutUint64(hdr[at:], math.Float64bits(s))
		at += 8
	}
	return dst
}

// DecodeBatchResponse parses one response frame into resp, reusing its
// slices. Layout validation mirrors the request decoder: every offset is
// recomputed from the header counts and the counts column, and the
// declared length must equal both len(data) and the recomputed total.
// Unknown flag bits are rejected. Padding bytes must be zero.
func DecodeBatchResponse(data []byte, resp *BatchResponse) error {
	if err := checkHeader(data, MagicResponse); err != nil {
		return err
	}
	resp.Flags = binary.LittleEndian.Uint32(data[offFlags:])
	if resp.Flags&^uint32(FlagShardPartial|FlagRouterMerge) != 0 {
		return fmt.Errorf("wire: unknown response flags %#x", resp.Flags)
	}
	resp.M = binary.LittleEndian.Uint32(data[offM:])
	nUsers := int(binary.LittleEndian.Uint32(data[offUsers:]))
	resp.ShardLo = binary.LittleEndian.Uint32(data[offShardLo:])
	resp.ShardHi = binary.LittleEndian.Uint32(data[offShardHi:])
	if binary.LittleEndian.Uint32(data[offPad:]) != 0 {
		return fmt.Errorf("wire: reserved header word is non-zero")
	}
	resp.ModelVersion = binary.LittleEndian.Uint64(data[offModelVersion:])
	if err := reservedZero(data[offReserved:HeaderSize]); err != nil {
		return err
	}
	// Status + counts alone cost 5 bytes per user; bound nUsers by that
	// before any slice grows.
	if nUsers > (len(data)-HeaderSize)/5 {
		return fmt.Errorf("wire: header counts exceed the %d-byte frame", len(data))
	}
	resp.Status = append(resp.Status[:0], data[HeaderSize:HeaderSize+nUsers]...)
	for i := HeaderSize + nUsers; i < align4(HeaderSize+nUsers); i++ {
		if data[i] != 0 {
			return fmt.Errorf("wire: non-zero padding byte at %d", i)
		}
	}
	at := align4(HeaderSize + nUsers)
	if at+4*nUsers > len(data) {
		return fmt.Errorf("wire: counts column overruns the frame")
	}
	resp.Counts = growU32(resp.Counts[:0], nUsers)
	t := 0
	for i := 0; i < nUsers; i++ {
		c := binary.LittleEndian.Uint32(data[at:])
		resp.Counts[i] = c
		t += int(c)
		at += 4
	}
	// T items cost 12 bytes each (4 id + 8 score); reject before growing.
	if t > (len(data)-at)/12 {
		return fmt.Errorf("wire: counts total %d exceeds the %d-byte frame", t, len(data))
	}
	itemsOff, scoresOff, total := responseLen(nUsers, t)
	if total != len(data) || at != itemsOff {
		return fmt.Errorf("wire: frame length %d disagrees with recomputed layout %d", len(data), total)
	}
	resp.Items = growU32(resp.Items[:0], t)
	for i := 0; i < t; i++ {
		resp.Items[i] = binary.LittleEndian.Uint32(data[at:])
		at += 4
	}
	for ; at < scoresOff; at++ {
		if data[at] != 0 {
			return fmt.Errorf("wire: non-zero padding byte at %d", at)
		}
	}
	resp.Scores = growF64(resp.Scores[:0], t)
	for i := 0; i < t; i++ {
		resp.Scores[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[at:]))
		at += 8
	}
	return nil
}

// checkHeader validates the shared frame prologue: minimum size, magic,
// and a declared length equal to the bytes actually presented.
func checkHeader(data []byte, magic string) error {
	if len(data) < HeaderSize {
		return fmt.Errorf("wire: frame of %d bytes is shorter than the %d-byte header", len(data), HeaderSize)
	}
	if string(data[offMagic:offLength]) != magic {
		var e ErrBadMagic
		copy(e.got[:], data[offMagic:offLength])
		return &e
	}
	length := binary.LittleEndian.Uint64(data[offLength:])
	if length > MaxFrameLen {
		return fmt.Errorf("wire: declared frame length %d exceeds the %d-byte cap", length, MaxFrameLen)
	}
	if length != uint64(len(data)) {
		return fmt.Errorf("wire: declared frame length %d but %d bytes presented", length, len(data))
	}
	return nil
}

func reservedZero(b []byte) error {
	for _, c := range b {
		if c != 0 {
			return fmt.Errorf("wire: reserved header bytes are non-zero")
		}
	}
	return nil
}

// grow extends dst by n bytes (contents unspecified), reusing capacity.
func grow(dst []byte, n int) []byte {
	if len(dst)+n <= cap(dst) {
		return dst[:len(dst)+n]
	}
	return append(dst, make([]byte, n)...)
}

func growU32(dst []uint32, n int) []uint32 {
	if n <= cap(dst) {
		return dst[:n]
	}
	return make([]uint32, n)
}

func growF64(dst []float64, n int) []float64 {
	if n <= cap(dst) {
		return dst[:n]
	}
	return make([]float64, n)
}
