package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// mustAppend encodes a request the test knows to be representable.
func mustAppend(tb testing.TB, dst []byte, req *BatchRequest) []byte {
	tb.Helper()
	frame, err := AppendBatchRequest(dst, req)
	if err != nil {
		tb.Fatalf("append request: %v", err)
	}
	return frame
}

func sampleRequest() *BatchRequest {
	return &BatchRequest{
		M:             25,
		ExpectVersion: 7,
		Users:         []uint32{0, 3, 99, 1 << 20},
		Exclude:       []uint32{5, 6},
		AllowTags:     []string{"drama", "comedy"},
		DenyTags:      []string{"kids"},
		Tenant:        "acme",
	}
}

func sampleResponse() *BatchResponse {
	return &BatchResponse{
		Flags:        FlagShardPartial,
		M:            3,
		ShardLo:      10,
		ShardHi:      50,
		ModelVersion: 4,
		Status:       []uint8{0, StatusCached, StatusError},
		Counts:       []uint32{3, 2, 0},
		Items:        []uint32{11, 12, 13, 21, 22},
		Scores:       []float64{0.9, 0.8, 0.7, 0.99, 0.1},
	}
}

func TestRequestRoundTrip(t *testing.T) {
	want := sampleRequest()
	frame := mustAppend(t, nil, want)
	var got BatchRequest
	if err := DecodeBatchRequest(frame, &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.M != want.M || got.ExpectVersion != want.ExpectVersion || got.Tenant != want.Tenant {
		t.Fatalf("scalar mismatch: got %+v want %+v", got, *want)
	}
	if !equalU32(got.Users, want.Users) || !equalU32(got.Exclude, want.Exclude) {
		t.Fatalf("column mismatch: got %+v want %+v", got, *want)
	}
	if strings.Join(got.AllowTags, ",") != "drama,comedy" || strings.Join(got.DenyTags, ",") != "kids" {
		t.Fatalf("tags mismatch: %+v", got)
	}
}

func TestRequestRoundTripEmptySections(t *testing.T) {
	want := &BatchRequest{M: 10, Users: []uint32{1}}
	frame := mustAppend(t, nil, want)
	var got BatchRequest
	if err := DecodeBatchRequest(frame, &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got.Exclude) != 0 || len(got.AllowTags) != 0 || len(got.DenyTags) != 0 || got.Tenant != "" {
		t.Fatalf("expected empty sections, got %+v", got)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	want := sampleResponse()
	frame := AppendBatchResponse(nil, want)
	var got BatchResponse
	if err := DecodeBatchResponse(frame, &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Flags != want.Flags || got.M != want.M || got.ShardLo != want.ShardLo ||
		got.ShardHi != want.ShardHi || got.ModelVersion != want.ModelVersion {
		t.Fatalf("scalar mismatch: got %+v want %+v", got, *want)
	}
	if !bytes.Equal(got.Status, want.Status) || !equalU32(got.Counts, want.Counts) || !equalU32(got.Items, want.Items) {
		t.Fatalf("column mismatch: got %+v want %+v", got, *want)
	}
	for i := range want.Scores {
		if math.Float64bits(got.Scores[i]) != math.Float64bits(want.Scores[i]) {
			t.Fatalf("score %d: bits %x != %x", i, math.Float64bits(got.Scores[i]), math.Float64bits(want.Scores[i]))
		}
	}
}

// The decoders must reuse caller slices: a second decode into the same
// struct may not allocate.
func TestDecodeReusesScratch(t *testing.T) {
	reqFrame := mustAppend(t, nil, &BatchRequest{M: 5, Users: []uint32{1, 2, 3}, Exclude: []uint32{9}})
	respFrame := AppendBatchResponse(nil, sampleResponse())
	var req BatchRequest
	var resp BatchResponse
	if err := DecodeBatchRequest(reqFrame, &req); err != nil {
		t.Fatal(err)
	}
	if err := DecodeBatchResponse(respFrame, &resp); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeBatchRequest(reqFrame, &req); err != nil {
			t.Fatal(err)
		}
		if err := DecodeBatchResponse(respFrame, &resp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm decode allocates %v times per run, want 0", allocs)
	}
}

// Encoding into a reused buffer must not allocate either — this is the
// steady-state encode path the serving layer relies on.
func TestEncodeZeroAlloc(t *testing.T) {
	resp := sampleResponse()
	buf := AppendBatchResponse(nil, resp)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendBatchResponse(buf[:0], resp)
	})
	if allocs != 0 {
		t.Fatalf("warm encode allocates %v times per run, want 0", allocs)
	}
}

func TestRejects(t *testing.T) {
	req := mustAppend(t, nil, sampleRequest())
	resp := AppendBatchResponse(nil, sampleResponse())
	smallReq := mustAppend(t, nil, &BatchRequest{M: 1, Users: []uint32{1, 2}})
	mut := func(frame []byte, f func(b []byte)) []byte {
		b := append([]byte(nil), frame...)
		f(b)
		return b
	}
	cases := []struct {
		name  string
		frame []byte
	}{
		{"request/short", req[:HeaderSize-1]},
		{"request/bad magic", mut(req, func(b []byte) { b[0] = 'X' })},
		{"request/bad version", mut(req, func(b []byte) { b[7] = '2' })},
		{"request/unknown flags", mut(req, func(b []byte) { b[16] = 1 })},
		{"request/reserved set", mut(req, func(b []byte) { b[55] = 1 })},
		{"request/length lies short", mut(req, func(b []byte) { binary.LittleEndian.PutUint64(b[8:], uint64(len(req)-1)) })},
		{"request/length lies long", mut(req, func(b []byte) { binary.LittleEndian.PutUint64(b[8:], uint64(len(req)+1)) })},
		{"request/length absurd", mut(req, func(b []byte) { binary.LittleEndian.PutUint64(b[8:], 1<<40) })},
		{"request/truncated body", req[:len(req)-3]},
		{"request/count exceeds frame", mut(req, func(b []byte) { binary.LittleEndian.PutUint32(b[24:], 1<<30) })},
		// The reviewer's overlap frame: nUsers=2 and nExclude=2 each fit
		// the 8-byte body alone but not together — the joint bound must
		// reject it before the exclude column reads past the frame.
		{"request/sections overlap", mut(smallReq, func(b []byte) { binary.LittleEndian.PutUint32(b[28:], 2) })},
		{"request/tag overrun", mut(req, func(b []byte) {
			// First allow tag sits right after users+exclude; inflate its length.
			at := HeaderSize + 4*4 + 4*2
			binary.LittleEndian.PutUint16(b[at:], 60000)
		})},
		{"response/short", resp[:HeaderSize-1]},
		{"response/bad magic", mut(resp, func(b []byte) { b[7] = 'q' })},
		{"response/unknown flags", mut(resp, func(b []byte) { b[16] = 0x80 })},
		{"response/reserved word", mut(resp, func(b []byte) { b[36] = 1 })},
		{"response/reserved tail", mut(resp, func(b []byte) { b[63] = 1 })},
		{"response/truncated", resp[:len(resp)-1]},
		{"response/count exceeds frame", mut(resp, func(b []byte) { binary.LittleEndian.PutUint32(b[24:], 1<<30) })},
		{"response/counts total lies", mut(resp, func(b []byte) {
			// Bump user 0's count: T no longer matches the section sizes.
			at := align4(HeaderSize + 3)
			binary.LittleEndian.PutUint32(b[at:], 4)
		})},
		{"response/status padding dirty", mut(resp, func(b []byte) { b[HeaderSize+3] = 1 })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var r BatchRequest
			var p BatchResponse
			errReq := DecodeBatchRequest(tc.frame, &r)
			errResp := DecodeBatchResponse(tc.frame, &p)
			if errReq == nil && errResp == nil {
				t.Fatalf("mutated frame accepted by both decoders")
			}
			if strings.HasPrefix(tc.name, "request/") && errReq == nil {
				t.Fatalf("mutated request frame accepted")
			}
			if strings.HasPrefix(tc.name, "response/") && errResp == nil {
				t.Fatalf("mutated response frame accepted")
			}
		})
	}
}

// A frame with slack bytes after the last section must be rejected even
// when the declared length covers the slack.
func TestRejectSlackBytes(t *testing.T) {
	req := mustAppend(t, nil, &BatchRequest{M: 1, Users: []uint32{1}})
	padded := append(append([]byte(nil), req...), 0, 0, 0, 0)
	binary.LittleEndian.PutUint64(padded[8:], uint64(len(padded)))
	var r BatchRequest
	if err := DecodeBatchRequest(padded, &r); err == nil {
		t.Fatal("request frame with slack bytes accepted")
	}
}

// Requests the uint16 wire fields cannot represent must fail the encode,
// not truncate into a frame every decoder rejects as malformed.
func TestAppendRequestRejectsUnrepresentableTags(t *testing.T) {
	if _, err := AppendBatchRequest(nil, &BatchRequest{
		Users:     []uint32{1},
		AllowTags: []string{strings.Repeat("x", 1<<16)},
	}); err == nil {
		t.Fatal("tag longer than 64 KiB encoded without error")
	}
	many := make([]string, 1<<16)
	for i := range many {
		many[i] = "t"
	}
	if _, err := AppendBatchRequest(nil, &BatchRequest{Users: []uint32{1}, DenyTags: many}); err == nil {
		t.Fatal("more than 65535 tags encoded without error")
	}
}

func TestEncoderPanicsOnBadColumns(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched columns")
		}
	}()
	AppendBatchResponse(nil, &BatchResponse{
		Status: []uint8{0},
		Counts: []uint32{2},
		Items:  []uint32{1},
		Scores: []float64{0.5},
	})
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestScatterHelpers pins the two things a router needs beyond the codecs:
// patching the pin of an encoded request leaves exactly the frame a fresh
// encode with that pin produces, and MaxResponseLen is the length of the
// fullest response — so a read bounded by it never cuts a legal one.
func TestScatterHelpers(t *testing.T) {
	req := BatchRequest{M: 7, Users: []uint32{3, 1, 4}, Exclude: []uint32{9}, DenyTags: []string{"kids"}}
	patched := mustAppend(t, nil, &req)
	SetExpectVersion(patched, 41)
	req.ExpectVersion = 41
	if want := mustAppend(t, nil, &req); !bytes.Equal(patched, want) {
		t.Errorf("patched frame differs from one encoded with the pin:\n%x\n%x", patched, want)
	}

	for _, c := range []struct{ users, m int }{{1, 1}, {3, 7}, {32, 20}, {5, 0}} {
		resp := BatchResponse{Status: make([]uint8, c.users)}
		for u := 0; u < c.users; u++ {
			resp.Counts = append(resp.Counts, uint32(c.m))
			for i := 0; i < c.m; i++ {
				resp.Items = append(resp.Items, uint32(i))
				resp.Scores = append(resp.Scores, 0.5)
			}
		}
		if got, full := MaxResponseLen(c.users, c.m), len(AppendBatchResponse(nil, &resp)); got != full {
			t.Errorf("MaxResponseLen(%d, %d) = %d, the fullest response is %d bytes", c.users, c.m, got, full)
		}
	}
	if MaxResponseLen(1024, 1000) > MaxFrameLen {
		t.Error("the largest default batch does not fit the decoder's frame cap")
	}
}

// TestStreamMessages pins the stream prologues to the layout in the package
// comment: a request message is its prologue, trace id and body in that
// order and parses back; an answer prologue counts the body after it; a
// trace id past the u8 length field is refused, dst unextended.
func TestStreamMessages(t *testing.T) {
	body := []byte("a frame")
	msg, err := AppendStreamRequest([]byte("x"), 1500, "trace-7", body)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte("x\x07\x00\x00\x00\xdc\x05\x00\x00\x07"), "trace-7a frame"...)
	if !bytes.Equal(msg, want) {
		t.Fatalf("request message %x, want %x", msg, want)
	}
	if n, ms, traceLen := ParseStreamRequest(msg[1:]); n != uint32(len(body)) || ms != 1500 || traceLen != 7 {
		t.Errorf("parsed body %d, budget %d, trace id %d bytes; want %d, 1500, 7", n, ms, traceLen, len(body))
	}
	if got, err := AppendStreamRequest(msg[:1], 0, strings.Repeat("t", 256), body); err == nil || len(got) != 1 {
		t.Errorf("a 256-byte trace id: %d bytes appended, err %v; want a refusal", len(got)-1, err)
	}

	answer := append(make([]byte, StreamAnswerLen), `{"error":"x"}`...)
	PutStreamAnswer(answer, 409)
	if n, status := ParseStreamAnswer(answer); n != uint32(len(answer)-StreamAnswerLen) || status != 409 {
		t.Errorf("answer prologue says %d bytes, status %d; want %d, 409", n, status, len(answer)-StreamAnswerLen)
	}
}
