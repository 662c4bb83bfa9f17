package wire

import (
	"encoding/binary"
	"testing"
)

// FuzzDecodeBatchFrame throws arbitrary bytes at both frame decoders.
// The invariants under fuzz: no panic, and no allocation beyond a
// bounded cap — a decoder that survives checkHeader can only grow its
// scratch slices after proving the counts fit inside the frame, so every
// column's capacity is bounded by the frame length itself.
func FuzzDecodeBatchFrame(f *testing.F) {
	f.Add(mustAppend(f, nil, &BatchRequest{
		M:         10,
		Users:     []uint32{0, 1, 2},
		Exclude:   []uint32{7},
		AllowTags: []string{"drama"},
		DenyTags:  []string{"kids"},
		Tenant:    "acme",
	}))
	f.Add(AppendBatchResponse(nil, &BatchResponse{
		Flags:        FlagShardPartial,
		M:            2,
		ShardLo:      0,
		ShardHi:      100,
		ModelVersion: 3,
		Status:       []uint8{0, StatusCached},
		Counts:       []uint32{2, 1},
		Items:        []uint32{5, 6, 9},
		Scores:       []float64{0.9, 0.5, 0.4},
	}))
	// The router's scatter: a pinned request frame carrying a whole batch's
	// users to a shard, and the shard's answer — one partial per user, an
	// empty one (a user whose partition candidates were all filtered) among
	// them, so the counts column and the 8-byte score alignment both matter.
	f.Add(mustAppend(f, nil, &BatchRequest{
		M:             3,
		ExpectVersion: 7,
		Users:         []uint32{4, 9, 4000, 17, 2},
		Exclude:       []uint32{1, 2},
		DenyTags:      []string{"kids"},
	}))
	f.Add(AppendBatchResponse(nil, &BatchResponse{
		Flags:        FlagShardPartial,
		M:            3,
		ShardLo:      3000,
		ShardHi:      6000,
		ModelVersion: 7,
		Status:       []uint8{0, 0, 0, 0, 0},
		Counts:       []uint32{3, 0, 2, 3, 1},
		Items:        []uint32{3001, 5999, 3002, 4000, 4001, 3000, 3001, 3002, 5000},
		Scores:       []float64{0.9, 0.9, 0.1, 0.5, 0.25, 1, 0.75, 0.5, 0.125},
	}))
	// Torn tail: a valid response frame with the final score sheared off
	// mid-word, as a broken proxy or truncated read would produce it.
	torn := AppendBatchResponse(nil, &BatchResponse{
		M:      1,
		Status: []uint8{0},
		Counts: []uint32{1},
		Items:  []uint32{42},
		Scores: []float64{0.25},
	})
	f.Add(torn[:len(torn)-5])
	// Wrong endian: header words written big-endian, as a naive foreign
	// client might. The magic matches but every count is byte-swapped.
	wrongEndian := mustAppend(f, nil, &BatchRequest{M: 10, Users: []uint32{1, 2}})
	binary.BigEndian.PutUint64(wrongEndian[8:], uint64(len(wrongEndian)))
	binary.BigEndian.PutUint32(wrongEndian[24:], 2)
	f.Add(wrongEndian)
	// Overlapping sections: nUsers=2 and nExclude=2 each fit the 8-byte
	// body alone but not together; only a joint bound on the section
	// sizes keeps the exclude column from reading past the frame.
	overlap := mustAppend(f, nil, &BatchRequest{M: 1, Users: []uint32{1, 2}})
	binary.LittleEndian.PutUint32(overlap[28:], 2)
	f.Add(overlap)
	f.Add([]byte(MagicRequest))
	f.Add([]byte(MagicResponse))

	f.Fuzz(func(t *testing.T, data []byte) {
		var req BatchRequest
		if err := DecodeBatchRequest(data, &req); err == nil {
			assertBounded(t, len(data), 4*cap(req.Users), "users")
			assertBounded(t, len(data), 4*cap(req.Exclude), "exclude")
			assertBounded(t, len(data), 2*cap(req.AllowTags), "allow tags")
			assertBounded(t, len(data), 2*cap(req.DenyTags), "deny tags")
			assertBounded(t, len(data), len(req.Tenant), "tenant")
		}
		var resp BatchResponse
		if err := DecodeBatchResponse(data, &resp); err == nil {
			assertBounded(t, len(data), cap(resp.Status), "status")
			assertBounded(t, len(data), 4*cap(resp.Counts), "counts")
			assertBounded(t, len(data), 4*cap(resp.Items), "items")
			assertBounded(t, len(data), 8*cap(resp.Scores), "scores")
		}
	})
}

// assertBounded fails if a decoded column's backing memory exceeds the
// frame that produced it (append may round capacity up, so allow the
// usual growth slack of 2x plus a small constant).
func assertBounded(t *testing.T, frameLen, colBytes int, name string) {
	t.Helper()
	if colBytes > 2*frameLen+64 {
		t.Fatalf("%s column holds %d bytes from a %d-byte frame", name, colBytes, frameLen)
	}
}
