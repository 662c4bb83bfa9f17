package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/ranktest"
	"repro/internal/wire"
)

// TestBatchBinaryNegotiation pins the error contract: anything that is
// not a well-formed request frame is a 400 with the stable JSON error
// code "bad_frame" (errors are always JSON; only 200s carry frames), and
// every reject shows up in the batch_binary.decode_rejects counter.
func TestBatchBinaryNegotiation(t *testing.T) {
	_, ts, _, _ := newTestServer(t, Config{})
	valid := ranktest.Frame(t, &wire.BatchRequest{M: 5, Users: []uint32{1}})
	wrongMagic := append([]byte(nil), valid...)
	copy(wrongMagic, "NOTAFRAM")
	badVersion := append([]byte(nil), valid...)
	badVersion[7] = '9'
	rejects := [][]byte{
		[]byte("{\"users\":[1]}"), // JSON where a frame belongs
		wrongMagic,
		badVersion,
		valid[:len(valid)-3], // torn tail
		valid[:16],           // shorter than a header
	}
	for i, body := range rejects {
		st, ct, data := ranktest.PostRaw(t, ts.URL+"/v2/batch", FrameContentType, body, nil)
		if st != http.StatusBadRequest {
			t.Fatalf("reject %d: status %d, want 400 (%s)", i, st, data)
		}
		if ct != "application/json" {
			t.Errorf("reject %d: error Content-Type %q, want JSON", i, ct)
		}
		var e struct {
			Code string `json:"code"`
		}
		if err := json.Unmarshal(data, &e); err != nil || e.Code != "bad_frame" {
			t.Errorf("reject %d: body %s, want code bad_frame", i, data)
		}
	}
	// A well-formed frame carrying the shard-only version pin is refused
	// on the batch endpoint.
	st, _, data := ranktest.PostFrame(t, ts.URL+"/v2/batch",
		&wire.BatchRequest{M: 5, Users: []uint32{1}, ExpectVersion: 1})
	if st != http.StatusBadRequest {
		t.Fatalf("expect_version: status %d (%s)", st, data)
	}
	var metrics map[string]any
	getJSON(t, ts.URL+"/metrics", &metrics)
	bb := metrics["batch_binary"].(map[string]any)
	if got := bb["decode_rejects"].(float64); got != float64(len(rejects)+1) {
		t.Errorf("decode_rejects = %v, want %d", got, len(rejects)+1)
	}
	if got := bb["requests"].(float64); got != 0 {
		t.Errorf("batch_binary.requests = %v after rejects only, want 0", got)
	}
}

// TestBatchBinaryMetricsCounters: successful frames feed the transport
// counters — requests, users scored, bytes written.
func TestBatchBinaryMetricsCounters(t *testing.T) {
	_, ts, _, _ := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		st, _, data := ranktest.PostFrame(t, ts.URL+"/v2/batch",
			&wire.BatchRequest{M: 10, Users: []uint32{0, 1, 2, 3}})
		if st != 200 {
			t.Fatalf("status %d: %s", st, data)
		}
	}
	var metrics map[string]any
	getJSON(t, ts.URL+"/metrics", &metrics)
	bb := metrics["batch_binary"].(map[string]any)
	if got := bb["requests"].(float64); got != 3 {
		t.Errorf("requests = %v, want 3", got)
	}
	if got := bb["users"].(float64); got != 12 {
		t.Errorf("users = %v, want 12", got)
	}
	if got := bb["bytes_out"].(float64); got < 3*wire.HeaderSize {
		t.Errorf("bytes_out = %v, want at least 3 headers' worth", got)
	}
}
