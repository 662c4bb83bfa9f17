package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"testing"

	"repro/internal/serve"
	"repro/internal/wire"
)

func postFrame(t testing.TB, url string, req *wire.BatchRequest) (int, []byte) {
	t.Helper()
	return postRaw(t, url, mustFrame(t, req))
}

// mustFrame encodes a request the test knows to be representable.
func mustFrame(t testing.TB, req *wire.BatchRequest) []byte {
	t.Helper()
	frame, err := wire.AppendBatchRequest(nil, req)
	if err != nil {
		t.Fatalf("append request: %v", err)
	}
	return frame
}

func postRaw(t testing.TB, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, serve.FrameContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestRouterBatchBinary: the router's own POST /v2/batch merges
// bit-identically to the reference server's JSON batch, carries the
// route epoch under FlagRouterMerge, and rejects malformed or
// out-of-contract frames with the stable bad_frame code.
func TestRouterBatchBinary(t *testing.T) {
	tr := newTier(t, 2, Config{})
	users := []int{0, 7, 42, 119, 3, 7} // the duplicate shares one merge, like JSON
	exclude := []int{2, 40}

	var ref serve.BatchResponse
	if st := postJSON(t, tr.refTS.URL+"/v1/batch", serve.BatchRequest{
		Users: users, M: 10, ExcludeItems: exclude,
	}, &ref); st != 200 {
		t.Fatalf("reference status %d", st)
	}
	wreq := wire.BatchRequest{M: 10, Exclude: []uint32{2, 40}}
	for _, u := range users {
		wreq.Users = append(wreq.Users, uint32(u))
	}
	st, data := postFrame(t, tr.routerTS.URL+"/v2/batch", &wreq)
	if st != 200 {
		t.Fatalf("router binary status %d: %s", st, data)
	}
	var bin wire.BatchResponse
	if err := wire.DecodeBatchResponse(data, &bin); err != nil {
		t.Fatal(err)
	}
	if bin.Flags&wire.FlagRouterMerge == 0 {
		t.Error("router frame misses FlagRouterMerge")
	}
	if bin.ModelVersion == 0 {
		t.Error("router frame carries no route epoch")
	}
	if len(bin.Counts) != len(ref.Results) {
		t.Fatalf("router served %d users, reference %d", len(bin.Counts), len(ref.Results))
	}
	off := 0
	for i, res := range ref.Results {
		if bin.Status[i]&(wire.StatusError|wire.StatusDegraded) != 0 {
			t.Fatalf("user slot %d: unexpected status %#x on a healthy tier", i, bin.Status[i])
		}
		n := int(bin.Counts[i])
		if n != len(res.Items) {
			t.Fatalf("user slot %d: router %d items, reference %d", i, n, len(res.Items))
		}
		for r := 0; r < n; r++ {
			if int(bin.Items[off+r]) != res.Items[r].Item {
				t.Errorf("user slot %d rank %d: router item %d, reference %d",
					i, r, bin.Items[off+r], res.Items[r].Item)
			}
			if math.Float64bits(bin.Scores[off+r]) != math.Float64bits(res.Items[r].Score) {
				t.Errorf("user slot %d rank %d: router score %v, reference %v (must be bit-identical)",
					i, r, bin.Scores[off+r], res.Items[r].Score)
			}
		}
		off += n
	}

	// Out-of-range users fail their slot, not the batch.
	st, data = postFrame(t, tr.routerTS.URL+"/v2/batch",
		&wire.BatchRequest{M: 5, Users: []uint32{0, 5000}})
	if st != 200 {
		t.Fatalf("mixed batch status %d: %s", st, data)
	}
	if err := wire.DecodeBatchResponse(data, &bin); err != nil {
		t.Fatal(err)
	}
	if bin.Status[0]&wire.StatusError != 0 || bin.Status[1]&wire.StatusError == 0 {
		t.Errorf("mixed batch status bits %v, want slot 1 failed only", bin.Status)
	}
	if bin.Counts[1] != 0 {
		t.Errorf("failed slot carries %d items", bin.Counts[1])
	}

	// Error contract: garbage and out-of-contract frames are JSON 400s
	// with the stable code, counted as decode rejects.
	badCases := [][]byte{
		[]byte("{\"users\":[1]}"),
		mustFrame(t, &wire.BatchRequest{M: 5, Users: []uint32{1}, ExpectVersion: 3}),
	}
	for i, body := range badCases {
		st, data := postRaw(t, tr.routerTS.URL+"/v2/batch", body)
		if st != http.StatusBadRequest {
			t.Fatalf("bad case %d: status %d (%s)", i, st, data)
		}
		var e struct {
			Code string `json:"code"`
		}
		if err := json.Unmarshal(data, &e); err != nil || e.Code != "bad_frame" {
			t.Errorf("bad case %d: body %s, want code bad_frame", i, data)
		}
	}
	resp, err := http.Get(tr.routerTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var metrics map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	bb := metrics["batch_binary"].(map[string]any)
	if got := bb["decode_rejects"].(float64); got != float64(len(badCases)) {
		t.Errorf("decode_rejects = %v, want %d", got, len(badCases))
	}
	if got := bb["requests"].(float64); got != 2 {
		t.Errorf("batch_binary.requests = %v, want 2", got)
	}
}
