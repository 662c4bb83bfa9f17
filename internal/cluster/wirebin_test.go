package cluster

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/ranktest"
	"repro/internal/serve"
	"repro/internal/wire"
)

// TestRouterBatchBinary: the router's own POST /v2/batch merges like every
// other route (the conformance suite's), carries the route epoch under
// FlagRouterMerge, and rejects malformed or out-of-contract frames with
// the stable bad_frame code.
func TestRouterBatchBinary(t *testing.T) {
	conformRouter(t, false, ranktest.BatchFrame)

	tr := newTier(t, 2, Config{})
	for _, users := range [][]uint32{{0, 7, 42}, {0, 5000}} {
		st, _, data := ranktest.PostFrame(t, tr.routerTS.URL+"/v2/batch", &wire.BatchRequest{M: 5, Users: users})
		if st != 200 {
			t.Fatalf("status %d: %s", st, data)
		}
		if bin := ranktest.DecodeFrame(t, data); bin.Flags&wire.FlagRouterMerge == 0 || bin.ModelVersion != 1 {
			t.Errorf("router frame flags %#x under epoch %d, want FlagRouterMerge under the route epoch 1", bin.Flags, bin.ModelVersion)
		}
	}

	// Error contract: garbage and out-of-contract frames are JSON 400s
	// with the stable code, counted as decode rejects.
	badCases := [][]byte{
		[]byte("{\"users\":[1]}"),
		ranktest.Frame(t, &wire.BatchRequest{M: 5, Users: []uint32{1}, ExpectVersion: 3}),
	}
	for i, body := range badCases {
		st, _, data := ranktest.PostRaw(t, tr.routerTS.URL+"/v2/batch", serve.FrameContentType, body, nil)
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
