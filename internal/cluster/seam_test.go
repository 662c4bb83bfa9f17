package cluster

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/wire"
)

// TestRouterBatchCodecSeam: the router's batch pipeline sits under a JSON
// and a frame codec, and a request one refuses must be refused by the
// other the same way — same status, same message class, always a JSON
// error body. Every case sends one logical request through both.
func TestRouterBatchCodecSeam(t *testing.T) {
	tr := newTier(t, 2, Config{MaxM: 50, MaxBatch: 4, MaxBodyBytes: 2048})
	var bigI []int
	var bigU []uint32
	for i := 0; i < 1000; i++ {
		bigI, bigU = append(bigI, i%50), append(bigU, uint32(i%50))
	}
	for _, tc := range []struct {
		name    string
		json    serve.BatchRequest
		frame   wire.BatchRequest
		status  int
		message string
	}{
		{"oversized body", serve.BatchRequest{Users: bigI}, wire.BatchRequest{Users: bigU},
			400, "request body exceeds 2048 bytes"},
		{"m over MaxM", serve.BatchRequest{Users: []int{1}, M: 51}, wire.BatchRequest{Users: []uint32{1}, M: 51},
			400, "m=51 exceeds the router cap of 50"},
		{"empty users", serve.BatchRequest{M: 5}, wire.BatchRequest{M: 5},
			400, "users must be non-empty"},
		{"batch over cap", serve.BatchRequest{Users: bigI[:5]}, wire.BatchRequest{Users: bigU[:5]},
			400, "batch of 5 users exceeds the router cap of 4"},
		{"exclude out of range", serve.BatchRequest{Users: []int{1}, ExcludeItems: []int{99999}},
			wire.BatchRequest{Users: []uint32{1}, Exclude: []uint32{99999}},
			400, "exclude item 99999 out of range"},
		// The router serves the default path only; naming a tenant is refused
		// by the pipeline, so neither codec can silently serve another model.
		{"tenant named", serve.BatchRequest{Users: []int{1}, Tenant: "acme"}, wire.BatchRequest{Users: []uint32{1}, Tenant: "acme"},
			400, "tenant must be empty"},
	} {
		var jsErr struct{ Error string }
		jst := postJSON(t, tr.routerTS.URL+"/v1/batch", tc.json, &jsErr)
		st, body := postFrame(t, tr.routerTS.URL+"/v2/batch", &tc.frame)
		var frErr struct{ Error string }
		if err := json.Unmarshal(body, &frErr); err != nil {
			t.Fatalf("%s over frame: error body %q is not JSON: %v", tc.name, body, err)
		}
		for codec, got := range map[string]struct {
			status int
			msg    string
		}{"json": {jst, jsErr.Error}, "frame": {st, frErr.Error}} {
			if got.status != tc.status || !strings.Contains(got.msg, tc.message) {
				t.Errorf("%s over %s: status %d error %q; want %d …%s…", tc.name, codec, got.status, got.msg, tc.status, tc.message)
			}
		}
	}

	// /v1/recommend is the same pipeline with one user, and refuses the same.
	var recErr struct{ Error string }
	if st := postJSON(t, tr.routerTS.URL+"/v1/recommend", serve.RecommendRequest{User: 1, Tenant: "acme"}, &recErr); st != 400 || !strings.Contains(recErr.Error, "tenant must be empty") {
		t.Errorf("/v1/recommend naming a tenant: status %d error %q; want 400 …tenant must be empty…", st, recErr.Error)
	}

	// An out-of-range user is not a refusal of the batch: both codecs
	// answer 200 and fail that slot alone.
	var js BatchResponse
	if st := postJSON(t, tr.routerTS.URL+"/v1/batch", serve.BatchRequest{Users: []int{1, 99999, 2}, M: 3}, &js); st != 200 {
		t.Fatalf("JSON batch with a bad slot: status %d", st)
	}
	st, body := postFrame(t, tr.routerTS.URL+"/v2/batch", &wire.BatchRequest{Users: []uint32{1, 99999, 2}, M: 3})
	if st != 200 {
		t.Fatalf("frame batch with a bad slot: status %d: %s", st, body)
	}
	var fr wire.BatchResponse
	if err := wire.DecodeBatchResponse(body, &fr); err != nil {
		t.Fatal(err)
	}
	for i, res := range js.Results {
		if failed := fr.Status[i]&wire.StatusError != 0; failed != (res.Error != "") || failed != (i == 1) {
			t.Errorf("slot %d: frame error=%v, JSON error=%q; want only slot 1 failed", i, failed, res.Error)
		}
		if int(fr.Counts[i]) != len(res.Items) {
			t.Errorf("slot %d: frame carries %d items, JSON %d", i, fr.Counts[i], len(res.Items))
		}
	}
}
