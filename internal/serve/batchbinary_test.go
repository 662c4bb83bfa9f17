package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"testing"

	"repro/internal/wire"
)

// postFrame posts one binary request frame and returns the HTTP status,
// the response Content-Type and the raw body.
func postFrame(t testing.TB, url string, req *wire.BatchRequest) (int, string, []byte) {
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

func postRaw(t testing.TB, url string, body []byte) (int, string, []byte) {
	t.Helper()
	resp, err := http.Post(url, FrameContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), data
}

// decodeFrame decodes a 200 body as a response frame.
func decodeFrame(t testing.TB, data []byte) *wire.BatchResponse {
	t.Helper()
	var out wire.BatchResponse
	if err := wire.DecodeBatchResponse(data, &out); err != nil {
		t.Fatalf("decoding response frame: %v", err)
	}
	return &out
}

// compareTransports requires the binary response to be bit-identical to
// the JSON one: same per-user list lengths, same items, same float64
// score bits, same error slots, same model version.
func compareTransports(t testing.TB, label string, bin *wire.BatchResponse, js *BatchResponse) {
	t.Helper()
	if len(bin.Counts) != len(js.Results) {
		t.Fatalf("%s: binary carries %d users, JSON %d", label, len(bin.Counts), len(js.Results))
	}
	if bin.ModelVersion != js.ModelVersion {
		t.Errorf("%s: binary model version %d, JSON %d", label, bin.ModelVersion, js.ModelVersion)
	}
	off := 0
	for i, res := range js.Results {
		n := int(bin.Counts[i])
		failed := bin.Status[i]&wire.StatusError != 0
		if failed != (res.Error != "") {
			t.Fatalf("%s user slot %d: binary error=%v, JSON error=%q", label, i, failed, res.Error)
		}
		if n != len(res.Items) {
			t.Fatalf("%s user slot %d: binary %d items, JSON %d", label, i, n, len(res.Items))
		}
		for r := 0; r < n; r++ {
			if int(bin.Items[off+r]) != res.Items[r].Item {
				t.Errorf("%s user slot %d rank %d: binary item %d, JSON %d",
					label, i, r, bin.Items[off+r], res.Items[r].Item)
			}
			if math.Float64bits(bin.Scores[off+r]) != math.Float64bits(res.Items[r].Score) {
				t.Errorf("%s user slot %d rank %d: binary score %v, JSON %v (must be bit-identical)",
					label, i, r, bin.Scores[off+r], res.Items[r].Score)
			}
		}
		off += n
	}
}

// TestBatchBinaryMatchesJSON is the transport's acceptance property:
// across random users (including out-of-range ones), list lengths,
// exclusion lists, tag filters and a staged pipeline, POST /v2/batch
// returns exactly what POST /v1/batch returns — same items, same float64
// score bits — including across a model reload mid-test.
func TestBatchBinaryMatchesJSON(t *testing.T) {
	srv, ts, _, train := newTestServer(t, Config{
		ItemTags: testItemTags(t, 80),
		Stages:   []StageSpec{{Type: "floor", Min: 0.02}},
	})
	rng := rand.New(rand.NewPCG(9, 7))
	tagSets := [][]string{nil, {"even"}, {"low"}, {"even", "rare"}}
	round := func(label string) {
		for iter := 0; iter < 24; iter++ {
			users := make([]int, 1+rng.IntN(7))
			for i := range users {
				users[i] = rng.IntN(130) // 120 real users; some out of range
			}
			m := 1 + rng.IntN(15)
			var exclude []int
			for _, it := range []int{2, 9, 17, 40, 63} {
				if rng.IntN(3) == 0 {
					exclude = append(exclude, it)
				}
			}
			allow := tagSets[rng.IntN(len(tagSets))]
			var deny []string
			if rng.IntN(3) == 0 {
				deny = []string{"rare"}
			}
			var spec *FilterSpec
			if len(allow) > 0 || len(deny) > 0 {
				spec = &FilterSpec{AllowTags: allow, DenyTags: deny}
			}

			var js BatchResponse
			if st := postJSON(t, ts.URL+"/v1/batch", BatchRequest{
				Users: users, M: m, ExcludeItems: exclude, Filter: spec,
			}, &js); st != 200 {
				t.Fatalf("%s iter %d: JSON status %d", label, iter, st)
			}
			wreq := wire.BatchRequest{M: uint32(m), AllowTags: allow, DenyTags: deny}
			for _, u := range users {
				wreq.Users = append(wreq.Users, uint32(u))
			}
			for _, e := range exclude {
				wreq.Exclude = append(wreq.Exclude, uint32(e))
			}
			st, ct, data := postFrame(t, ts.URL+"/v2/batch", &wreq)
			if st != 200 {
				t.Fatalf("%s iter %d: binary status %d: %s", label, iter, st, data)
			}
			if ct != FrameContentType {
				t.Fatalf("%s iter %d: binary Content-Type %q", label, iter, ct)
			}
			compareTransports(t, label, decodeFrame(t, data), &js)
		}
	}
	round("v1")
	// Reload a genuinely different model (new seed) through the same
	// path and re-run the property against the new version.
	if err := trainSmall(t, train, 17).SaveModelFile(srv.cfg.ModelPath); err != nil {
		t.Fatal(err)
	}
	if err := srv.ReloadFromFile(); err != nil {
		t.Fatal(err)
	}
	round("v2-after-reload")
}

// TestBatchBinaryCachedBit: a repeated frame is served from the rank
// cache and says so in the per-user status bits, exactly like the JSON
// transport's cached field.
func TestBatchBinaryCachedBit(t *testing.T) {
	_, ts, _, _ := newTestServer(t, Config{})
	req := &wire.BatchRequest{M: 10, Users: []uint32{5, 6}}
	st, _, data := postFrame(t, ts.URL+"/v2/batch", req)
	if st != 200 {
		t.Fatalf("first: status %d: %s", st, data)
	}
	for i, s := range decodeFrame(t, data).Status {
		if s&wire.StatusCached != 0 {
			t.Errorf("first request user slot %d already cached", i)
		}
	}
	st, _, data = postFrame(t, ts.URL+"/v2/batch", req)
	if st != 200 {
		t.Fatalf("repeat: status %d: %s", st, data)
	}
	for i, s := range decodeFrame(t, data).Status {
		if s&wire.StatusCached == 0 {
			t.Errorf("repeat request user slot %d not cached", i)
		}
	}
}

// TestBatchBinaryTenantMatchesJSON: tenant-routed frames resolve users
// to experiment arms exactly like JSON batches (same lists, same score
// bits), and the arms' binary-transport counters become visible under
// /metrics tenants.<t>.arms.<arm>.binary_requests.
func TestBatchBinaryTenantMatchesJSON(t *testing.T) {
	f := newRegistryServer(t, Config{}, nil)
	users := []int{0, 1, 2, 3, 7, 41, 119}
	var js BatchResponse
	if st := postJSON(t, f.ts.URL+"/v1/batch", BatchRequest{Users: users, M: 10, Tenant: "acme"}, &js); st != 200 {
		t.Fatalf("JSON status %d", st)
	}
	wreq := wire.BatchRequest{M: 10, Tenant: "acme"}
	for _, u := range users {
		wreq.Users = append(wreq.Users, uint32(u))
	}
	st, _, data := postFrame(t, f.ts.URL+"/v2/batch", &wreq)
	if st != 200 {
		t.Fatalf("binary status %d: %s", st, data)
	}
	bin := decodeFrame(t, data)
	// Tenant slots carry per-arm model versions in JSON; the frame's
	// single modelVersion is the default model's. Compare lists only.
	bin.ModelVersion = js.ModelVersion
	compareTransports(t, "tenant", bin, &js)

	var metrics map[string]any
	getJSON(t, f.ts.URL+"/metrics", &metrics)
	arms := metrics["tenants"].(map[string]any)["acme"].(map[string]any)["arms"].(map[string]any)
	total := 0.0
	for name, a := range arms {
		n := a.(map[string]any)["binary_requests"].(float64)
		reqs := a.(map[string]any)["requests"].(float64)
		if n > reqs {
			t.Errorf("arm %s: binary_requests %v exceeds requests %v", name, n, reqs)
		}
		total += n
	}
	if total != float64(len(users)) {
		t.Errorf("binary_requests across arms total %v, want %d", total, len(users))
	}
}

// TestBatchBinaryNegotiation pins the error contract: anything that is
// not a well-formed request frame is a 400 with the stable JSON error
// code "bad_frame" (errors are always JSON; only 200s carry frames), and
// every reject shows up in the batch_binary.decode_rejects counter.
func TestBatchBinaryNegotiation(t *testing.T) {
	_, ts, _, _ := newTestServer(t, Config{})
	valid := mustFrame(t, &wire.BatchRequest{M: 5, Users: []uint32{1}})
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
		st, ct, data := postRaw(t, ts.URL+"/v2/batch", body)
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
	st, _, data := postFrame(t, ts.URL+"/v2/batch",
		&wire.BatchRequest{M: 5, Users: []uint32{1}, ExpectVersion: 1})
	if st != http.StatusBadRequest {
		t.Fatalf("expect_version: status %d (%s)", st, data)
	}
	// Unknown tenant keeps the JSON transport's stable code.
	st, _, data = postFrame(t, ts.URL+"/v2/batch",
		&wire.BatchRequest{M: 5, Users: []uint32{1}, Tenant: "ghost"})
	if st != http.StatusNotFound {
		t.Fatalf("unknown tenant: status %d (%s)", st, data)
	}
	var e struct {
		Code string `json:"code"`
	}
	if err := json.Unmarshal(data, &e); err != nil || e.Code != "unknown_tenant" {
		t.Errorf("unknown tenant: body %s, want code unknown_tenant", data)
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
		st, _, data := postFrame(t, ts.URL+"/v2/batch",
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

// TestShardTopMBinaryMatchesJSON: the binary shard endpoint returns the
// JSON shard partial bit-identically — items rebased to global ids,
// shard range and model version in the header — and enforces the same
// version pin with the same 409.
func TestShardTopMBinaryMatchesJSON(t *testing.T) {
	_, shards, _, _, _ := newShardTier(t, 2)
	for si, sts := range shards {
		req := ShardTopMRequest{User: 7, M: 12, ExcludeItems: []int{3, 41}}
		var js ShardTopMResponse
		if st := postJSON(t, sts.URL+"/v1/shard/topm", req, &js); st != 200 {
			t.Fatalf("shard %d JSON: status %d", si, st)
		}
		wreq := wire.BatchRequest{M: 12, Users: []uint32{7}, Exclude: []uint32{3, 41}}
		st, _, data := postFrame(t, sts.URL+"/v2/shard/topm", &wreq)
		if st != 200 {
			t.Fatalf("shard %d binary: status %d: %s", si, st, data)
		}
		bin := decodeFrame(t, data)
		if bin.Flags&wire.FlagShardPartial == 0 {
			t.Errorf("shard %d: partial flag not set", si)
		}
		if int(bin.ShardLo) != js.ShardLo || int(bin.ShardHi) != js.ShardHi {
			t.Errorf("shard %d: range [%d,%d), JSON [%d,%d)", si, bin.ShardLo, bin.ShardHi, js.ShardLo, js.ShardHi)
		}
		if bin.ModelVersion != js.ModelVersion {
			t.Errorf("shard %d: model version %d, JSON %d", si, bin.ModelVersion, js.ModelVersion)
		}
		if len(bin.Items) != len(js.Items) || int(bin.Counts[0]) != len(js.Items) {
			t.Fatalf("shard %d: %d items (count %d), JSON %d", si, len(bin.Items), bin.Counts[0], len(js.Items))
		}
		for n := range js.Items {
			if int(bin.Items[n]) != js.Items[n].Item {
				t.Errorf("shard %d rank %d: item %d, JSON %d", si, n, bin.Items[n], js.Items[n].Item)
			}
			if math.Float64bits(bin.Scores[n]) != math.Float64bits(js.Items[n].Score) {
				t.Errorf("shard %d rank %d: score %v, JSON %v", si, n, bin.Scores[n], js.Items[n].Score)
			}
		}
		// The version pin answers the same 409 as the JSON path, as JSON.
		wreq.ExpectVersion = js.ModelVersion + 41
		st, ct, data := postFrame(t, sts.URL+"/v2/shard/topm", &wreq)
		if st != http.StatusConflict || ct != "application/json" {
			t.Errorf("shard %d pin: status %d Content-Type %q (%s), want 409 JSON", si, st, ct, data)
		}
		// A frame may carry any number of users but not none, and never a
		// tenant; one user out of range refuses the whole frame.
		for name, bad := range map[string]*wire.BatchRequest{
			"no users":          {M: 5},
			"tenant":            {M: 5, Users: []uint32{1}, Tenant: "acme"},
			"user out of range": {M: 5, Users: []uint32{1, 99999, 2}},
		} {
			if st, _, data := postFrame(t, sts.URL+"/v2/shard/topm", bad); st != http.StatusBadRequest {
				t.Errorf("shard %d, %s: status %d (%s), want 400", si, name, st, data)
			}
		}
	}
}
