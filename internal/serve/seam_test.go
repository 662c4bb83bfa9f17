package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/wire"
)

// The codec seam: each pipeline sits under a JSON and a frame codec, and
// a request one codec refuses must be refused by the other the same way —
// same HTTP status, same error code, same message class. Every case below
// sends one logical request through both.

// seamCase is one logical request in both encodings. A nil json body is
// marshalled from req.
type seamCase struct {
	name    string
	json    any
	frame   *wire.BatchRequest
	header  map[string]string
	status  int
	code    string // wanted "code" field of the error body
	message string // substring of the wanted "error" field
}

type seamReply struct {
	status int
	body   []byte
	Code   string `json:"code"`
	Error  string `json:"error"`
}

func seamPost(t *testing.T, url, contentType string, body []byte, header map[string]string) seamReply {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := seamReply{status: resp.StatusCode}
	if out.body, err = io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out.status != http.StatusOK {
		if err := json.Unmarshal(out.body, &out); err != nil {
			t.Fatalf("error responses are JSON on both codecs; got %q: %v", out.body, err)
		}
	}
	return out
}

// runSeam posts every case to both routes and requires the same refusal.
func runSeam(t *testing.T, jsonURL, frameURL string, cases []seamCase) {
	t.Helper()
	for _, tc := range cases {
		jbody, err := json.Marshal(tc.json)
		if err != nil {
			t.Fatal(err)
		}
		replies := map[string]seamReply{
			"json":  seamPost(t, jsonURL, "application/json", jbody, tc.header),
			"frame": seamPost(t, frameURL, FrameContentType, mustFrame(t, tc.frame), tc.header),
		}
		for codec, got := range replies {
			if got.status != tc.status || got.Code != tc.code || !strings.Contains(got.Error, tc.message) {
				t.Errorf("%s over %s: status %d code %q error %q; want %d %q …%s…",
					tc.name, codec, got.status, got.Code, got.Error, tc.status, tc.code, tc.message)
			}
		}
	}
}

func manyUsers(n int) (ints []int, u32s []uint32) {
	for i := 0; i < n; i++ {
		ints, u32s = append(ints, i%50), append(u32s, uint32(i%50))
	}
	return ints, u32s
}

func TestBatchCodecSeam(t *testing.T) {
	fx := newRegistryServer(t, Config{MaxBodyBytes: 2048, MaxM: 50, MaxBatch: 4}, nil)
	bigI, bigU := manyUsers(1000)
	capI, capU := manyUsers(5)
	runSeam(t, fx.ts.URL+"/v1/batch", fx.ts.URL+"/v2/batch", []seamCase{
		{name: "oversized body", status: 400, message: "request body exceeds 2048 bytes",
			json: BatchRequest{Users: bigI}, frame: &wire.BatchRequest{Users: bigU}},
		{name: "m over MaxM", status: 400, message: "m=51 exceeds the server cap of 50",
			json: BatchRequest{Users: []int{1}, M: 51}, frame: &wire.BatchRequest{Users: []uint32{1}, M: 51}},
		{name: "empty users", status: 400, message: "users must be non-empty",
			json: BatchRequest{M: 5}, frame: &wire.BatchRequest{M: 5}},
		{name: "batch over cap", status: 400, message: "batch of 5 users exceeds the server cap of 4",
			json: BatchRequest{Users: capI}, frame: &wire.BatchRequest{Users: capU}},
		{name: "exclude out of range", status: 400, message: "exclude item 99999 out of range",
			json:  BatchRequest{Users: []int{1}, ExcludeItems: []int{99999}},
			frame: &wire.BatchRequest{Users: []uint32{1}, Exclude: []uint32{99999}}},
		{name: "tags without a table", status: 400, message: "no item tag table configured",
			json:  BatchRequest{Users: []int{1}, Filter: &FilterSpec{DenyTags: []string{"x"}}},
			frame: &wire.BatchRequest{Users: []uint32{1}, DenyTags: []string{"x"}}},
		{name: "unknown tenant", status: 404, code: "unknown_tenant", message: "nobody",
			json: BatchRequest{Users: []int{1}, Tenant: "nobody"}, frame: &wire.BatchRequest{Users: []uint32{1}, Tenant: "nobody"}},
	})

	// An out-of-range user is not a refusal of the batch: both codecs
	// answer 200 and fail that slot alone, on the default and tenant path.
	for _, tenant := range []string{"", "acme"} {
		var js BatchResponse
		if st := postJSON(t, fx.ts.URL+"/v1/batch", BatchRequest{Users: []int{1, 99999, 2}, M: 3, Tenant: tenant}, &js); st != 200 {
			t.Fatalf("tenant %q JSON: status %d", tenant, st)
		}
		st, _, body := postFrame(t, fx.ts.URL+"/v2/batch", &wire.BatchRequest{Users: []uint32{1, 99999, 2}, M: 3, Tenant: tenant})
		if st != 200 {
			t.Fatalf("tenant %q frame: status %d: %s", tenant, st, body)
		}
		compareTransports(t, "bad user slot, tenant "+tenant, decodeFrame(t, body), &js)
		if js.Results[1].Error == "" || js.Results[0].Error != "" || js.Results[2].Error != "" {
			t.Errorf("tenant %q: slot errors %q/%q/%q, want only the middle one failed",
				tenant, js.Results[0].Error, js.Results[1].Error, js.Results[2].Error)
		}
	}
}

func TestShardPartialCodecSeam(t *testing.T) {
	train := dataset.SyntheticSmall(1).Dataset.R
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := trainSmall(t, train, 3).SaveModelFile(path); err != nil {
		t.Fatal(err)
	}
	srv, err := NewShardFromFile(Config{ModelPath: path, Train: train, ShardLo: 0, ShardHi: -1, MaxBodyBytes: 2048, MaxM: 50})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	bigI, bigU := manyUsers(1000)
	expired := map[string]string{DeadlineHeader: "0"}
	runSeam(t, ts.URL+"/v1/shard/topm", ts.URL+"/v2/shard/topm", []seamCase{
		{name: "oversized body", status: 400, message: "request body exceeds 2048 bytes",
			json: ShardTopMRequest{User: 1, ExcludeItems: bigI}, frame: &wire.BatchRequest{Users: []uint32{1}, Exclude: bigU}},
		{name: "m over MaxM", status: 400, message: "m=51 exceeds the server cap of 50",
			json: ShardTopMRequest{User: 1, M: 51}, frame: &wire.BatchRequest{Users: []uint32{1}, M: 51}},
		{name: "user out of range", status: 400, message: "user 99999 out of range",
			json: ShardTopMRequest{User: 99999}, frame: &wire.BatchRequest{Users: []uint32{99999}}},
		{name: "exclude out of range", status: 400, message: "exclude item 99999 out of range",
			json:  ShardTopMRequest{User: 1, ExcludeItems: []int{99999}},
			frame: &wire.BatchRequest{Users: []uint32{1}, Exclude: []uint32{99999}}},
		{name: "version pin miss", status: 409, message: "shard serves model version 1, not the requested 7",
			json:  ShardTopMRequest{User: 1, ExpectVersion: 7},
			frame: &wire.BatchRequest{Users: []uint32{1}, ExpectVersion: 7}},
		{name: "expired deadline", status: 504, message: "deadline budget expired", header: expired,
			json: ShardTopMRequest{User: 1, M: 5}, frame: &wire.BatchRequest{Users: []uint32{1}, M: 5}},
		// The deadline outranks everything the pipeline checks after it.
		{name: "expired deadline, bad m", status: 504, message: "deadline budget expired", header: expired,
			json: ShardTopMRequest{User: 1, M: 51}, frame: &wire.BatchRequest{Users: []uint32{1}, M: 51}},
	})
	if got := srv.metrics.deadlineAborts.Value(); got != 4 {
		t.Errorf("deadline_aborts = %d, want 4 (two cases, two codecs)", got)
	}
}

// TestBatchReportsRankingSnapshotVersion: a batch is labelled with the
// version of the snapshot that ranked it, not of whatever is installed by
// the time the response is shaped. The pipeline's ranking half runs here
// against a snapshot a reload has already retired — deterministically the
// state a reload landing mid-batch leaves a request in.
func TestBatchReportsRankingSnapshotVersion(t *testing.T) {
	srv, _, _, train := newTestServer(t, Config{})
	retired := srv.snap.Load()
	if err := trainSmall(t, train, 99).SaveModelFile(srv.cfg.ModelPath); err != nil {
		t.Fatal(err)
	}
	if err := srv.ReloadFromFile(); err != nil {
		t.Fatal(err)
	}
	if cur := srv.Version(); cur != retired.version+1 {
		t.Fatalf("reload installed version %d, want %d", cur, retired.version+1)
	}
	req := &BatchRequest{Users: []int{3, 7, 11}}
	sc := new(batchScratch)
	version, aerr := srv.rankBatch(nil, route{sn: retired}, req, 5, 1, sc)
	if aerr != nil {
		t.Fatal(aerr.msg)
	}
	if version != retired.version {
		t.Errorf("batch ranked by snapshot %d reports model version %d", retired.version, version)
	}
	off := 0
	for i, u := range req.Users {
		items, scores, _ := retired.engine.TopM(u, 5, userFilters(retired, u, nil)...)
		for r := range items {
			if int(sc.cols.Items[off+r]) != items[r] || sc.cols.Scores[off+r] != scores[r] {
				t.Fatalf("user slot %d rank %d: the batch did not rank against the retired snapshot", i, r)
			}
		}
		off += int(sc.cols.Counts[i])
	}
}

// TestBatchFanOutMatchesSerial: Config.Workers only schedules a batch. A
// server fanning every batch over three goroutines answers byte for byte
// what a serial one answers — order kept, the failed slot in place — on
// both codecs and on both the default and the tenant path.
func TestBatchFanOutMatchesSerial(t *testing.T) {
	serial := newRegistryServer(t, Config{Workers: 1}, nil)
	fanned := newRegistryServer(t, Config{Workers: 3}, nil)
	users := []int{5, 118, 0, 99999, 41, 7, 63, 2, 90, 33, 17}
	for _, tenant := range []string{"", "acme"} {
		jbody, err := json.Marshal(BatchRequest{Users: users, M: 6, ExcludeItems: []int{4, 9}, Tenant: tenant})
		if err != nil {
			t.Fatal(err)
		}
		wreq := &wire.BatchRequest{M: 6, Exclude: []uint32{4, 9}, Tenant: tenant}
		for _, u := range users {
			wreq.Users = append(wreq.Users, uint32(u))
		}
		for _, codec := range []struct {
			path, contentType string
			body              []byte
		}{
			{"/v1/batch", "application/json", jbody},
			{"/v2/batch", FrameContentType, mustFrame(t, wreq)},
		} {
			want := seamPost(t, serial.ts.URL+codec.path, codec.contentType, codec.body, nil)
			got := seamPost(t, fanned.ts.URL+codec.path, codec.contentType, codec.body, nil)
			if want.status != http.StatusOK || got.status != http.StatusOK {
				t.Fatalf("tenant %q %s: status serial %d, fanned %d", tenant, codec.path, want.status, got.status)
			}
			if !bytes.Equal(got.body, want.body) {
				t.Errorf("tenant %q %s: the fanned-out batch differs from the serial one\nserial: %q\nfanned: %q",
					tenant, codec.path, want.body, got.body)
			}
		}
	}
}
