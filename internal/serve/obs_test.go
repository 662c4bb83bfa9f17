package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/ranktest"
)

// TestInstrumentPanicPath: a handler panic must still record a 500 in
// the endpoint histogram and return the in-flight gauge to zero —
// net/http recovers per connection, so a leaking gauge would drift up
// forever on a flaky handler.
func TestInstrumentPanicPath(t *testing.T) {
	m := NewEdge("server", 1<<20, 1000, 1024, nil, []string{"recommend"})
	h := m.Instrument("recommend", func(w http.ResponseWriter, r *http.Request) int {
		panic("boom")
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate through instrument")
			}
		}()
		h(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/recommend", nil))
	}()
	s := m.endpoints["recommend"].Snapshot()
	if s.Count != 1 || s.Errors != 1 {
		t.Fatalf("after panic: count=%d errors=%d, want 1/1 (500 recorded)", s.Count, s.Errors)
	}
	if got := m.inFlight.Value(); got != 0 {
		t.Fatalf("in-flight gauge = %d after panic, want 0", got)
	}
}

// failingWriter simulates a client that vanished mid-response.
type failingWriter struct{ h http.Header }

func (f *failingWriter) Header() http.Header       { return f.h }
func (f *failingWriter) WriteHeader(int)           {}
func (f *failingWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

func TestResponseWriteErrorsCounted(t *testing.T) {
	m := NewEdge("server", 1<<20, 1000, 1024, nil, []string{"recommend"})
	h := m.Instrument("recommend", func(w http.ResponseWriter, r *http.Request) int {
		// Two writes (the JSON encoder may flush repeatedly): the failed
		// request must count once, not once per write.
		return WriteJSON(w, http.StatusOK, map[string]any{"a": strings.Repeat("x", 100)})
	})
	h(&failingWriter{h: http.Header{}}, httptest.NewRequest("POST", "/v1/recommend", nil))
	h(&failingWriter{h: http.Header{}}, httptest.NewRequest("POST", "/v1/recommend", nil))
	if got := m.writeErrors.Value(); got != 2 {
		t.Fatalf("response_write_errors = %d, want 2 (one per failed request)", got)
	}
}

func TestMetricsJSONPercentiles(t *testing.T) {
	_, ts, _, _ := newTestServer(t, Config{})
	ranktest.PostJSON(t, ts.URL+"/v1/recommend", RecommendRequest{User: 3, M: 5}, nil)
	ranktest.PostJSON(t, ts.URL+"/v1/recommend", RecommendRequest{User: 3, M: 5}, nil)

	var out struct {
		ResponseWriteErrors *int64 `json:"response_write_errors"`
		Endpoints           map[string]struct {
			Requests  uint64           `json:"requests"`
			P50       float64          `json:"p50_micros"`
			P95       float64          `json:"p95_micros"`
			P99       float64          `json:"p99_micros"`
			Mean      float64          `json:"latency_micros_mean"`
			Histogram map[string]int64 `json:"latency_histogram"`
		} `json:"endpoints"`
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ResponseWriteErrors == nil {
		t.Error("metrics missing response_write_errors")
	}
	rec := out.Endpoints["recommend"]
	if rec.Requests != 2 {
		t.Fatalf("recommend requests = %d, want 2", rec.Requests)
	}
	if rec.P50 <= 0 || rec.P95 < rec.P50 || rec.P99 < rec.P95 {
		t.Fatalf("percentiles not ordered: p50=%v p95=%v p99=%v", rec.P50, rec.P95, rec.P99)
	}
	if rec.Mean <= 0 {
		t.Fatalf("mean = %v, want > 0", rec.Mean)
	}
	var total int64
	for _, n := range rec.Histogram {
		total += n
	}
	if total != int64(rec.Requests) {
		t.Fatalf("histogram sums to %d, requests %d", total, rec.Requests)
	}
}

// Both views of the one tree also say which path served: a known user of
// this bias-free model is ranked from the co-cluster support, a fold-in
// always by the full sweep — two rankings, one of them swept.
func TestMetricsPrometheusExposition(t *testing.T) {
	_, ts, _, _ := newTestServer(t, Config{})
	ranktest.PostJSON(t, ts.URL+"/v1/recommend", RecommendRequest{User: 3, M: 5}, nil)
	ranktest.PostJSON(t, ts.URL+"/v1/foldin", FoldInRequest{Items: []int{4, 17, 23}, M: 5}, nil)
	var tree struct {
		Cache struct{ Ranked, Swept int64 }
	}
	getJSON(t, ts.URL+"/metrics", &tree)
	if tree.Cache.Ranked != 2 || tree.Cache.Swept != 1 {
		t.Errorf("cache.ranked %d, cache.swept %d; want 2 and 1", tree.Cache.Ranked, tree.Cache.Swept)
	}

	resp, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckExposition(strings.NewReader(string(body))); err != nil {
		t.Fatalf("serve exposition fails the checker: %v", err)
	}
	for _, want := range []string{
		`ocular_endpoints_requests{endpoint="recommend"} 1`,
		"# TYPE ocular_endpoints_latency_histogram histogram",
		"ocular_cache_hits",
		"ocular_cache_ranked 2",
		"ocular_cache_swept 1",
		"ocular_response_write_errors 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestShardPrometheusExposition(t *testing.T) {
	shards := newShards(t, ranktest.New(t, ranktest.Variant{}), 2, Config{})
	ranktest.PostJSON(t, shards[0].URL+"/v1/shard/topm", ShardTopMRequest{User: 1, M: 5}, nil)
	resp, err := http.Get(shards[0].URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckExposition(strings.NewReader(string(body))); err != nil {
		t.Fatalf("shard exposition fails the checker: %v", err)
	}
	if !strings.Contains(string(body), `ocular_endpoints_requests{endpoint="shard_topm"} 1`) {
		t.Error("shard exposition missing the shard_topm endpoint family")
	}
}

type debugTraces struct {
	Traces []struct {
		ID       string `json:"trace_id"`
		Endpoint string `json:"endpoint"`
		Status   int    `json:"status"`
		Spans    []struct {
			Name string `json:"name"`
			Note string `json:"note"`
		} `json:"spans"`
	} `json:"traces"`
}

func getTraces(t testing.TB, base string) debugTraces {
	t.Helper()
	resp, err := http.Get(base + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out debugTraces
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func spanNames(spans []struct {
	Name string `json:"name"`
	Note string `json:"note"`
}) []string {
	names := make([]string, len(spans))
	for i, s := range spans {
		names[i] = s.Name
	}
	return names
}

func TestTracedRecommend(t *testing.T) {
	_, ts, _, _ := newTestServer(t, Config{})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/recommend",
		strings.NewReader(`{"user": 3, "m": 5}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, "caller-supplied-id")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceHeader); got != "caller-supplied-id" {
		t.Fatalf("trace header not echoed: %q", got)
	}
	// The repeat is a cache hit — its trace must say so.
	ranktest.PostJSON(t, ts.URL+"/v1/recommend", RecommendRequest{User: 3, M: 5}, nil)

	out := getTraces(t, ts.URL)
	if len(out.Traces) != 2 {
		t.Fatalf("got %d traces, want 2 (scrapes and probes are untraced)", len(out.Traces))
	}
	miss, hit := out.Traces[0], out.Traces[1]
	if miss.ID != "caller-supplied-id" || miss.Endpoint != "recommend" || miss.Status != 200 {
		t.Fatalf("miss trace = %+v", miss)
	}
	names := spanNames(miss.Spans)
	if len(names) < 2 || names[0] != "score" || names[1] != "filter_select" {
		t.Fatalf("miss spans = %v, want [score filter_select]", names)
	}
	if len(hit.Spans) != 1 || hit.Spans[0].Name != "rank" || hit.Spans[0].Note != "cache_hit" {
		t.Fatalf("hit spans = %+v, want one rank/cache_hit span", hit.Spans)
	}
}

func TestTracingDisabled(t *testing.T) {
	_, ts, _, _ := newTestServer(t, Config{TraceRing: -1})
	resp, err := http.Post(ts.URL+"/v1/recommend", "application/json",
		strings.NewReader(`{"user": 3, "m": 5}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get(obs.TraceHeader) != "" {
		t.Error("disabled tracer still echoes a trace header")
	}
	if out := getTraces(t, ts.URL); len(out.Traces) != 0 {
		t.Fatalf("disabled tracer has %d traces", len(out.Traces))
	}
}
