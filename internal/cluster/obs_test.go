package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/ranktest"
	"repro/internal/serve"
)

type traceDump struct {
	Traces []struct {
		ID       string `json:"trace_id"`
		Endpoint string `json:"endpoint"`
		Status   int    `json:"status"`
		Spans    []struct {
			Name      string `json:"name"`
			DurMicros int64  `json:"dur_micros"`
			Note      string `json:"note"`
		} `json:"spans"`
	} `json:"traces"`
}

func dumpTraces(t testing.TB, base string) traceDump {
	t.Helper()
	resp, err := http.Get(base + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out traceDump
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTraceAcrossTier is the cross-tier tracing e2e: one traced request
// at the router must leave a /debug/traces record there (one shard_call
// span per shard and one merge span per scatter, however many users the
// frame carried) and a record carrying the SAME trace ID on every shard it
// scattered to, with the shard-side aggregate rank span.
func TestTraceAcrossTier(t *testing.T) {
	tr := newTier(t, 3, Config{})

	const traceID = "e2e-cross-tier-1"
	body := strings.NewReader(`{"user": 2, "m": 8}`)
	req, _ := http.NewRequest("POST", tr.routerTS.URL+"/v1/recommend", body)
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("recommend status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != traceID {
		t.Fatalf("router did not echo the trace ID: %q", got)
	}

	// Router side: the record for our ID has one shard_call span per
	// shard (the note names the shard URL) and a merge span.
	dump := dumpTraces(t, tr.routerTS.URL)
	var calls map[string]bool
	var sawMerge bool
	for _, rec := range dump.Traces {
		if rec.ID != traceID {
			continue
		}
		if rec.Endpoint != "recommend" || rec.Status != 200 {
			t.Fatalf("router trace = %+v", rec)
		}
		calls = map[string]bool{}
		for _, sp := range rec.Spans {
			switch sp.Name {
			case "shard_call":
				if strings.Contains(sp.Note, "error") {
					t.Fatalf("shard_call errored: %q", sp.Note)
				}
				calls[sp.Note] = true
			case "merge":
				sawMerge = true
				if strings.Contains(sp.Note, "degraded") {
					t.Fatal("healthy tier produced a degraded merge")
				}
			}
		}
	}
	if calls == nil {
		t.Fatalf("router has no trace %q", traceID)
	}
	if len(calls) != len(tr.shardTS) {
		t.Fatalf("router recorded calls to %d shards, scattered to %d", len(calls), len(tr.shardTS))
	}
	if !sawMerge {
		t.Fatal("router trace has no merge span")
	}

	// Shard side: every shard the router called holds a record with the
	// same ID, carrying the one span a frame's users rank under.
	for i, sts := range tr.shardTS {
		if !calls[sts.URL] {
			t.Fatalf("shard %d (%s) missing from router shard_call spans", i, sts.URL)
		}
		var found bool
		for _, rec := range dumpTraces(t, sts.URL).Traces {
			if rec.ID != traceID {
				continue
			}
			found = true
			if len(rec.Spans) != 1 || rec.Spans[0].Name != "batch_rank" || rec.Spans[0].Note != "users=1" {
				t.Fatalf("shard %d trace spans = %+v, want one batch_rank span over users=1", i, rec.Spans)
			}
		}
		if !found {
			t.Fatalf("shard %d has no trace %q — trace ID not propagated", i, traceID)
		}
	}
}

// TestTraceCacheHitSpan: the router's second identical request answers
// from its merge cache without scattering, and the trace says so.
func TestTraceCacheHitSpan(t *testing.T) {
	tr := newTier(t, 2, Config{CacheSize: 64})
	req := serve.RecommendRequest{User: 1, M: 5}
	if st := ranktest.PostJSON(t, tr.routerTS.URL+"/v1/recommend", req, nil); st != 200 {
		t.Fatalf("first status %d", st)
	}
	if st := ranktest.PostJSON(t, tr.routerTS.URL+"/v1/recommend", req, nil); st != 200 {
		t.Fatalf("second status %d", st)
	}
	dump := dumpTraces(t, tr.routerTS.URL)
	var hits int
	for _, rec := range dump.Traces {
		for _, sp := range rec.Spans {
			if sp.Name == "cache" && sp.Note == "hits=1" {
				hits++
			}
		}
	}
	if hits != 1 {
		t.Fatalf("saw %d cache-hit spans across %d traces, want 1", hits, len(dump.Traces))
	}
}

func TestRouterPrometheusExposition(t *testing.T) {
	tr := newTier(t, 2, Config{})
	if st := ranktest.PostJSON(t, tr.routerTS.URL+"/v1/recommend", serve.RecommendRequest{User: 4, M: 5}, nil); st != 200 {
		t.Fatalf("recommend status %d", st)
	}
	resp, err := http.Get(tr.routerTS.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckExposition(strings.NewReader(string(body))); err != nil {
		t.Fatalf("router exposition fails the checker: %v", err)
	}
	text := string(body)
	for _, want := range []string{
		`ocular_endpoints_requests{endpoint="recommend"} 1`,
		"# TYPE ocular_shard_latency_latency_histogram histogram",
		"ocular_response_write_errors 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("router exposition missing %q", want)
		}
	}
	// One shard_latency histogram row per shard URL.
	for _, sts := range tr.shardTS {
		if !strings.Contains(text, `shard="`+sts.URL+`"`) {
			t.Errorf("router exposition missing shard label for %s", sts.URL)
		}
	}
}

// TestRouterMetricsJSONPercentiles pins the JSON shape the runbook
// documents: per-endpoint interpolated percentiles next to the raw
// histogram.
func TestRouterMetricsJSONPercentiles(t *testing.T) {
	tr := newTier(t, 2, Config{})
	if st := ranktest.PostJSON(t, tr.routerTS.URL+"/v1/recommend", serve.RecommendRequest{User: 0, M: 5}, nil); st != 200 {
		t.Fatalf("recommend status %d", st)
	}
	var out struct {
		Endpoints map[string]struct {
			Requests uint64  `json:"requests"`
			P99      float64 `json:"p99_micros"`
		} `json:"endpoints"`
		ShardLatency map[string]struct {
			Requests uint64 `json:"requests"`
		} `json:"shard_latency"`
	}
	resp, err := http.Get(tr.routerTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	rec := out.Endpoints["recommend"]
	if rec.Requests != 1 || rec.P99 <= 0 {
		t.Fatalf("recommend endpoint = %+v", rec)
	}
	for _, sts := range tr.shardTS {
		if out.ShardLatency[sts.URL].Requests == 0 {
			t.Errorf("shard %s has no latency observations", sts.URL)
		}
	}
}
