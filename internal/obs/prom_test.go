package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// buildTree exercises every node kind the /metrics trees use: scalars,
// bools, strings, nested maps, Labeled rows with histograms, and a
// LabeledList with a nested map (the shards_health shape).
func buildTree() map[string]any {
	var h Histogram
	h.Observe(50*time.Microsecond, false)
	h.Observe(3*time.Millisecond, true)
	return map[string]any{
		"requests":       int64(2),
		"uptime_seconds": 12.5,
		"draining":       false,
		"version":        "v2-mmap",
		"cache": map[string]any{
			"hits":   uint64(1),
			"misses": uint64(1),
		},
		"endpoints": Labeled{Label: "endpoint", Rows: map[string]map[string]any{
			"recommend": EndpointSnapshot(&h),
			"batch":     EndpointSnapshot(&Histogram{}),
		}},
		"shards_health": LabeledList{Label: "shard", Key: "url", Rows: []map[string]any{
			{"url": "http://s1", "down": true, "last_error": `conn "refused"`, "breaker": map[string]any{"state": "open"}},
			{"url": "http://s2", "down": false, "breaker": map[string]any{"state": "closed"}},
		}},
		"skipped": nil,
	}
}

// TestLabeledJSONIsTheUnwrappedMap: under WriteMetrics' encoder, which
// escapes no HTML, a Labeled or LabeledList subtree writes the bytes its
// rows write unwrapped, row keys and values with <, > and & included.
func TestLabeledJSONIsTheUnwrappedMap(t *testing.T) {
	rows := map[string]map[string]any{"a&b": {"model": "<m>", "requests": int64(2)}}
	list := []map[string]any{{"url": "http://s1?a&b", "last_error": "x->y"}}
	encode := func(v any) string {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	wrapped := encode(map[string]any{"t": Labeled{Label: "tenant", Rows: rows}, "s": LabeledList{Label: "shard", Key: "url", Rows: list}})
	if want := encode(map[string]any{"t": rows, "s": list}); wrapped != want {
		t.Errorf("wrapped rows encode as %s, unwrapped as %s", wrapped, want)
	}
}

func TestExpositionPassesChecker(t *testing.T) {
	out := AppendExposition(nil, "ocular", buildTree())
	if err := CheckExposition(bytes.NewReader(out)); err != nil {
		t.Fatalf("own exposition fails own checker: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{
		"# TYPE ocular_endpoints_latency_histogram histogram",
		`ocular_endpoints_latency_histogram_bucket{endpoint="recommend",le="+Inf"} 2`,
		`ocular_endpoints_requests{endpoint="recommend"} 2`,
		`ocular_shards_health_down{shard="http://s1"} 1`,
		`ocular_shards_health_breaker_state{shard="http://s1",value="open"} 1`,
		`ocular_shards_health_last_error{shard="http://s1",value="conn \"refused\""} 1`,
		`ocular_version{value="v2-mmap"} 1`,
		"ocular_requests 2",
		"ocular_uptime_seconds 12.5",
		"ocular_draining 0",
		"ocular_cache_hits 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(text, "skipped") {
		t.Error("nil leaf must be skipped")
	}
	// One TYPE line per family, samples contiguous under it.
	if n := strings.Count(text, "# TYPE ocular_endpoints_latency_histogram "); n != 1 {
		t.Errorf("histogram family has %d TYPE lines, want 1", n)
	}
}

func TestExpositionHistogramCumulative(t *testing.T) {
	var h Histogram
	h.Observe(50*time.Microsecond, false)
	h.Observe(50*time.Microsecond, false)
	h.Observe(2*time.Second, false)
	out := string(AppendExposition(nil, "t", map[string]any{"lat": h.Snapshot()}))
	for _, want := range []string{
		`t_lat_bucket{le="100"} 2`,
		`t_lat_bucket{le="3162278"} 3`,
		`t_lat_bucket{le="+Inf"} 3`,
		"t_lat_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestCheckerCatchesViolations(t *testing.T) {
	cases := map[string]string{
		"empty":            "",
		"no TYPE":          "a_metric 1\n",
		"bad name":         "# TYPE 9bad untyped\n9bad 1\n",
		"bad type":         "# TYPE m wibble\nm 1\n",
		"duplicate TYPE":   "# TYPE m untyped\nm 1\n# TYPE m untyped\nm 2\n",
		"non-numeric":      "# TYPE m untyped\nm pizza\n",
		"bad label syntax": "# TYPE m untyped\nm{x=unquoted} 1\n",
		"split family":     "# TYPE a untyped\na 1\n# TYPE b untyped\nb 1\na{l=\"2\"} 2\n",
		"hist no +Inf":     "# TYPE h histogram\nh_bucket{le=\"10\"} 1\nh_sum 5\nh_count 1\n",
		"hist no sum":      "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
		"hist count skew":  "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 5\nh_count 2\n",
		"hist decreasing":  "# TYPE h histogram\nh_bucket{le=\"10\"} 5\nh_bucket{le=\"20\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"hist bad bounds":  "# TYPE h histogram\nh_bucket{le=\"20\"} 1\nh_bucket{le=\"10\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"repeated series":  "# TYPE m untyped\nm 2\nm 0\n",
		"reordered repeat": "# TYPE m untyped\nm{tenant=\"acme_eu\",arm=\"control\"} 2\nm{arm=\"control\",tenant=\"acme_eu\"} 0\n",
	}
	for name, in := range cases {
		if err := CheckExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: checker accepted a broken exposition", name)
		}
	}
}

func TestCheckerAcceptsValidForms(t *testing.T) {
	in := strings.Join([]string{
		"# HELP m a help line",
		"# TYPE m counter",
		`m{a="x,y", b="z"} 4 1700000000`,
		`m{b="z", a="x"} 5`,
		"",
		"# TYPE g gauge",
		"g +Inf",
		"# TYPE h histogram",
		`h_bucket{le="10"} 1`,
		`h_bucket{le="+Inf"} 2`,
		"h_sum 11.5",
		"h_count 2",
	}, "\n") + "\n"
	if err := CheckExposition(strings.NewReader(in)); err != nil {
		t.Fatalf("checker rejected a valid exposition: %v", err)
	}
}

func TestSanitizeName(t *testing.T) {
	for in, want := range map[string]string{
		"deadline_504s": "deadline_504s",
		"p50-micros":    "p50_micros",
		"9lead":         "_lead",
		"":              "_",
		"ok_name":       "ok_name",
	} {
		if got := sanitizeName(in); got != want {
			t.Errorf("sanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}
