package trainer

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/feed"
	"repro/internal/obs"
	"repro/internal/serve"
)

func TestMetricsNilSafe(t *testing.T) {
	var m *Metrics
	m.SetBacklog(5)
	m.ObserveCycle(&Cycle{}, nil)
	m.ObserveCycle(nil, errors.New("x"))
}

func TestMetricsObserveCycle(t *testing.T) {
	m := NewMetrics()
	m.SetBacklog(42)
	m.ObserveCycle(&Cycle{
		ReplayDur: 2 * time.Millisecond,
		TrainDur:  30 * time.Millisecond,
		SaveDur:   time.Millisecond,
		// Rollout skipped this cycle: must record nothing.
		Duration: 40 * time.Millisecond,
	}, nil)
	m.ObserveCycle(&Cycle{Duration: time.Millisecond}, errors.New("train blew up"))

	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, req)
	var out struct {
		Backlog     int64 `json:"feed_backlog"`
		Cycles      int64 `json:"cycles"`
		CycleErrors int64 `json:"cycle_errors"`
		Phases      map[string]struct {
			Requests uint64  `json:"requests"`
			P50      float64 `json:"p50_micros"`
		} `json:"phases"`
		LastCycle struct {
			Outcome string `json:"outcome"`
			Error   string `json:"error"`
		} `json:"last_cycle"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Backlog != 42 || out.Cycles != 2 || out.CycleErrors != 1 {
		t.Fatalf("backlog=%d cycles=%d errors=%d", out.Backlog, out.Cycles, out.CycleErrors)
	}
	if out.Phases["train"].Requests != 1 || out.Phases["train"].P50 <= 0 {
		t.Fatalf("train phase = %+v", out.Phases["train"])
	}
	if out.Phases["rollout"].Requests != 0 {
		t.Fatal("skipped rollout phase recorded an observation")
	}
	if out.Phases["cycle"].Requests != 2 {
		t.Fatalf("cycle phase requests = %d, want 2", out.Phases["cycle"].Requests)
	}
	if out.LastCycle.Outcome != "error" || out.LastCycle.Error != "train blew up" {
		t.Fatalf("last_cycle = %+v", out.LastCycle)
	}
}

func TestMetricsPrometheusFormat(t *testing.T) {
	m := NewMetrics()
	m.ObserveCycle(&Cycle{TrainDur: time.Millisecond, Duration: 2 * time.Millisecond}, nil)
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=prometheus", nil))
	if ct := rec.Header().Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	if err := obs.CheckExposition(strings.NewReader(body)); err != nil {
		t.Fatalf("trainer exposition fails the checker: %v", err)
	}
	for _, want := range []string{
		"ocular_feed_backlog 0",
		"ocular_cycles 1",
		`ocular_phases_requests{phase="train"} 1`,
		`ocular_last_cycle_outcome{value="ok"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("trainer exposition missing %q", want)
		}
	}
}

// TestFailedCyclesAreObserved: a cycle that fails — at the rollout, against
// a real refusing server, or before its first phase is over — lands in the
// cycle histogram with its duration and its error, and cycles and
// cycle_errors are that histogram's count and errors: a failed rollout
// cannot be counted by one instrument and missed by the other.
func TestFailedCyclesAreObserved(t *testing.T) {
	base := dataset.SyntheticSmall(21).Dataset.R
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.bin")
	seedModel(t, base, modelPath)
	feedDir := filepath.Join(dir, "feed")
	writeFeed(t, feedDir, feed.Event{User: 1, Item: 1})

	var accepting atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/healthz":
			serve.WriteJSON(w, http.StatusOK, serve.Health{Status: "ok", ModelVersion: 1})
		case !accepting.Load():
			time.Sleep(time.Millisecond) // a rollout that took a measurable while to fail
			serve.WriteError(w, http.StatusInternalServerError, "server restarting")
		default:
			serve.WriteJSON(w, http.StatusOK, serve.ReloadResponse{ModelVersion: 2, Mapped: true})
		}
	}))
	defer ts.Close()

	type phase struct {
		Requests, Errors uint64
		Total            int64 `json:"latency_micros_total"`
	}
	read := func(m *Metrics) (cycles, cycleErrors uint64, phases map[string]phase) {
		t.Helper()
		rec := httptest.NewRecorder()
		m.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		var out struct {
			Cycles      uint64           `json:"cycles"`
			CycleErrors uint64           `json:"cycle_errors"`
			Phases      map[string]phase `json:"phases"`
		}
		if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Cycles, out.CycleErrors, out.Phases
	}

	quick := testTrainCfg
	quick.MaxIter = 3
	mets := NewMetrics()
	tr, err := New(Config{FeedDir: feedDir, Base: base, Train: quick, ModelPath: modelPath, ServerURL: ts.URL, Metrics: mets})
	if err != nil {
		t.Fatal(err)
	}
	cy, err := tr.RunOnce(context.Background())
	if err == nil || !strings.Contains(err.Error(), "server restarting") {
		t.Fatalf("rollout against a refusing server: %v", err)
	}
	if cy.Duration < cy.RolloutDur || cy.RolloutDur < time.Millisecond {
		t.Errorf("failed cycle reports %v overall for a rollout of %v", cy.Duration, cy.RolloutDur)
	}
	cycles, cycleErrors, phases := read(mets)
	if c, r := phases["cycle"], phases["rollout"]; cycles != 1 || cycleErrors != 1 ||
		c.Requests != 1 || c.Errors != 1 || r.Requests != 1 || r.Errors != 1 || c.Total < r.Total || r.Total < 1000 {
		t.Errorf("after a failed rollout: cycles=%d cycle_errors=%d cycle=%+v rollout=%+v, want one failed cycle holding one failed rollout",
			cycles, cycleErrors, c, r)
	}
	accepting.Store(true)
	if _, err := tr.RunOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if cycles, cycleErrors, phases = read(mets); cycles != 2 || cycleErrors != 1 || phases["cycle"].Requests != 2 {
		t.Errorf("after the retry: cycles=%d cycle_errors=%d cycle=%+v, want 2/1", cycles, cycleErrors, phases["cycle"])
	}

	// Nothing to train on: the cycle fails before any phase is over, and is
	// a cycle all the same.
	empty := NewMetrics()
	tr, err = New(Config{FeedDir: filepath.Join(dir, "no-feed"), Train: quick, ModelPath: filepath.Join(dir, "none.bin"), Metrics: empty})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.RunOnce(context.Background()); err == nil {
		t.Fatal("a cycle over no data succeeded")
	}
	if cycles, cycleErrors, phases = read(empty); cycles != 1 || cycleErrors != 1 || phases["train"].Requests != 0 {
		t.Errorf("after an early failure: cycles=%d cycle_errors=%d phases=%+v, want 1/1 and no train phase", cycles, cycleErrors, phases)
	}
}
