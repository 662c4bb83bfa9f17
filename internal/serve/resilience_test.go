package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/ranktest"
)

func TestGateAdmissionBounds(t *testing.T) {
	g := NewGate(2, 1, 30*time.Millisecond)

	rel1, ok := g.Acquire(context.Background())
	if !ok {
		t.Fatal("first acquire denied")
	}
	rel2, ok := g.Acquire(context.Background())
	if !ok {
		t.Fatal("second acquire denied")
	}
	if got := g.InFlight(); got != 2 {
		t.Fatalf("in-flight = %d, want 2", got)
	}

	// Both slots held: a third caller queues, waits out QueueWait, and
	// is shed without ever being admitted.
	start := time.Now()
	if _, ok := g.Acquire(context.Background()); ok {
		t.Fatal("third acquire admitted past the limit")
	}
	if el := time.Since(start); el < 20*time.Millisecond {
		t.Fatalf("shed after %v — the queue wait was not honored", el)
	}
	if got := g.InFlight(); got != 2 {
		t.Fatalf("in-flight after a shed = %d, want 2", got)
	}

	// Releasing frees the slot for the next caller; double release of
	// the same grant must not mint an extra slot.
	rel1()
	rel1()
	rel3, ok := g.Acquire(context.Background())
	if !ok {
		t.Fatal("acquire after release denied")
	}
	if _, ok := g.Acquire(context.Background()); ok {
		t.Fatal("double release minted an extra slot")
	}
	rel2()
	rel3()
	if got := g.InFlight(); got != 0 {
		t.Fatalf("in-flight after all releases = %d, want 0", got)
	}
	if got := g.Peak(); got != 2 {
		t.Errorf("peak = %d, want 2", got)
	}
	snap := g.Snapshot()
	if snap["admitted"].(int64) != 3 || snap["shed"].(int64) != 2 {
		t.Errorf("snapshot counters: %v", snap)
	}
}

func TestGateAcquireHonorsContext(t *testing.T) {
	g := NewGate(1, 1, time.Hour) // only the caller's context can end the wait
	rel, _ := g.Acquire(context.Background())
	defer rel()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, ok := g.Acquire(ctx); ok {
		t.Fatal("acquire admitted past the limit")
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("cancelled acquire waited %v", el)
	}
}

// TestGateWrapShedsWith429 drives Wrap through a real HTTP server: with
// every slot and queue position held, the overflow gets 429 +
// Retry-After immediately, and admitted requests finish untouched.
func TestGateWrapShedsWith429(t *testing.T) {
	const maxInFlight, maxQueue = 2, 1
	g := NewGate(maxInFlight, maxQueue, 50*time.Millisecond)
	release := make(chan struct{})
	entered := make(chan struct{}, 16)
	h := g.Wrap(func(w http.ResponseWriter, r *http.Request) int {
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
		return http.StatusOK
	})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { h(w, r) }))
	defer ts.Close()

	var wg sync.WaitGroup
	statuses := make(chan int, 8)
	retryAfter := make(chan string, 8)
	for i := 0; i < maxInFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	// Wait until both fillers hold their slots before offering overflow.
	for i := 0; i < maxInFlight; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("fillers never reached the handler")
		}
	}
	const overflow = 4
	shedDone := make(chan struct{}, overflow)
	for i := 0; i < overflow; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { shedDone <- struct{}{} }()
			resp, err := http.Get(ts.URL)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			statuses <- resp.StatusCode
			retryAfter <- resp.Header.Get("Retry-After")
		}()
	}
	// The overflow is shed by the full queue or by QueueWait, never by the
	// release: wait for all four answers while the fillers still hold
	// every slot, so a late arrival cannot be admitted into a freed one.
	for i := 0; i < overflow; i++ {
		select {
		case <-shedDone:
		case <-time.After(5 * time.Second):
			t.Fatal("overflow requests were not shed while the slots were held")
		}
	}
	close(release)
	wg.Wait()
	close(statuses)
	close(retryAfter)

	var ok200, shed int
	for st := range statuses {
		switch st {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Errorf("unexpected status %d", st)
		}
	}
	if ok200 != maxInFlight || shed != overflow {
		t.Fatalf("got %d ok / %d shed, want %d / %d", ok200, shed, maxInFlight, overflow)
	}
	for ra := range retryAfter {
		if ra != "1" {
			t.Errorf("Retry-After = %q, want \"1\"", ra)
		}
	}
	if peak := g.Peak(); peak > maxInFlight {
		t.Errorf("peak in-flight %d exceeds limit %d", peak, maxInFlight)
	}
}

// TestReadyzDrainOrdering is the drain-ordering regression test: after
// BeginDrain the readiness probe must flip to 503 (so the balancer
// stops sending traffic) while the data path keeps serving in-flight
// and stragglers, and liveness stays green throughout.
func TestReadyzDrainOrdering(t *testing.T) {
	srv, ts, _, _ := newTestServer(t, Config{})

	get := func(path string) (int, map[string]any) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		decodeInto(t, resp, &body)
		return resp.StatusCode, body
	}

	if st, body := get("/readyz"); st != 200 || body["ready"] != true {
		t.Fatalf("before drain: readyz %d %v", st, body)
	}
	if st, _ := get("/healthz"); st != 200 {
		t.Fatalf("before drain: healthz %d", st)
	}

	srv.BeginDrain()
	st, body := get("/readyz")
	if st != 503 || body["reason"] != "draining" {
		t.Fatalf("during drain: readyz %d %v, want 503 draining", st, body)
	}
	// Liveness is about the process, not the rotation: still green.
	if st, _ := get("/healthz"); st != 200 {
		t.Fatalf("during drain: healthz %d, want 200", st)
	}
	// The data path must keep serving while drained — stragglers and
	// in-flight requests finish normally.
	var rec RecommendResponse
	if st := ranktest.PostJSON(t, ts.URL+"/v1/recommend", RecommendRequest{User: 3, M: 5}, &rec); st != 200 {
		t.Fatalf("during drain: recommend %d, want 200", st)
	}
	if len(rec.Items) != 5 {
		t.Fatalf("during drain: served %d items, want 5", len(rec.Items))
	}
}

func decodeInto(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestServerGateWiredIntoDataPath: a server configured with admission
// limits sheds data-plane overflow with 429 but never gates the control
// plane (healthz/readyz/metrics/reload must always answer).
func TestServerGateWiredIntoDataPath(t *testing.T) {
	srv, ts, _, _ := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 0, QueueWait: 10 * time.Millisecond})
	rel, ok := srv.Gate().Acquire(context.Background())
	if !ok {
		t.Fatal("could not hold the only slot")
	}
	if st := ranktest.PostJSON(t, ts.URL+"/v1/recommend", RecommendRequest{User: 1, M: 5}, nil); st != 429 {
		t.Fatalf("data path with gate full: status %d, want 429", st)
	}
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("control plane %s gated: status %d", path, resp.StatusCode)
		}
	}
	rel()
	if st := ranktest.PostJSON(t, ts.URL+"/v1/recommend", RecommendRequest{User: 1, M: 5}, nil); st != 200 {
		t.Fatalf("data path after release: status %d", st)
	}
}
