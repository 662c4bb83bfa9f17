package chaos

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"
)

func okServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, c *http.Client, url string) (int, string, error) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", err
	}
	return resp.StatusCode, string(body), nil
}

// TestTransportSequenceWindows pins the deterministic fault windows:
// After skips, Count bounds, EveryN flaps — byte-for-byte repeatable.
func TestTransportSequenceWindows(t *testing.T) {
	ts := okServer(t)
	tr := NewTransport(nil, 1)
	c := &http.Client{Transport: tr}

	// Requests 0,1 pass (After: 2); 2,3 fault (Count: 2); 4+ pass again.
	tr.Set(&Fault{After: 2, Count: 2, Status: http.StatusInternalServerError})
	want := []int{200, 200, 500, 500, 200, 200}
	for i, w := range want {
		st, _, err := get(t, c, ts.URL)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if st != w {
			t.Errorf("request %d: status %d, want %d", i, st, w)
		}
	}
	if n := tr.Injected(); n != 2 {
		t.Errorf("Injected() = %d, want 2", n)
	}

	// EveryN: 3 → fault requests 0, 3, 6, ... — a deterministic flap.
	tr.Set(&Fault{EveryN: 3, Status: http.StatusServiceUnavailable})
	want = []int{503, 200, 200, 503, 200, 200, 503}
	for i, w := range want {
		st, _, _ := get(t, c, ts.URL)
		if st != w {
			t.Errorf("flap request %d: status %d, want %d", i, st, w)
		}
	}
}

// TestTransportScoping: Host and Path scope faults to one shard or one
// route; out-of-scope requests pass untouched.
func TestTransportScoping(t *testing.T) {
	a, b := okServer(t), okServer(t)
	hostOf := func(s *httptest.Server) string {
		u, _ := url.Parse(s.URL)
		return u.Host
	}
	tr := NewTransport(nil, 1)
	c := &http.Client{Transport: tr}
	tr.Set(&Fault{Host: hostOf(a), Err: ErrPartitioned})

	if _, _, err := get(t, c, a.URL); !errors.Is(err, ErrPartitioned) {
		t.Errorf("partitioned host: err = %v, want ErrPartitioned", err)
	}
	if st, _, err := get(t, c, b.URL); err != nil || st != 200 {
		t.Errorf("unfaulted host: status %d, err %v", st, err)
	}

	tr.Set(&Fault{Path: "/v1/shard", Status: 502})
	if st, _, _ := get(t, c, a.URL+"/v1/shard/topm"); st != 502 {
		t.Errorf("matched path: status %d, want 502", st)
	}
	if st, _, _ := get(t, c, a.URL+"/healthz"); st != 200 {
		t.Errorf("unmatched path: status %d, want 200", st)
	}

	// Set() with no faults heals everything.
	tr.Set()
	if st, _, err := get(t, c, a.URL+"/v1/shard/topm"); err != nil || st != 200 {
		t.Errorf("after heal: status %d, err %v", st, err)
	}
}

// TestTransportHangRespectsContext: a hung request returns exactly when
// its deadline fires, with context.DeadlineExceeded.
func TestTransportHangRespectsContext(t *testing.T) {
	ts := okServer(t)
	tr := NewTransport(nil, 1)
	tr.Set(&Fault{Hang: true})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
	start := time.Now()
	_, err := (&http.Client{Transport: tr}).Do(req)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung request: err = %v, want DeadlineExceeded", err)
	}
	if el := time.Since(start); el < 40*time.Millisecond || el > 5*time.Second {
		t.Errorf("hung request returned after %v, want ≈50ms", el)
	}
}

// TestTransportSeededProbabilityDeterministic: the same seed over the
// same request sequence faults the same requests.
func TestTransportSeededProbabilityDeterministic(t *testing.T) {
	ts := okServer(t)
	run := func(seed uint64) []int {
		tr := NewTransport(nil, seed)
		tr.Set(&Fault{Prob: 0.5, Status: 500})
		c := &http.Client{Transport: tr}
		out := make([]int, 40)
		for i := range out {
			out[i], _, _ = get(t, c, ts.URL)
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d: seed-7 runs diverge (%d vs %d)", i, a[i], b[i])
		}
	}
	diff := false
	for i, st := range run(8) {
		if st != a[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("seeds 7 and 8 faulted identically across 40 requests (suspicious)")
	}
}

// TestProxyModes drives one connection through each proxy mode.
func TestProxyModes(t *testing.T) {
	ts := okServer(t)
	p, err := NewProxy(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// Fresh client per phase: a poisoned keep-alive connection must not
	// leak the previous mode into the next phase.
	client := func(timeout time.Duration) *http.Client {
		return &http.Client{Timeout: timeout, Transport: &http.Transport{DisableKeepAlives: true}}
	}

	if st, body, err := get(t, client(2*time.Second), p.URL()); err != nil || st != 200 || body != "ok" {
		t.Fatalf("pass mode: status %d body %q err %v", st, body, err)
	}

	p.SetMode(ModeRefuse)
	if _, _, err := get(t, client(2*time.Second), p.URL()); err == nil {
		t.Error("refuse mode served a response")
	}

	p.SetMode(ModeHang)
	start := time.Now()
	if _, _, err := get(t, client(100*time.Millisecond), p.URL()); err == nil {
		t.Error("hang mode served a response")
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("hang mode ignored the client timeout (%v)", el)
	}

	// Trickle: the response arrives eventually (generous client timeout)
	// but far slower than the direct path.
	p.SetMode(ModeTrickle)
	p.SetTrickle(5 * time.Millisecond)
	start = time.Now()
	st, body, err := get(t, client(30*time.Second), p.URL())
	if err != nil || st != 200 || body != "ok" {
		t.Fatalf("trickle mode: status %d body %q err %v", st, body, err)
	}
	// The response is ~100+ header bytes at 5ms/byte: ≥ 250ms is safely
	// distinguishable from the sub-ms direct path.
	if el := time.Since(start); el < 250*time.Millisecond {
		t.Errorf("trickle served in %v — not actually trickling", el)
	}

	// A short-deadline client gives up mid-trickle without wedging the
	// proxy for later connections.
	if _, _, err := get(t, client(50*time.Millisecond), p.URL()); err == nil {
		t.Error("mid-trickle deadline: expected a client timeout")
	}
	p.SetMode(ModePass)
	if st, _, err := get(t, client(2*time.Second), p.URL()); err != nil || st != 200 {
		t.Errorf("back to pass mode: status %d err %v", st, err)
	}
}

// Injected returns how many requests have been faulted since
// construction (across Set generations).
func (t *Transport) Injected() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.injected
}
