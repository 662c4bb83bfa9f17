// Package chaos is the fault-injection harness behind the serving tier's
// resilience tests: a deterministic fault-injecting http.RoundTripper
// (inject latency, errors, hangs, synthesized HTTP statuses — scoped by
// host, path, request sequence, period or seeded probability) and a
// byte-level listener proxy (hang, refuse, trickle — the slow-loris
// shard) that sit between the router and its shards.
//
// Everything is deterministic given the request sequence: faults match by
// per-fault counters, probabilistic faults draw from a PCG seeded at
// construction. Two runs feeding the transport the same requests in the
// same order inject the same faults, which is what lets the chaos tests
// assert exact breaker and recovery behavior instead of retrying until
// the stars align.
//
// The package depends only on the standard library, so it can wrap any
// HTTP client in any test without import cycles.
package chaos

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"time"
)

// ErrPartitioned is the conventional connection-level error for a
// partitioned host — what a dial into a black-holed network segment
// surfaces as. Tests match it with errors.Is.
var ErrPartitioned = errors.New("chaos: network partition")

// Fault is one injection rule. Zero matching fields match everything;
// zero behavior fields mean "pass through" (a Fault with only Latency
// set delays but still delivers). The first matching fault in a
// transport's list applies; later ones are not consulted for that
// request.
type Fault struct {
	// Host, when non-empty, matches the request URL's host (exact,
	// including port). Scoping a fault to one shard is Host matching.
	Host string
	// Path, when non-empty, is a prefix match on the request URL path —
	// "/v1/shard" faults the data path while probes stay healthy.
	Path string

	// After skips the first After matching requests (they pass through
	// unfaulted). Count, when positive, bounds how many requests after
	// that window opens are faulted; 0 means every one. Together they
	// express one-shot faults and bounded outages.
	After int
	Count int
	// EveryN, when > 1, faults only every Nth request inside the
	// After/Count window — a deterministic flap (fail one, pass N-1).
	EveryN int
	// Prob, when in (0, 1), faults each in-window request with this
	// probability, drawn from the transport's seeded generator —
	// reproducible randomness.
	Prob float64

	// Latency delays the request (respecting its context) before any
	// other behavior — and before pass-through when it is the only
	// behavior set.
	Latency time.Duration
	// Hang blocks until the request context is done and returns its
	// error: the hung-but-accepting shard. Requests without a deadline
	// hang forever, which is the point.
	Hang bool
	// Err fails the request with this connection-level error
	// (ErrPartitioned, or any error the test wants to see surfaced).
	Err error
	// Status synthesizes an HTTP response with this status and a JSON
	// error body, without touching the network.
	Status int

	matched int // requests that matched Host/Path, guarded by Transport.mu
	applied int // requests actually faulted, guarded by Transport.mu
}

// matches reports whether req falls under this fault's scope.
func (f *Fault) matches(req *http.Request) bool {
	if f.Host != "" && req.URL.Host != f.Host {
		return false
	}
	if f.Path != "" && !strings.HasPrefix(req.URL.Path, f.Path) {
		return false
	}
	return true
}

// Transport is a fault-injecting http.RoundTripper. Faults are swapped
// atomically with Set — Set() with no arguments heals everything — so a
// test scripts an outage and its recovery without rebuilding clients.
// Safe for concurrent use.
type Transport struct {
	inner http.RoundTripper

	mu       sync.Mutex
	rng      *rand.Rand
	faults   []*Fault
	injected int64
}

// NewTransport wraps inner (nil means http.DefaultTransport) with a
// fault layer. seed feeds the generator behind Fault.Prob; two
// transports with the same seed and request sequence inject identically.
func NewTransport(inner http.RoundTripper, seed uint64) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &Transport{
		inner: inner,
		rng:   rand.New(rand.NewPCG(seed, 0x63_68_61_6f_73)), // "chaos"
	}
}

// Set atomically replaces the fault list and resets the new faults'
// sequence counters. Set() clears every fault — the heal step of a chaos
// scenario.
func (t *Transport) Set(faults ...*Fault) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, f := range faults {
		f.matched, f.applied = 0, 0
	}
	t.faults = faults
}

// pick finds the fault to apply to req, advancing sequence counters.
func (t *Transport) pick(req *http.Request) *Fault {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, f := range t.faults {
		if !f.matches(req) {
			continue
		}
		idx := f.matched // 0-based index among matching requests
		f.matched++
		if idx < f.After {
			return nil
		}
		in := idx - f.After
		if f.Count > 0 && in >= f.Count {
			return nil
		}
		if f.EveryN > 1 && in%f.EveryN != 0 {
			return nil
		}
		if f.Prob > 0 && f.Prob < 1 && t.rng.Float64() >= f.Prob {
			return nil
		}
		f.applied++
		t.injected++
		return f
	}
	return nil
}

// RoundTrip applies the first matching fault, or forwards to the inner
// transport.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	f := t.pick(req)
	if f == nil {
		return t.inner.RoundTrip(req)
	}
	ctx := req.Context()
	if f.Latency > 0 {
		timer := time.NewTimer(f.Latency)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		}
	}
	switch {
	case f.Hang:
		<-ctx.Done()
		return nil, ctx.Err()
	case f.Err != nil:
		return nil, f.Err
	case f.Status != 0:
		body := fmt.Sprintf(`{"error":"chaos: injected HTTP %d"}`+"\n", f.Status)
		return &http.Response{
			Status:        fmt.Sprintf("%d %s", f.Status, http.StatusText(f.Status)),
			StatusCode:    f.Status,
			Proto:         "HTTP/1.1",
			ProtoMajor:    1,
			ProtoMinor:    1,
			Header:        http.Header{"Content-Type": []string{"application/json"}},
			Body:          io.NopCloser(strings.NewReader(body)),
			ContentLength: int64(len(body)),
			Request:       req,
		}, nil
	}
	return t.inner.RoundTrip(req) // latency-only fault
}
