package serve

import (
	"context"
	"expvar"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Gate is the admission controller of the serving tier: a bounded
// concurrency semaphore with a short, bounded wait queue in front of it.
// A request either gets a slot (possibly after queueing up to the wait
// bound), or is shed immediately with 429 + Retry-After. Shedding at
// admission — before decode, before the score path — is what keeps the
// pooled score buffers and in-flight work bounded under overload: excess
// load costs one queue-counter increment, not a scoring pass.
//
// A nil *Gate admits everything (admission control disabled); all
// methods are nil-safe.
type Gate struct {
	slots    chan struct{} // buffered; one token per in-flight request
	maxQueue int64
	wait     time.Duration

	queued   atomic.Int64 // requests currently waiting for a slot
	inFlight atomic.Int64
	peak     atomic.Int64 // high-water mark of inFlight

	admitted    expvar.Int
	shed        expvar.Int
	queuedTotal expvar.Int // admitted requests that had to wait
}

// NewGate builds a gate admitting at most maxInFlight concurrent
// requests with up to maxQueue more waiting at most wait for a slot.
// maxInFlight <= 0 returns nil (disabled). maxQueue 0 defaults to
// 2×maxInFlight; negative means no queue (instant shed when saturated).
// wait <= 0 defaults to 100ms.
func NewGate(maxInFlight, maxQueue int, wait time.Duration) *Gate {
	if maxInFlight <= 0 {
		return nil
	}
	if maxQueue == 0 {
		maxQueue = 2 * maxInFlight
	} else if maxQueue < 0 {
		maxQueue = 0
	}
	if wait <= 0 {
		wait = 100 * time.Millisecond
	}
	return &Gate{
		slots:    make(chan struct{}, maxInFlight),
		maxQueue: int64(maxQueue),
		wait:     wait,
	}
}

// Acquire tries to admit one request. On success it returns ok=true and
// a release function the caller must invoke exactly when the request's
// work is done (release is idempotent). ok=false means the request was
// shed: the queue was full, the queue wait elapsed, or ctx was done
// first. An admitted request is never shed mid-flight — once Acquire
// returns true, the slot is the caller's until release.
func (g *Gate) Acquire(ctx context.Context) (release func(), ok bool) {
	if g == nil {
		return func() {}, true
	}
	select {
	case g.slots <- struct{}{}:
		return g.admit(), true
	default:
	}
	// Saturated: try the queue. Add-then-check keeps the bound exact
	// under concurrent arrivals — the loser of a race over the last
	// queue place backs out instead of overshooting.
	if g.queued.Add(1) > g.maxQueue {
		g.queued.Add(-1)
		g.shed.Add(1)
		return nil, false
	}
	g.queuedTotal.Add(1)
	timer := time.NewTimer(g.wait)
	defer timer.Stop()
	select {
	case g.slots <- struct{}{}:
		g.queued.Add(-1)
		return g.admit(), true
	case <-timer.C:
	case <-ctx.Done():
	}
	g.queued.Add(-1)
	g.shed.Add(1)
	return nil, false
}

// admit records the admission and returns the idempotent release.
func (g *Gate) admit() func() {
	g.admitted.Add(1)
	n := g.inFlight.Add(1)
	for {
		p := g.peak.Load()
		if n <= p || g.peak.CompareAndSwap(p, n) {
			break
		}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			g.inFlight.Add(-1)
			<-g.slots
		})
	}
}

// Wrap gates an instrumentable handler: shed requests get 429 with a
// Retry-After hint and never reach h. A nil gate returns h unchanged.
func (g *Gate) Wrap(h func(http.ResponseWriter, *http.Request) int) func(http.ResponseWriter, *http.Request) int {
	if g == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) int {
		release, ok := g.Acquire(r.Context())
		if !ok {
			w.Header().Set("Retry-After", "1")
			return WriteError(w, http.StatusTooManyRequests, "overloaded: admission queue full")
		}
		defer release()
		return h(w, r)
	}
}

// InFlight returns the number of currently admitted requests.
func (g *Gate) InFlight() int64 {
	if g == nil {
		return 0
	}
	return g.inFlight.Load()
}

// Peak returns the high-water mark of concurrently admitted requests —
// the overload test's proof that admission actually bounds work.
func (g *Gate) Peak() int64 {
	if g == nil {
		return 0
	}
	return g.peak.Load()
}

// Snapshot renders the gate's counters for /metrics; nil for a disabled
// gate.
func (g *Gate) Snapshot() map[string]any {
	if g == nil {
		return nil
	}
	return map[string]any{
		"max_in_flight":  int64(cap(g.slots)),
		"max_queue":      g.maxQueue,
		"in_flight":      g.inFlight.Load(),
		"peak_in_flight": g.peak.Load(),
		"queued":         g.queued.Load(),
		"admitted":       g.admitted.Value(),
		"queued_total":   g.queuedTotal.Value(),
		"shed":           g.shed.Value(),
	}
}
