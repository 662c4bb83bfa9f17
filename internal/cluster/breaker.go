package cluster

import (
	"sync"
	"time"
)

// Breaker states. A breaker guards one shard: closed passes traffic and
// counts consecutive failures; open fails fast without burning a timeout
// on a shard already known sick; half-open lets exactly one trial
// request through after the cooldown to decide between closing and
// re-opening.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

var breakerStateNames = [...]string{"closed", "open", "half-open"}

// breaker is one shard's circuit breaker. Only failures that indicate a
// sick shard should be reported to it — deterministic 4xx rejections and
// rollout-window version conflicts are the caller's to exclude (see
// countsAgainstBreaker). All methods are safe for concurrent use, and a
// nil breaker — breakers disabled — admits every call and records nothing.
type breaker struct {
	threshold int // consecutive failures that trip closed → open
	cooldown  time.Duration

	mu            sync.Mutex
	state         int
	consecutive   int       // consecutive counted failures while closed
	openedAt      time.Time // when the breaker last tripped
	trialInFlight bool      // a half-open trial is out; hold other traffic

	// Transition and fast-fail counters, read by /metrics and /healthz.
	opens, closes, fastFails int64
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// tryAcquire asks whether a call to the shard may proceed. trial marks
// the call as the half-open probe: its outcome alone decides whether the
// breaker closes, and while it is in flight every other call fails fast.
func (b *breaker) tryAcquire() (proceed, trial bool) {
	if b == nil {
		return true, false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, false
	case breakerOpen:
		if time.Since(b.openedAt) < b.cooldown {
			b.fastFails++
			return false, false
		}
		b.state = breakerHalfOpen
		b.trialInFlight = true
		return true, true
	default: // half-open
		if b.trialInFlight {
			b.fastFails++
			return false, false
		}
		b.trialInFlight = true
		return true, true
	}
}

// onResult reports the outcome of a call admitted by tryAcquire. Stale
// results cannot corrupt the state machine: a non-trial success never
// closes an open or half-open breaker (it may be a straggler launched
// before the trip), and a non-trial failure never re-trips one (the trip
// already happened; only the trial's outcome decides what comes next).
func (b *breaker) onResult(ok, trial bool) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if trial {
		b.trialInFlight = false
	}
	if ok {
		switch {
		case trial:
			b.state = breakerClosed
			b.consecutive = 0
			b.closes++
		case b.state == breakerClosed:
			b.consecutive = 0
		}
		return
	}
	switch b.state {
	case breakerHalfOpen:
		if trial {
			b.state = breakerOpen
			b.openedAt = time.Now()
			b.opens++
		}
	case breakerClosed:
		b.consecutive++
		if b.consecutive >= b.threshold {
			b.state = breakerOpen
			b.openedAt = time.Now()
			b.opens++
			b.consecutive = 0
		}
	}
}

// abandon reports that an admitted call ended without a verdict on the
// shard (the caller went away, or the failure was one that never counts)
// — a trial is released so the next call can run a fresh one, and no
// state changes.
func (b *breaker) abandon(trial bool) {
	if b == nil || !trial {
		return
	}
	b.mu.Lock()
	b.trialInFlight = false
	b.mu.Unlock()
}

// snapshot renders the breaker for /metrics and /healthz.
func (b *breaker) snapshot() map[string]any {
	b.mu.Lock()
	defer b.mu.Unlock()
	return map[string]any{
		"state":      breakerStateNames[b.state],
		"opens":      b.opens,
		"closes":     b.closes,
		"fast_fails": b.fastFails,
	}
}

// retryBudget bounds hedged retries to a fraction of primary attempts
// per window, with a small floor so low-traffic routers can still hedge.
// Without it, a cluster where every shard is slow would see the router
// double its own load exactly when capacity is scarcest — the retry
// storm that turns a brownout into an outage.
type retryBudget struct {
	ratio  float64 // retries allowed per primary attempt
	min    int     // retries always allowed per window
	window time.Duration

	mu          sync.Mutex
	windowStart time.Time
	attempts    int
	retries     int
	denied      int64 // cumulative, across windows
}

func newRetryBudget(ratio float64, min int, window time.Duration) *retryBudget {
	return &retryBudget{ratio: ratio, min: min, window: window}
}

// roll resets the window counters when the window has elapsed. Callers
// hold mu.
func (rb *retryBudget) roll() {
	if now := time.Now(); now.Sub(rb.windowStart) >= rb.window {
		rb.windowStart = now
		rb.attempts = 0
		rb.retries = 0
	}
}

// noteAttempt records one primary (non-hedge) shard attempt, growing the
// window's retry allowance.
func (rb *retryBudget) noteAttempt() {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	rb.roll()
	rb.attempts++
}

// allowRetry reports whether one more hedge fits the window's budget,
// consuming it when it does.
func (rb *retryBudget) allowRetry() bool {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	rb.roll()
	if allowed := rb.min + int(rb.ratio*float64(rb.attempts)); rb.retries >= allowed {
		rb.denied++
		return false
	}
	rb.retries++
	return true
}

// deniedTotal returns how many hedges the budget has refused.
func (rb *retryBudget) deniedTotal() int64 {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.denied
}
