package cluster

import (
	"testing"
	"time"
)

// awaitTrial polls the breaker until its cooldown lets a half-open trial
// through: the rendezvous is the breaker's own answer, not a guess at how
// long the cooldown takes on this machine.
func awaitTrial(t *testing.T, b *breaker) {
	t.Helper()
	waitFor(t, 5*time.Second, "the cooldown to admit a half-open trial", func() bool {
		proceed, trial := b.tryAcquire()
		if proceed && !trial {
			t.Fatal("an open breaker admitted an ordinary call")
		}
		return proceed
	})
}

func TestBreakerStateMachine(t *testing.T) {
	b := newBreaker(3, 50*time.Millisecond)

	// Closed passes traffic; failures below the threshold keep it closed.
	for i := 0; i < 2; i++ {
		proceed, trial := b.tryAcquire()
		if !proceed || trial {
			t.Fatalf("closed breaker: tryAcquire = (%v,%v)", proceed, trial)
		}
		b.onResult(false, trial)
	}
	if got := b.stateName(); got != "closed" {
		t.Fatalf("after 2/3 failures: state %q", got)
	}

	// A success resets the consecutive count.
	if proceed, trial := b.tryAcquire(); proceed {
		b.onResult(true, trial)
	}
	for i := 0; i < 2; i++ {
		_, trial := b.tryAcquire()
		b.onResult(false, trial)
	}
	if got := b.stateName(); got != "closed" {
		t.Fatalf("success did not reset the count: state %q", got)
	}

	// The third consecutive failure trips it open; open fails fast.
	_, trial := b.tryAcquire()
	b.onResult(false, trial)
	if got := b.stateName(); got != "open" {
		t.Fatalf("after threshold failures: state %q", got)
	}
	if proceed, _ := b.tryAcquire(); proceed {
		t.Fatal("open breaker admitted a call before cooldown")
	}

	// After the cooldown exactly one trial goes through; concurrent
	// calls keep failing fast while it is out.
	awaitTrial(t, b)
	if proceed, _ := b.tryAcquire(); proceed {
		t.Fatal("second call admitted while the trial is in flight")
	}

	// A failed trial re-opens; a later successful trial closes.
	b.onResult(false, true)
	if got := b.stateName(); got != "open" {
		t.Fatalf("failed trial: state %q", got)
	}
	awaitTrial(t, b)
	b.onResult(true, true)
	if got := b.stateName(); got != "closed" {
		t.Fatalf("successful trial: state %q", got)
	}
	snap := b.snapshot()
	if snap["opens"].(int64) != 2 || snap["closes"].(int64) != 1 {
		t.Errorf("transition counters: %v", snap)
	}
}

func TestBreakerStaleResultsCannotCorrupt(t *testing.T) {
	b := newBreaker(1, time.Hour)
	_, trial := b.tryAcquire()
	b.onResult(false, trial) // trips open

	// A straggler success from before the trip must not close it.
	b.onResult(true, false)
	if got := b.stateName(); got != "open" {
		t.Fatalf("non-trial success closed an open breaker: state %q", got)
	}
	// A straggler failure must not reset openedAt / double-count opens.
	b.onResult(false, false)
	if got := b.snapshot()["opens"].(int64); got != 1 {
		t.Fatalf("straggler failure re-tripped: opens = %d", got)
	}
}

func TestBreakerAbandonReleasesTrial(t *testing.T) {
	b := newBreaker(1, 0) // zero cooldown: open goes half-open immediately
	_, trial := b.tryAcquire()
	b.onResult(false, trial)

	proceed, trial := b.tryAcquire()
	if !proceed || !trial {
		t.Fatalf("expected a trial, got (%v,%v)", proceed, trial)
	}
	// The trial ends without a verdict (caller cancelled): the slot must
	// free up for a fresh trial, with the breaker still not closed.
	b.abandon(true)
	if got := b.stateName(); got != "half-open" {
		t.Fatalf("abandon changed state to %q", got)
	}
	if proceed, trial := b.tryAcquire(); !proceed || !trial {
		t.Fatalf("fresh trial not admitted after abandon: (%v,%v)", proceed, trial)
	}
}

func TestRetryBudget(t *testing.T) {
	rb := newRetryBudget(0.5, 2, time.Hour) // window never rolls mid-test

	// The floor allows retries before any attempts at all.
	if !rb.allowRetry() || !rb.allowRetry() {
		t.Fatal("floor retries denied")
	}
	if rb.allowRetry() {
		t.Fatal("third retry allowed with 0 attempts (floor is 2)")
	}
	if got := rb.deniedTotal(); got != 1 {
		t.Fatalf("deniedTotal = %d, want 1", got)
	}

	// Attempts grow the allowance: 10 attempts × 0.5 + floor 2 = 7.
	for i := 0; i < 10; i++ {
		rb.noteAttempt()
	}
	granted := 0
	for rb.allowRetry() {
		granted++
		if granted > 20 {
			t.Fatal("budget never exhausted")
		}
	}
	if granted != 5 { // 7 allowed total, 2 already spent
		t.Fatalf("granted %d more retries, want 5", granted)
	}
}

func TestRetryBudgetWindowRolls(t *testing.T) {
	rb := newRetryBudget(0.5, 1, 10*time.Millisecond)
	if !rb.allowRetry() {
		t.Fatal("first retry denied")
	}
	if rb.allowRetry() {
		t.Fatal("budget not exhausted")
	}
	waitFor(t, 5*time.Second, "the budget to refill once the window rolls", rb.allowRetry)
}
