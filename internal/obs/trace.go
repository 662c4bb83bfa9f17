package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader carries the request's trace ID across processes: minted
// at the edge (router or single-process serve) when absent, echoed in
// the response, and propagated to shards alongside the deadline header
// so one ID ties the router's record to the shard spans behind it.
const TraceHeader = "X-Ocular-Trace-Id"

// maxSpans caps the spans kept per trace so a large batch fan-out
// cannot balloon a record; overflow is counted, not silently dropped.
const maxSpans = 128

// maxNoteLen truncates span notes (which may carry error strings).
const maxNoteLen = 128

// Span is one timed stage inside a request: a rank pipeline phase
// (score, filter_select, rerank), a cache verdict, a shard call, a
// merge. Times are µs offsets so records stay cheap to encode.
type Span struct {
	Name        string `json:"name"`
	StartMicros int64  `json:"start_micros"` // offset from the trace's start
	DurMicros   int64  `json:"dur_micros"`
	Note        string `json:"note,omitempty"`
}

// Trace is one finished request record as served by /debug/traces.
type Trace struct {
	ID           string    `json:"trace_id"`
	Endpoint     string    `json:"endpoint"`
	Start        time.Time `json:"start"`
	DurMicros    int64     `json:"dur_micros"`
	Status       int       `json:"status"`
	Spans        []Span    `json:"spans,omitempty"`
	DroppedSpans int       `json:"dropped_spans,omitempty"`
}

// Active is the in-flight recorder for one request. A nil *Active is
// the disabled recorder: every method is a no-op, so call sites thread
// it unconditionally and pay nothing when tracing is off.
type Active struct {
	tr       *Tracer
	id       string
	endpoint string
	start    time.Time

	mu      sync.Mutex // batch fan-outs record spans concurrently
	spans   []Span
	dropped int
	// spanBuf backs spans for the common few-span request (a cache hit
	// records one, a scatter a handful), so Record allocates only past
	// its capacity.
	spanBuf [8]Span
}

// ID returns the trace ID, "" on the nil recorder.
func (a *Active) ID() string {
	if a == nil {
		return ""
	}
	return a.id
}

// Record appends one span. start is the span's wall start; note is
// optional context (cache verdict, shard URL, error) and is truncated
// to keep records bounded.
func (a *Active) Record(name string, start time.Time, d time.Duration, note string) {
	if a == nil {
		return
	}
	if len(note) > maxNoteLen {
		note = note[:maxNoteLen]
	}
	sp := Span{
		Name:        name,
		StartMicros: start.Sub(a.start).Microseconds(),
		DurMicros:   d.Microseconds(),
		Note:        note,
	}
	a.mu.Lock()
	if len(a.spans) < maxSpans {
		a.spans = append(a.spans, sp)
	} else {
		a.dropped++
	}
	a.mu.Unlock()
}

// Tracer mints trace IDs, hands out per-request recorders, and keeps
// the last ringSize finished traces in a lock-free ring for
// /debug/traces. A nil *Tracer is the disabled tracer: Start returns
// nil, Finish and Traces are no-ops, so wiring is unconditional.
type Tracer struct {
	slow     time.Duration
	log      *slog.Logger
	idPrefix string
	idNext   atomic.Uint64
	next     atomic.Uint64
	ring     []atomic.Pointer[Trace]
}

// NewTracer builds a tracer keeping the last ringSize traces. ringSize
// <= 0 returns nil (tracing disabled). slow > 0 logs a structured line
// for any request slower than the threshold, to logger (nil means
// slog.Default()).
func NewTracer(ringSize int, slow time.Duration, logger *slog.Logger) *Tracer {
	if ringSize <= 0 {
		return nil
	}
	if logger == nil {
		logger = slog.Default()
	}
	var seed [6]byte
	_, _ = rand.Read(seed[:])
	return &Tracer{
		slow:     slow,
		log:      logger,
		idPrefix: hex.EncodeToString(seed[:]) + "-",
		ring:     make([]atomic.Pointer[Trace], ringSize),
	}
}

// Start begins a trace for one request. incoming is the value of the
// trace header; a well-formed one is adopted (so router and shard
// records share the ID), anything else gets a freshly minted ID.
func (t *Tracer) Start(endpoint, incoming string) *Active {
	if t == nil {
		return nil
	}
	id := incoming
	if !validTraceID(id) {
		id = t.mintID()
	}
	a := &Active{tr: t, id: id, endpoint: endpoint, start: time.Now()}
	a.spans = a.spanBuf[:0]
	return a
}

// mintID builds idPrefix + hex(counter) in one allocation.
func (t *Tracer) mintID() string {
	n := t.idNext.Add(1)
	var digits [16]byte
	i := len(digits)
	for {
		i--
		digits[i] = "0123456789abcdef"[n&0xf]
		n >>= 4
		if n == 0 {
			break
		}
	}
	var buf [32]byte // 13-byte prefix + up to 16 hex digits
	b := append(buf[:0], t.idPrefix...)
	b = append(b, digits[i:]...)
	return string(b)
}

// Finish closes the trace, stores it in the ring, and emits the
// slow-request log line if the threshold is crossed. Nil-safe on both
// the tracer and the recorder.
func (t *Tracer) Finish(a *Active, status int) {
	if t == nil || a == nil {
		return
	}
	d := time.Since(a.start)
	a.mu.Lock()
	spans := a.spans
	dropped := a.dropped
	a.spans = nil
	a.mu.Unlock()
	tr := &Trace{
		ID:           a.id,
		Endpoint:     a.endpoint,
		Start:        a.start,
		DurMicros:    d.Microseconds(),
		Status:       status,
		Spans:        spans,
		DroppedSpans: dropped,
	}
	slot := (t.next.Add(1) - 1) % uint64(len(t.ring))
	t.ring[slot].Store(tr)
	if t.slow > 0 && d >= t.slow {
		t.log.Warn("slow request",
			slog.String("trace_id", tr.ID),
			slog.String("endpoint", tr.Endpoint),
			slog.Int64("dur_micros", tr.DurMicros),
			slog.Int("status", tr.Status),
			slog.Int("spans", len(spans)))
	}
}

// Traces returns the ring's records oldest-first. Nil-safe: the
// disabled tracer has no traces.
func (t *Tracer) Traces() []*Trace {
	if t == nil {
		return []*Trace{}
	}
	out := make([]*Trace, 0, len(t.ring))
	next := t.next.Load()
	for i := range t.ring {
		slot := (next + uint64(i)) % uint64(len(t.ring))
		if tr := t.ring[slot].Load(); tr != nil {
			out = append(out, tr)
		}
	}
	return out
}

// validTraceID accepts 1–64 chars of [0-9a-zA-Z_-], the shape this
// package mints and the safe subset to echo back into headers/logs.
func validTraceID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

type activeKey struct{}

// WithActive attaches the request's recorder to the context so the
// rank/scatter hooks deep in the pipeline can reach it.
func WithActive(ctx context.Context, a *Active) context.Context {
	if a == nil {
		return ctx
	}
	return context.WithValue(ctx, activeKey{}, a)
}

// ActiveFrom returns the recorder attached to ctx, nil when absent —
// and nil is the disabled recorder, so callers never branch.
func ActiveFrom(ctx context.Context) *Active {
	a, _ := ctx.Value(activeKey{}).(*Active)
	return a
}
