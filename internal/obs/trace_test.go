package obs

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestTracerMintAndAdopt(t *testing.T) {
	tr := NewTracer(8, 0, nil)
	a := tr.Start("recommend", "")
	if a.ID() == "" {
		t.Fatal("minted ID is empty")
	}
	b := tr.Start("recommend", "upstream-id-42")
	if b.ID() != "upstream-id-42" {
		t.Fatalf("valid incoming ID not adopted: %q", b.ID())
	}
	c := tr.Start("recommend", "bad id\nwith junk")
	if c.ID() == "bad id\nwith junk" || c.ID() == "" {
		t.Fatalf("malformed incoming ID must be replaced, got %q", c.ID())
	}
	d := tr.Start("recommend", strings.Repeat("x", 65))
	if len(d.ID()) > 64 {
		t.Fatalf("over-long incoming ID adopted: %q", d.ID())
	}
	if a.ID() == c.ID() {
		t.Fatal("minted IDs must be unique")
	}
}

func TestTracerRingOldestFirst(t *testing.T) {
	tr := NewTracer(4, 0, nil)
	for i := 0; i < 6; i++ {
		a := tr.Start("ep", "")
		tr.Finish(a, 200)
	}
	got := tr.Traces()
	if len(got) != 4 {
		t.Fatalf("ring holds %d traces, want 4", len(got))
	}
	// The ring keeps the last 4 of 6; oldest-first iteration means each
	// record is newer than the previous one.
	for i := 1; i < len(got); i++ {
		if got[i].Start.Before(got[i-1].Start) {
			t.Fatalf("traces not oldest-first at %d", i)
		}
	}
}

func TestActiveSpans(t *testing.T) {
	tr := NewTracer(4, 0, nil)
	a := tr.Start("ep", "")
	start := a.Start()
	a.Record("score", start, 3*time.Millisecond, "")
	a.Record("shard_call", start.Add(time.Millisecond), 2*time.Millisecond, strings.Repeat("n", 500))
	tr.Finish(a, 207)

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces", len(traces))
	}
	rec := traces[0]
	if rec.Status != 207 || rec.Endpoint != "ep" || rec.ID != a.ID() {
		t.Fatalf("trace header wrong: %+v", rec)
	}
	if len(rec.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(rec.Spans))
	}
	if rec.Spans[0].Name != "score" || rec.Spans[0].DurMicros != 3000 {
		t.Fatalf("span 0 = %+v", rec.Spans[0])
	}
	if rec.Spans[1].StartMicros < 900 || rec.Spans[1].StartMicros > 1100 {
		t.Fatalf("span 1 offset = %d, want ~1000", rec.Spans[1].StartMicros)
	}
	if len(rec.Spans[1].Note) != maxNoteLen {
		t.Fatalf("note not truncated: %d bytes", len(rec.Spans[1].Note))
	}
}

func TestActiveSpanCap(t *testing.T) {
	tr := NewTracer(2, 0, nil)
	a := tr.Start("ep", "")
	for i := 0; i < maxSpans+10; i++ {
		a.Record("s", a.Start(), time.Microsecond, "")
	}
	tr.Finish(a, 200)
	rec := tr.Traces()[0]
	if len(rec.Spans) != maxSpans {
		t.Fatalf("kept %d spans, want %d", len(rec.Spans), maxSpans)
	}
	if rec.DroppedSpans != 10 {
		t.Fatalf("dropped = %d, want 10", rec.DroppedSpans)
	}
}

func TestNilTracerAndActive(t *testing.T) {
	if tr := NewTracer(0, 0, nil); tr != nil {
		t.Fatal("ringSize 0 must return the nil (disabled) tracer")
	}
	var tr *Tracer
	a := tr.Start("ep", "")
	if a != nil {
		t.Fatal("nil tracer must hand out nil recorders")
	}
	a.Record("s", time.Now(), time.Second, "") // must not panic
	if a.ID() != "" {
		t.Fatal("nil recorder ID must be empty")
	}
	tr.Finish(a, 200)
	if got := tr.Traces(); len(got) != 0 {
		t.Fatalf("nil tracer has %d traces", len(got))
	}
	ctx := WithActive(context.Background(), nil)
	if ActiveFrom(ctx) != nil {
		t.Fatal("nil recorder attached to context")
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := NewTracer(2, 0, nil)
	a := tr.Start("ep", "")
	ctx := WithActive(context.Background(), a)
	if got := ActiveFrom(ctx); got != a {
		t.Fatal("recorder lost in context round trip")
	}
	if ActiveFrom(context.Background()) != nil {
		t.Fatal("empty context must yield nil recorder")
	}
}

func TestSlowRequestLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	tr := NewTracer(2, time.Nanosecond, logger)
	a := tr.Start("recommend", "")
	// Wall time is the thing under test: the request must outlast the
	// 1 ns slow threshold on the tracer's own clock, and a sleep makes it
	// do so by six orders of magnitude whatever the clock's resolution.
	time.Sleep(time.Millisecond)
	tr.Finish(a, 200)
	out := buf.String()
	if !strings.Contains(out, "slow request") || !strings.Contains(out, a.ID()) {
		t.Fatalf("slow-request log missing: %q", out)
	}

	buf.Reset()
	fast := NewTracer(2, time.Hour, logger)
	fa := fast.Start("recommend", "")
	fast.Finish(fa, 200)
	if buf.Len() != 0 {
		t.Fatalf("fast request logged: %q", buf.String())
	}
}
