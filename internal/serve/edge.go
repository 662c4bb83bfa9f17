package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// The HTTP edge: the plumbing ocular-serve and ocular-router run
// identically, written once and mounted by both. It owns body decoding
// for both codecs (JSON with the size / unknown-field / single-value
// rules, frames with recompute-and-reject), the request limits, the
// response writers, the mapping of a refusal to its status, and the
// per-endpoint instrumentation. Endpoints are a codec-agnostic pipeline
// function between an edge decode and an edge write (front.go is the
// public data path's); error responses are JSON on both codecs, only 200s
// carry frames.

// FrameContentType identifies a binary batch frame in an HTTP body.
const FrameContentType = "application/x-ocular-frame"

// Edge carries the limits and counters of one binary's HTTP surface.
type Edge struct {
	who      string // names the limits' owner in rejections: "server", "router"
	maxBody  int64
	maxM     int
	maxBatch int
	tracer   *obs.Tracer // nil when tracing is disabled
	// endpoints holds one log-scale latency histogram per instrumented
	// endpoint: count, error count, sum and buckets all read from the same
	// drained cell, so the derived mean and the interpolated p50/p95/p99
	// can never mix a fresh count with a stale sum mid-burst.
	endpoints map[string]*obs.Histogram
	inFlight  expvar.Int
	requests  expvar.Int
	errors    expvar.Int
	// writeErrors counts response writes that failed (client gone, broken
	// pipe) — the encoder errors WriteJSON and writeFrame otherwise discard.
	writeErrors expvar.Int
	// deadline504s counts requests answered 504 because the deadline of
	// the work behind them ran out (see fail).
	deadline504s expvar.Int
	// frames tracks the binary columnar transport separately from the
	// per-endpoint histograms, so the JSON/binary split is observable:
	// users is the summed batch fan-out, bytesOut the frame bytes written,
	// and decodeRejects the frames refused (bad magic, version, flags,
	// layout, or fields the endpoint does not take) — the counter to watch
	// when a client upgrade goes wrong.
	frames struct {
		requests      expvar.Int
		users         expvar.Int
		bytesOut      expvar.Int
		decodeRejects expvar.Int
	}
}

// NewEdge builds the edge of one binary. maxBody, maxM and maxBatch must
// already be defaulted and positive; every name later passed to Instrument
// must be listed in endpoints.
func NewEdge(who string, maxBody int64, maxM, maxBatch int, tracer *obs.Tracer, endpoints []string) *Edge {
	e := &Edge{who: who, maxBody: maxBody, maxM: maxM, maxBatch: maxBatch, tracer: tracer,
		endpoints: make(map[string]*obs.Histogram, len(endpoints))}
	for _, name := range endpoints {
		e.endpoints[name] = &obs.Histogram{}
	}
	return e
}

// NewTracer builds the recent-traces ring from the TraceRing/TraceSlow
// config pair both binaries expose: ring 0 means 256, negative disables
// tracing (nil tracer). Slow-request lines go to slog.Default().
func NewTracer(ring int, slow time.Duration) *obs.Tracer {
	if ring == 0 {
		ring = 256
	}
	return obs.NewTracer(ring, slow, slog.Default())
}

// Requests and Errors count instrumented requests and those answered
// with a status >= 400; InFlight is the number currently in a handler;
// Deadline504s the requests answered 504 for a deadline that ran out.
func (e *Edge) Requests() int64     { return e.requests.Value() }
func (e *Edge) Errors() int64       { return e.errors.Value() }
func (e *Edge) InFlight() int64     { return e.inFlight.Value() }
func (e *Edge) Deadline504s() int64 { return e.deadline504s.Value() }

// Snapshot adds the edge's rows to a /metrics tree. obs.Labeled keeps
// the JSON view identical while naming the endpoint label for the
// Prometheus exposition.
func (e *Edge) Snapshot(out map[string]any) {
	eps := make(map[string]map[string]any, len(e.endpoints))
	for name, h := range e.endpoints {
		eps[name] = obs.EndpointSnapshot(h)
	}
	out["endpoints"] = obs.Labeled{Label: "endpoint", Rows: eps}
	out["response_write_errors"] = e.writeErrors.Value()
	out["batch_binary"] = map[string]any{
		"requests":       e.frames.requests.Value(),
		"users":          e.frames.users.Value(),
		"bytes_out":      e.frames.bytesOut.Value(),
		"decode_rejects": e.frames.decodeRejects.Value(),
	}
}

// untraced endpoints never produce trace records: health probes and
// metrics scrapes would otherwise flush every interesting trace out of
// the ring within one scrape interval.
var untraced = map[string]bool{
	"healthz": true, "readyz": true, "metrics": true, "debug_traces": true,
}

// countingWriter wraps the response writer to count failed writes —
// once per request, however many Write calls the encoder makes.
type countingWriter struct {
	http.ResponseWriter
	errs   *expvar.Int
	failed bool
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.ResponseWriter.Write(p)
	if err != nil && !cw.failed {
		cw.failed = true
		cw.errs.Add(1)
	}
	return n, err
}

// Instrument wraps an endpoint handler with request and error counting,
// latency observation, in-flight tracking, failed-write counting and —
// for the data endpoints — request tracing: the trace header is adopted
// or minted, echoed in the response, and the recorder rides the request
// context so pipeline hooks can attach spans (and the router propagates
// the ID to every shard call).
func (e *Edge) Instrument(name string, h func(w http.ResponseWriter, r *http.Request) int) http.HandlerFunc {
	em := e.endpoints[name]
	traced := !untraced[name]
	return func(w http.ResponseWriter, r *http.Request) {
		e.requests.Add(1)
		e.inFlight.Add(1)
		var act *obs.Active
		if traced {
			if act = e.tracer.Start(name, r.Header.Get(obs.TraceHeader)); act != nil {
				r = r.WithContext(obs.WithActive(r.Context(), act))
				w.Header().Set(obs.TraceHeader, act.ID())
			}
		}
		cw := &countingWriter{ResponseWriter: w, errs: &e.writeErrors}
		start := time.Now()
		// net/http recovers handler panics per-connection; the deferred
		// observation keeps the in-flight gauge, histogram and trace ring
		// honest even then (a panic is recorded as a 500).
		status := http.StatusInternalServerError
		defer func() {
			em.Observe(time.Since(start), status >= 400)
			e.tracer.Finish(act, status)
			if status >= 400 {
				e.errors.Add(1)
			}
			e.inFlight.Add(-1)
		}()
		status = h(cw, r)
	}
}

// HandleDebugTraces serves the recent-traces ring, oldest first. With
// tracing disabled the list is empty rather than the route missing, so
// operators can tell "off" from "no traffic".
func (e *Edge) HandleDebugTraces(w http.ResponseWriter, r *http.Request) int {
	return WriteJSON(w, http.StatusOK, map[string]any{"traces": e.tracer.Traces()})
}

// bodyError names a failed body read: a tripped size cap keeps its own
// message, whatever the decoder was doing when it hit.
func bodyError(err error) error {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit)
	}
	return fmt.Errorf("bad request body: %w", err)
}

// decodeJSON reads the request body as JSON into v, enforcing the body
// size cap, rejecting unknown fields (catching misspelled parameters
// early), and requiring the body to be exactly one JSON value: a
// concatenated second request would otherwise be silently ignored,
// masking client framing bugs.
func (e *Edge) decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, e.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return bodyError(err)
	}
	// Only io.EOF here proves the first value consumed the whole body
	// (trailing whitespace aside); anything else is trailing data — except
	// a tripped size cap.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return bodyError(err)
		}
		return errors.New("request body must be a single JSON value (trailing data rejected)")
	}
	return nil
}

// clampM applies the default and ceiling to a requested list length.
func (e *Edge) clampM(m int) (int, error) {
	switch {
	case m == 0:
		return min(10, e.maxM), nil
	case m < 0:
		return 0, fmt.Errorf("m must be positive, got %d", m)
	case m > e.maxM:
		return 0, fmt.Errorf("m=%d exceeds the %s cap of %d", m, e.who, e.maxM)
	}
	return m, nil
}

// check holds an n-user request — a batch, a recommend's one user, a
// shard's partial request — to the binary's limits and returns its clamped
// m: users non-empty and at most MaxBatch, m within MaxM.
func (e *Edge) check(req *BatchRequest) (m int, err error) {
	switch {
	case len(req.Users) == 0:
		return 0, BadRequest(errors.New("users must be non-empty"))
	case len(req.Users) > e.maxBatch:
		return 0, BadRequest(fmt.Errorf("batch of %d users exceeds the %s cap of %d", len(req.Users), e.who, e.maxBatch))
	}
	if m, err = e.clampM(req.M); err != nil {
		return 0, BadRequest(err)
	}
	return m, nil
}

// Error is a refusal with its HTTP status: what a pipeline returns to turn
// a request (or, in a slot, one user of it) away. Code is a stable
// machine-readable code ("unknown_tenant", "bad_frame") where clients
// branch on one, empty otherwise.
type Error struct {
	Status int
	Code   string
	Msg    string
}

func (e *Error) Error() string { return e.Msg }

// BadRequest refuses with 400 and err's message.
func BadRequest(err error) *Error {
	return &Error{Status: http.StatusBadRequest, Msg: err.Error()}
}

// fail answers err: an *Error anywhere in its chain with its own status
// and code; deadline exhaustion — the work behind the request ran out of
// time, distinct from it failing — 504 "deadline_exceeded", counted; any
// other failure of the work behind the edge (a shard outage, a version
// conflict) 502.
func (e *Edge) fail(w http.ResponseWriter, err error) int {
	var refusal *Error
	switch {
	case errors.As(err, &refusal):
		return WriteErrorCode(w, refusal.Status, refusal.Code, refusal.Msg)
	case errors.Is(err, context.DeadlineExceeded):
		e.deadline504s.Add(1)
		return WriteErrorCode(w, http.StatusGatewayTimeout, "deadline_exceeded", err.Error())
	}
	return WriteError(w, http.StatusBadGateway, err.Error())
}

// WriteJSON encodes v and answers it with status, reporting the status back
// to the instrumentation wrapper. v is encoded before anything is written,
// so a value encoding/json refuses (a NaN or infinite float) is answered
// 500 {"error": …}, never a 200 with an empty body. Write failures are
// counted by the instrumentation's response writer rather than inspected
// here.
func WriteJSON(w http.ResponseWriter, status int, v any) int {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return WriteError(w, http.StatusInternalServerError, err.Error())
	}
	return writeJSONBody(w, status, buf.Bytes())
}

// writeJSONBody answers an encoded JSON body with status in one sized
// write: its length is known, so it goes out with a Content-Length, never
// chunked.
func writeJSONBody(w http.ResponseWriter, status int, body []byte) int {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
	return status
}

// WriteError encodes {"error": msg} with the given status.
func WriteError(w http.ResponseWriter, status int, msg string) int {
	return WriteErrorCode(w, status, "", msg)
}

// WriteErrorCode encodes {"code": code, "error": msg} — the
// machine-readable error shape (e.g. "unknown_tenant", "bad_frame"), so
// clients branch on a stable code, not a message.
func WriteErrorCode(w http.ResponseWriter, status int, code, msg string) int {
	return WriteJSON(w, status, ErrorBody{Code: code, Error: msg})
}

// readFrame reads and decodes one request frame into a under the body
// cap, reporting rejects to the decode counter. On !ok the rejection has
// already been written to w, with its status returned.
func (e *Edge) readFrame(w http.ResponseWriter, r *http.Request, a *Answer) (status int, ok bool) {
	body, err := wire.AppendAll(a.body[:0], http.MaxBytesReader(w, r.Body, e.maxBody))
	a.body = body
	if err != nil {
		return WriteError(w, http.StatusBadRequest, bodyError(err).Error()), false
	}
	if err := wire.DecodeBatchRequest(body, &a.frame); err != nil {
		return e.badFrame(w, err.Error()), false
	}
	return 0, true
}

// badFrame refuses a frame — one failing wire validation, or a valid one
// carrying fields the endpoint does not take — with the stable error code
// "bad_frame", and counts it.
func (e *Edge) badFrame(w http.ResponseWriter, msg string) int {
	e.frames.decodeRejects.Add(1)
	return WriteErrorCode(w, http.StatusBadRequest, "bad_frame", msg)
}

// writeFrame encodes resp into a's output buffer, feeds the transport
// counters and writes the frame in one Write call.
func (e *Edge) writeFrame(w http.ResponseWriter, a *Answer, resp *wire.BatchResponse) int {
	a.out = wire.AppendBatchResponse(a.out[:0], resp)
	e.frames.requests.Add(1)
	e.frames.users.Add(int64(len(resp.Counts)))
	e.frames.bytesOut.Add(int64(len(a.out)))
	w.Header().Set("Content-Type", FrameContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(a.out)
	return http.StatusOK
}
