package serve

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// The HTTP edge: the plumbing ocular-serve and ocular-router run
// identically, written once and mounted by both. It owns body decoding
// for both codecs (JSON with the size / unknown-field / single-value
// rules, frames with recompute-and-reject), the request limits and their
// defaults (EdgeConfig), the admission gate, the drain flag and the
// operational routes, the response writers, the mapping of a refusal to
// its status, and the per-endpoint instrumentation. Endpoints are a
// codec-agnostic pipeline function between an edge decode and an edge
// write (front.go is the public data path's); error responses are JSON on
// both codecs, only 200s carry frames.

// FrameContentType identifies a binary batch frame in an HTTP body.
const FrameContentType = "application/x-ocular-frame"

// EdgeConfig is the edge both binaries are configured with: request
// limits, the cache size, admission control and tracing. cliutil
// declares the flags behind it once, for ocular-serve and ocular-router
// alike; NewEdge refuses a negative limit and fills in the defaults.
type EdgeConfig struct {
	// MaxM caps the requested list length m. 0 means 1000.
	MaxM int
	// MaxBatch caps the users of one batch request. 0 means 1024.
	MaxBatch int
	// MaxBodyBytes caps request body size. 0 means 1 MiB.
	MaxBodyBytes int64
	// CacheSize is the approximate total number of cached top-M lists. 0
	// means 4096; negative disables caching.
	CacheSize int
	// MaxInFlight, when positive, bounds concurrently admitted data-plane
	// requests. Excess requests wait in a short bounded queue and are shed
	// with 429 + Retry-After when it overflows or the wait elapses. 0
	// disables admission control.
	MaxInFlight int
	// MaxQueue bounds how many requests may wait for an admission slot.
	// 0 means 2×MaxInFlight; negative means no queue (instant shed when
	// saturated). Ignored when MaxInFlight is 0.
	MaxQueue int
	// QueueWait bounds how long a queued request waits for a slot before
	// being shed. 0 means 100ms. Ignored when MaxInFlight is 0.
	QueueWait time.Duration
	// TraceRing is the capacity of the recent-traces ring behind
	// GET /debug/traces. 0 means 256; negative disables request tracing
	// entirely (the endpoint then serves an empty list).
	TraceRing int
	// TraceSlow, when positive, emits a structured slow-request log line
	// (log/slog) for any traced request at or above the threshold,
	// carrying the trace ID that ties it to the shard spans behind it.
	TraceSlow time.Duration
}

// Edge carries the limits, gate, drain flag and counters of one binary's
// HTTP surface.
type Edge struct {
	who    string     // names the limits' owner in rejections: "server", "router"
	cfg    EdgeConfig // resolved: every default filled in
	tracer *obs.Tracer
	// gate is the admission controller over the data endpoints; nil (admit
	// everything) when MaxInFlight is 0.
	gate *Gate
	// draining flips once at the start of graceful shutdown: /readyz
	// turns 503 so probers and balancers stop sending new traffic, while
	// the data path keeps answering until the HTTP server is shut down.
	draining atomic.Bool
	start    time.Time
	// endpoints holds one log-scale latency histogram per instrumented
	// endpoint: count, error count, sum and buckets all read from the same
	// drained cell, so the derived mean and the interpolated p50/p95/p99
	// can never mix a fresh count with a stale sum mid-burst.
	endpoints map[string]*obs.Histogram
	inFlight  expvar.Int
	// writeErrors counts response writes that failed (client gone, broken
	// pipe) — the encoder errors WriteJSON and writeFrame otherwise discard.
	writeErrors expvar.Int
	// deadline504s counts requests answered 504 because the deadline of
	// the work behind them ran out (see fail).
	deadline504s expvar.Int
	// frames tracks the binary columnar transport separately from the
	// per-endpoint histograms, so the JSON/binary split is observable:
	// users is the summed batch size, bytesOut the frame bytes written,
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

// NewEdge builds the edge of one binary — tracer, gate and all — and
// returns it with cfg resolved. A negative limit is refused: it would
// silently brick an endpoint (every request rejected, or an empty list
// answered 200) rather than fail at startup; a negative CacheSize,
// MaxQueue or TraceRing is an "off", not a limit. Every name later passed
// to Instrument must be listed in endpoints.
func NewEdge(who string, cfg EdgeConfig, endpoints []string) (*Edge, EdgeConfig, error) {
	switch {
	case cfg.MaxM < 0:
		return nil, cfg, fmt.Errorf("%s: MaxM must be >= 0, got %d", who, cfg.MaxM)
	case cfg.MaxBatch < 0:
		return nil, cfg, fmt.Errorf("%s: MaxBatch must be >= 0, got %d", who, cfg.MaxBatch)
	case cfg.MaxBodyBytes < 0:
		return nil, cfg, fmt.Errorf("%s: MaxBodyBytes must be >= 0, got %d", who, cfg.MaxBodyBytes)
	case cfg.MaxInFlight < 0:
		return nil, cfg, fmt.Errorf("%s: MaxInFlight must be >= 0, got %d", who, cfg.MaxInFlight)
	case cfg.QueueWait < 0:
		return nil, cfg, fmt.Errorf("%s: QueueWait must be >= 0, got %v", who, cfg.QueueWait)
	}
	cfg.MaxM = cmp.Or(cfg.MaxM, 1000)
	cfg.MaxBatch = cmp.Or(cfg.MaxBatch, 1024)
	cfg.MaxBodyBytes = cmp.Or(cfg.MaxBodyBytes, 1<<20)
	cfg.CacheSize = cmp.Or(cfg.CacheSize, 4096)
	cfg.TraceRing = cmp.Or(cfg.TraceRing, 256)
	e := &Edge{who: who, cfg: cfg, start: time.Now(),
		tracer:    obs.NewTracer(cfg.TraceRing, cfg.TraceSlow, nil),
		gate:      NewGate(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueWait),
		endpoints: make(map[string]*obs.Histogram, len(endpoints))}
	for _, name := range endpoints {
		e.endpoints[name] = &obs.Histogram{}
	}
	return e, cfg, nil
}

// Gate is the admission controller over the data endpoints, nil when
// disabled.
func (e *Edge) Gate() *Gate { return e.gate }

// BeginDrain marks the binary draining: /readyz answers 503 so balancers
// and the router's prober take it out of rotation, while every data
// endpoint keeps serving until the HTTP server is shut down.
func (e *Edge) BeginDrain() { e.draining.Store(true) }

// Deadline504s is the number of requests answered 504 for a deadline
// that ran out.
func (e *Edge) Deadline504s() int64 { return e.deadline504s.Value() }

// MountOps registers the operational routes: /healthz, /readyz and
// /metrics through the binary's handlers, /debug/traces through the
// edge's. A draining binary answers /readyz 503 here, before readyz is
// asked. None of them is gated: an overloaded binary stays observable.
func (e *Edge) MountOps(mux *http.ServeMux, healthz, readyz, metrics func(http.ResponseWriter, *http.Request) int) {
	mux.HandleFunc("GET /healthz", e.Instrument("healthz", healthz))
	mux.HandleFunc("GET /readyz", e.Instrument("readyz", func(w http.ResponseWriter, r *http.Request) int {
		if e.draining.Load() {
			return WriteJSON(w, http.StatusServiceUnavailable, Ready{Reason: "draining"})
		}
		return readyz(w, r)
	}))
	mux.HandleFunc("GET /metrics", e.Instrument("metrics", metrics))
	mux.HandleFunc("GET /debug/traces", e.Instrument("debug_traces", e.handleDebugTraces))
}

// Snapshot adds the edge's rows to a /metrics tree — uptime, the
// in-flight gauge, the admission counters when a gate is on, and the
// per-endpoint and frame counters — and returns what its endpoints
// observed, summed: requests finished, and those answered with a status
// >= 400. obs.Labeled keeps the JSON view identical while naming the
// endpoint label for the Prometheus exposition.
func (e *Edge) Snapshot(out map[string]any) (requests, failed uint64) {
	out["uptime_seconds"] = time.Since(e.start).Seconds()
	out["in_flight"] = e.inFlight.Value()
	if adm := e.gate.Snapshot(); adm != nil {
		out["admission"] = adm
	}
	eps := make(map[string]map[string]any, len(e.endpoints))
	for name, h := range e.endpoints {
		row := obs.EndpointSnapshot(h)
		eps[name] = row
		requests += row["requests"].(uint64)
		failed += row["errors"].(uint64)
	}
	out["endpoints"] = obs.Labeled{Label: "endpoint", Rows: eps}
	out["response_write_errors"] = e.writeErrors.Value()
	out["batch_binary"] = map[string]any{
		"requests":       e.frames.requests.Value(),
		"users":          e.frames.users.Value(),
		"bytes_out":      e.frames.bytesOut.Value(),
		"decode_rejects": e.frames.decodeRejects.Value(),
	}
	return requests, failed
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
			e.inFlight.Add(-1)
		}()
		status = h(cw, r)
	}
}

// handleDebugTraces serves the recent-traces ring, oldest first. With
// tracing disabled the list is empty rather than the route missing, so
// operators can tell "off" from "no traffic".
func (e *Edge) handleDebugTraces(w http.ResponseWriter, r *http.Request) int {
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
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, e.cfg.MaxBodyBytes))
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
		return min(10, e.cfg.MaxM), nil
	case m < 0:
		return 0, fmt.Errorf("m must be positive, got %d", m)
	case m > e.cfg.MaxM:
		return 0, fmt.Errorf("m=%d exceeds the %s cap of %d", m, e.who, e.cfg.MaxM)
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
	case len(req.Users) > e.cfg.MaxBatch:
		return 0, BadRequest(fmt.Errorf("batch of %d users exceeds the %s cap of %d", len(req.Users), e.who, e.cfg.MaxBatch))
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
	body, err := wire.AppendAll(a.body[:0], http.MaxBytesReader(w, r.Body, e.cfg.MaxBodyBytes))
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
// counters and writes the frame in one sized Write call, never chunked.
func (e *Edge) writeFrame(w http.ResponseWriter, a *Answer, resp *wire.BatchResponse) int {
	a.out = wire.AppendBatchResponse(a.out[:0], resp)
	e.frames.requests.Add(1)
	e.frames.users.Add(int64(len(resp.Counts)))
	e.frames.bytesOut.Add(int64(len(a.out)))
	h := w.Header()
	h.Set("Content-Type", FrameContentType)
	h.Set("Content-Length", strconv.Itoa(len(a.out)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(a.out)
	return http.StatusOK
}
