package cluster

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/wire"
)

// ShardTransport is the router's default shard transport. Every POST
// /v2/shard/topm rides a frame stream (wire.StreamProtocol) from a
// per-shard pool of them, written and read on the calling goroutine: no
// read or write loop, no header parsing, the deadline budget and trace id
// of the request's headers carried in the message prologue. Everything
// else — refresh, probes, the upgrades themselves — goes to a cloned
// net/http transport.
//
// A stream carries one call at a time. A call whose context ends closes
// its stream, and so does an answer not read to its end (over the caller's
// read bound, or a prologue that does not decode); only a stream whose
// answer was read whole goes back to the pool. A pooled stream the shard
// has closed meanwhile (a restart, Server.Close) fails before any answer
// byte: the call is retried once on a fresh stream, which is safe because
// a shard call is read-only — the caller sees neither a hedge nor a
// failure. A Response is valid until its Body is closed.
type ShardTransport struct {
	inner *http.Transport
	size  int
	dials atomic.Int64
	mu    sync.Mutex
	idle  map[string]chan *stream // by shard host, each buffered to size: the idle bound
}

// NewShardTransport builds a shard transport keeping up to maxIdle idle
// streams (and idle HTTP connections) per shard.
func NewShardTransport(maxIdle int) *ShardTransport {
	inner := http.DefaultTransport.(*http.Transport).Clone()
	inner.MaxIdleConns, inner.MaxIdleConnsPerHost, inner.DisableCompression = 0, maxIdle, true
	return &ShardTransport{inner: inner, size: maxIdle, idle: map[string]chan *stream{}}
}

// Dials counts the streams opened.
func (t *ShardTransport) Dials() int64 { return t.dials.Load() }

// CloseIdleConnections closes the idle HTTP connections, the next upgrade
// dials afresh; pooled streams stay open until their shard ends them.
func (t *ShardTransport) CloseIdleConnections() { t.inner.CloseIdleConnections() }

// pool is a shard's pool of idle streams.
func (t *ShardTransport) pool(host string) chan *stream {
	t.mu.Lock()
	defer t.mu.Unlock()
	pool, ok := t.idle[host]
	if !ok {
		pool = make(chan *stream, t.size)
		t.idle[host] = pool
	}
	return pool
}

// stream is one upgraded connection and the scratch of the call it carries.
type stream struct {
	pool       chan *stream
	rwc        io.ReadWriteCloser
	br         *bufio.Reader
	frame, msg []byte
	kill       func()      // closes rwc: the call's context.AfterFunc
	stop       func() bool // disarms kill; false once it has run
	body       streamBody
	resp       http.Response
}

func (t *ShardTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost || req.URL.Path != shardPath || req.Body == nil {
		return t.inner.RoundTrip(req)
	}
	defer req.Body.Close()
	var st *stream
	select {
	case st = <-t.pool(req.URL.Host):
	default:
	}
	reused := st != nil
	if !reused {
		var err error
		if st, err = t.dial(req); err != nil {
			return nil, err
		}
	}
	if err := st.encode(req); err != nil {
		st.idle()
		return nil, err
	}
	resp, answered, err := st.call(req)
	if err != nil && reused && !answered && req.Context().Err() == nil {
		// The shard closed this pooled stream meanwhile: retry once on a
		// fresh one, which takes over the closed stream's buffers.
		fresh, err := t.dial(req)
		if err != nil {
			return nil, err
		}
		fresh.frame, fresh.msg = st.frame, st.msg
		resp, _, err = fresh.call(req)
		return resp, err
	}
	return resp, err
}

// dial opens a stream: GET shardPath upgraded over the inner transport.
func (t *ShardTransport) dial(req *http.Request) (*stream, error) {
	u := req.URL
	up := (&http.Request{Method: http.MethodGet, URL: &url.URL{Scheme: u.Scheme, Host: u.Host, Path: shardPath}, Host: u.Host,
		Header: http.Header{"Connection": {"Upgrade"}, "Upgrade": {wire.StreamProtocol}}}).WithContext(req.Context())
	resp, err := t.inner.RoundTrip(up)
	if err != nil {
		return nil, err
	}
	rwc, ok := resp.Body.(io.ReadWriteCloser)
	if resp.StatusCode != http.StatusSwitchingProtocols || !ok {
		_ = resp.Body.Close()
		return nil, fmt.Errorf("shard %s does not speak %s: the upgrade was answered %s", u.Host, wire.StreamProtocol, resp.Status)
	}
	t.dials.Add(1)
	return &stream{pool: t.pool(u.Host), rwc: rwc, br: bufio.NewReaderSize(rwc, 16<<10), kill: func() { _ = rwc.Close() }}, nil
}

// encode reads the request's frame and writes the message carrying it.
func (st *stream) encode(req *http.Request) (err error) {
	if st.frame, err = wire.AppendAll(st.frame[:0], req.Body); err != nil {
		return err
	}
	// No budget, or one past the u32 field (far above the hour a shard
	// honours), travels as 0: none.
	budget, _ := strconv.ParseUint(req.Header.Get(serve.DeadlineHeader), 10, 32)
	st.msg, err = wire.AppendStreamRequest(st.msg[:0], uint32(budget), req.Header.Get(obs.TraceHeader), st.frame)
	return err
}

// call sends the message and reads the answer's prologue; answered reports
// whether any of the answer arrived.
func (st *stream) call(req *http.Request) (resp *http.Response, answered bool, err error) {
	ctx := req.Context()
	st.stop = context.AfterFunc(ctx, st.kill)
	if _, err = st.rwc.Write(st.msg); err == nil {
		var p []byte
		if p, err = st.br.Peek(wire.StreamAnswerLen); err == nil {
			answered = true
			n, status := wire.ParseStreamAnswer(p)
			_, _ = st.br.Discard(wire.StreamAnswerLen)
			if n <= wire.MaxFrameLen && status >= 200 && status <= 599 {
				st.body = streamBody{LimitedReader: io.LimitedReader{R: st.br, N: int64(n)}, st: st}
				st.resp = http.Response{StatusCode: int(status), Body: &st.body, ContentLength: int64(n), Request: req}
				return &st.resp, true, nil
			}
			err = fmt.Errorf("shard stream answered status %d with %d bytes", status, n)
		}
	}
	st.stop()
	_ = st.rwc.Close()
	if ctx.Err() != nil {
		err = ctx.Err()
	}
	return nil, answered, err
}

// idle returns st to its shard's pool, or closes it when the pool is full.
func (st *stream) idle() {
	select {
	case st.pool <- st:
	default:
		_ = st.rwc.Close()
	}
}

// streamBody is an answer's body: the next N bytes of its stream. Closing
// it idles the stream when the answer was read to its end and the call's
// context never fired, and closes it otherwise. (A body cut short reads as
// ended early; the frame or JSON decoder behind it refuses what is left.)
type streamBody struct {
	io.LimitedReader
	st *stream
}

func (b *streamBody) Close() error {
	if st := b.st; st != nil {
		b.st = nil
		if st.stop() && b.N == 0 {
			st.idle()
		} else {
			_ = st.rwc.Close()
		}
	}
	return nil
}
