package serve

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// StreamServer serves frame streams (wire.StreamProtocol): a GET carrying
// "Upgrade: ocular-frame/1" is hijacked (101) and its connection then
// carries lockstep messages, each served by one handler through a reused
// *http.Request and a buffering http.ResponseWriter. On a shard, the one
// way a frame arrives, that handler is instrumented and gated: deadline,
// trace-id adoption, admission, pin-or-409, limits, decode rejects and
// metrics are those of an HTTP route. A message is
// read and answered on the connection's own goroutine; nothing is spawned
// per message.
//
// Hijacked connections outlive http.Server.Shutdown, so the owner ends
// them with Close once the HTTP server has drained.
type StreamServer struct {
	h       http.HandlerFunc
	maxBody int64

	mu    sync.Mutex
	conns map[net.Conn]struct{} // nil once closed
}

// NewStreamServer serves every stream message with h. What h leaves unread
// of a message body of at most maxBody bytes is discarded; a longer body
// left unread ends the stream.
func NewStreamServer(h http.HandlerFunc, maxBody int64) *StreamServer {
	return &StreamServer{h: h, maxBody: maxBody, conns: map[net.Conn]struct{}{}}
}

// Close ends every open stream and refuses new ones. Safe on nil.
func (ss *StreamServer) Close() {
	if ss == nil {
		return
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for c := range ss.conns {
		_ = c.Close()
	}
	ss.conns = nil
}

// track registers (or, add false, forgets) an open stream; it reports false
// once the server is closed.
func (ss *StreamServer) track(c net.Conn, add bool) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.conns == nil {
		return false
	}
	if add {
		ss.conns[c] = struct{}{}
	} else {
		delete(ss.conns, c)
	}
	return true
}

func (ss *StreamServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.EqualFold(r.Header.Get("Upgrade"), wire.StreamProtocol) {
		WriteError(w, http.StatusUpgradeRequired, "GET "+r.URL.Path+" upgrades to "+wire.StreamProtocol)
		return
	}
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	defer conn.Close()
	if !ss.track(conn, true) {
		return
	}
	defer ss.track(conn, false)
	// The HTTP server set its read and write deadlines before the hijack; a
	// stream outlives any one exchange. (Go 1.24's net/http clears them at
	// the hijack too, but the Hijacker contract leaves that to the caller.)
	// A conn that refuses is closed: the write below fails.
	_ = conn.SetDeadline(time.Time{})
	if _, err := io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+wire.StreamProtocol+"\r\n\r\n"); err != nil {
		return
	}
	ss.serve(conn, brw.Reader, r)
}

// serve answers messages until the peer closes, a message cannot be read,
// or an unread body is too long to skip.
func (ss *StreamServer) serve(conn net.Conn, br *bufio.Reader, up *http.Request) {
	body := &io.LimitedReader{R: br}
	req := (&http.Request{Method: http.MethodPost, URL: &url.URL{Path: up.URL.Path}, RequestURI: up.URL.Path,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Header: http.Header{}, Body: io.NopCloser(body),
		Host: up.Host, RemoteAddr: up.RemoteAddr}).WithContext(up.Context())
	w := &streamWriter{header: http.Header{}}
	for {
		p, err := br.Peek(wire.StreamRequestLen)
		if err != nil {
			return
		}
		n, ms, traceLen := wire.ParseStreamRequest(p)
		_, _ = br.Discard(wire.StreamRequestLen)
		id, err := br.Peek(traceLen)
		if err != nil {
			return
		}
		clear(req.Header)
		if traceLen > 0 {
			req.Header[obs.TraceHeader] = []string{string(id)}
		}
		_, _ = br.Discard(traceLen)
		if ms > 0 {
			req.Header[DeadlineHeader] = []string{strconv.FormatUint(uint64(ms), 10)}
		}
		body.N, req.ContentLength = int64(n), int64(n)
		clear(w.header)
		w.status, w.msg = 0, append(w.msg[:0], make([]byte, wire.StreamAnswerLen)...)
		ss.h(w, req)
		// What the handler left unread of a body within the cap (a shed) is
		// skipped; a body past the cap ends the stream after its answer.
		drained := body.N == 0 || int64(n) <= ss.maxBody && discard(body)
		wire.PutStreamAnswer(w.msg, uint16(max(w.status, http.StatusOK))) // nothing written: a 200
		if _, err := conn.Write(w.msg); err != nil || !drained {
			return
		}
	}
}

func discard(r io.Reader) bool {
	_, err := io.Copy(io.Discard, r)
	return err == nil
}

// streamWriter buffers one answer behind the space of its prologue.
type streamWriter struct {
	header http.Header
	status int
	msg    []byte
}

func (w *streamWriter) Header() http.Header { return w.header }

func (w *streamWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *streamWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.msg = append(w.msg, p...)
	return len(p), nil
}
