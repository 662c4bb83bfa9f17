package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/ranktest"
	"repro/internal/wire"
)

// The shard's end of the frame stream: a message is served by the shard's
// frame handler (what the conformance registration
// TestShardStreamMatchesPost holds to the reference), and a stream lives
// until its peer, or Server.Close, ends it.

// streamShard serves the fixture's whole catalogue as one shard under the
// suite's limits and cfgFn's changes, on a listener setup configures.
func streamShard(t *testing.T, cfgFn func(*Config), setup func(*http.Server)) (*Server, string) {
	t.Helper()
	fx := ranktest.New(t, ranktest.Variant{})
	cfg := conformConfig(fx)
	cfg.ShardLo, cfg.ShardHi = 0, -1
	if cfgFn != nil {
		cfgFn(&cfg)
	}
	srv, err := NewShardFromFile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	ts := httptest.NewUnstartedServer(srv.Handler())
	if setup != nil {
		setup(ts.Config)
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return srv, ts.URL + "/v2/shard/topm"
}

// served requires a 200 answering a partial for n users.
func served(t *testing.T, s *ranktest.Stream, n int) {
	t.Helper()
	status, body, err := s.Answer()
	if err != nil || status != http.StatusOK {
		t.Fatalf("answer: status %d %s, err %v; want 200", status, body, err)
	}
	if resp := ranktest.DecodeFrame(t, body); resp.Flags&wire.FlagShardPartial == 0 || len(resp.Counts) != n {
		t.Fatalf("answer flags %#x for %d users, want a partial for %d", resp.Flags, len(resp.Counts), n)
	}
}

// TestShardFramesOnlyOnStreams: a shard takes frames on an upgraded stream
// alone — a POSTed frame is 405 and a GET without the upgrade 426, naming
// the protocol — while its JSON route still answers a POST.
func TestShardFramesOnlyOnStreams(t *testing.T) {
	_, url := streamShard(t, nil, nil)
	base := strings.TrimSuffix(url, "/v2/shard/topm")
	req := &wire.BatchRequest{M: 5, Users: []uint32{1, 2}}
	t.Run("POST frame", func(t *testing.T) {
		if st, _, body := ranktest.PostFrame(t, url, req); st != http.StatusMethodNotAllowed {
			t.Errorf("status %d %s, want 405", st, body)
		}
	})
	t.Run("GET without upgrade", func(t *testing.T) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusUpgradeRequired || !bytes.Contains(body, []byte(wire.StreamProtocol)) {
			t.Errorf("status %d %s, want 426 naming %s", resp.StatusCode, body, wire.StreamProtocol)
		}
	})
	t.Run("upgraded stream", func(t *testing.T) {
		s := ranktest.OpenStream(t, url)
		s.Send(t, 0, "", ranktest.Frame(t, req))
		served(t, s, 2)
	})
	t.Run("JSON route", func(t *testing.T) {
		var out ShardTopMResponse
		if st := ranktest.PostJSON(t, base+"/v1/shard/topm", ShardTopMRequest{User: 1, M: 5}, &out); st != http.StatusOK || out.User != 1 || len(out.Items) != 5 {
			t.Errorf("status %d, user %d, %d items; want 200 with 5 items for user 1", st, out.User, len(out.Items))
		}
	})
}

// TestShardStreamDeadlineAndTrace: a message's budget and trace id are the
// POST's headers. The id is adopted into the trace ring; a budget spent
// before the frame arrived sheds the message 504, counted, and the stream
// serves on, with a budget or without one.
func TestShardStreamDeadlineAndTrace(t *testing.T) {
	srv, url := streamShard(t, nil, nil)
	s := ranktest.OpenStream(t, url)
	frame := ranktest.Frame(t, &wire.BatchRequest{M: 5, Users: []uint32{1, 2}, ExpectVersion: 1})
	msg, err := wire.AppendStreamRequest(nil, 1, "stream-shed", frame)
	if err != nil {
		t.Fatal(err)
	}
	// A 1 ms budget whose frame ends 20 ms after its prologue.
	cut := len(msg) - 8
	if _, err := s.Write(msg[:cut]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if _, err := s.Write(msg[cut:]); err != nil {
		t.Fatal(err)
	}
	if status, body, err := s.Answer(); err != nil || status != http.StatusGatewayTimeout || !bytes.Contains(body, []byte("deadline budget expired")) {
		t.Fatalf("late frame: status %d %s, err %v; want 504 deadline budget expired", status, body, err)
	}
	for _, budget := range []uint32{0, 5000} {
		s.Send(t, budget, "stream-served", frame)
		served(t, s, 2)
	}
	if got := srv.deadlineAborts.Value(); got != 1 {
		t.Errorf("deadline_aborts = %d, want 1", got)
	}
	status := map[string][]int{}
	for _, tr := range getTraces(t, strings.TrimSuffix(url, "/v2/shard/topm")).Traces {
		if tr.Endpoint == "shard_topm_binary" {
			status[tr.ID] = append(status[tr.ID], tr.Status)
		}
	}
	if got := status["stream-shed"]; len(got) != 1 || got[0] != 504 {
		t.Errorf("trace stream-shed recorded %v, want one 504", got)
	}
	if got := status["stream-served"]; len(got) != 2 || got[0] != 200 || got[1] != 200 {
		t.Errorf("trace stream-served recorded %v, want two 200s", got)
	}
}

// TestShardStreamClearsDeadlines: the read and write deadlines the HTTP
// server set before the hijack do not end a stream idle past them.
func TestShardStreamClearsDeadlines(t *testing.T) {
	_, url := streamShard(t, nil, func(hs *http.Server) {
		hs.ReadTimeout, hs.WriteTimeout = 50*time.Millisecond, 50*time.Millisecond
	})
	s := ranktest.OpenStream(t, url)
	frame := ranktest.Frame(t, &wire.BatchRequest{M: 5, Users: []uint32{3}})
	for range 2 {
		time.Sleep(150 * time.Millisecond)
		s.Send(t, 0, "", frame)
		served(t, s, 1)
	}
}

// TestShardStreamUnreadBody: what the handler leaves of a message body is
// skipped and the stream serves on — a message shed at admission is
// answered 429 unread — unless it is longer than MaxBodyBytes: a body
// declared far past the cap is answered 400 and ends the stream.
func TestShardStreamUnreadBody(t *testing.T) {
	srv, url := streamShard(t, func(cfg *Config) { cfg.MaxInFlight, cfg.MaxQueue = 1, -1 }, nil)
	s := ranktest.OpenStream(t, url)
	frame := ranktest.Frame(t, &wire.BatchRequest{M: 5, Users: []uint32{3}})
	release, ok := srv.Gate().Acquire(context.Background())
	if !ok {
		t.Fatal("the gate refused the only request")
	}
	s.Send(t, 0, "", frame)
	if status, _, err := s.Answer(); err != nil || status != http.StatusTooManyRequests {
		t.Fatalf("saturated shard: status %d, err %v; want 429", status, err)
	}
	release()
	s.Send(t, 0, "", frame)
	served(t, s, 1)

	msg, err := wire.AppendStreamRequest(nil, 0, "", make([]byte, 3000))
	if err != nil {
		t.Fatal(err)
	}
	msg[0], msg[1], msg[2], msg[3] = 0, 0, 0, 0x40 // a declared body of 1 GiB
	if _, err := s.Write(msg); err != nil {
		t.Fatal(err)
	}
	if status, body, err := s.Answer(); err != nil || status != http.StatusBadRequest || !bytes.Contains(body, []byte("exceeds")) {
		t.Fatalf("oversized body: status %d %s, err %v; want 400 exceeds", status, body, err)
	}
	_ = s.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := s.Answer(); !errors.Is(err, io.EOF) {
		t.Fatalf("after an oversized body the stream answered again (%v), want it ended", err)
	}
}

// TestShardStreamServerCloseEndsStreams: Server.Close ends an open stream —
// hijacked, it outlives the HTTP server — and refuses new ones.
func TestShardStreamServerCloseEndsStreams(t *testing.T) {
	srv, url := streamShard(t, nil, nil)
	s := ranktest.OpenStream(t, url)
	s.Send(t, 0, "", ranktest.Frame(t, &wire.BatchRequest{M: 5, Users: []uint32{3}}))
	served(t, s, 1)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	_ = s.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := s.Answer(); !errors.Is(err, io.EOF) {
		t.Fatalf("an open stream after Close: %v, want it ended", err)
	}
	conn, err := net.Dial("tcp", strings.TrimPrefix(strings.TrimSuffix(url, "/v2/shard/topm"), "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	up, _ := http.NewRequest(http.MethodGet, url, nil)
	up.Header.Set("Connection", "Upgrade")
	up.Header.Set("Upgrade", wire.StreamProtocol)
	if err := up.Write(conn); err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(conn); err != nil || len(got) != 0 {
		t.Fatalf("a new stream after Close: answered %q, err %v; want the connection closed unanswered", got, err)
	}
}

// TestFrameAnswersAreSized: a frame answer goes out with its
// Content-Length in one write, never chunked — here a 32-user, m = 20
// answer of nearly 8 KB on /v2/batch. (A shard's frames travel only on
// streams, whose answers carry their length in the prologue.)
func TestFrameAnswersAreSized(t *testing.T) {
	fx := ranktest.New(t, ranktest.Variant{})
	_, full := start(t, NewFromFile, Config{ModelPath: fx.Path, Train: fx.Train})
	req := &wire.BatchRequest{M: 20}
	for u := range uint32(32) {
		req.Users = append(req.Users, u)
	}
	resp, err := http.Post(full.URL+"/v2/batch", FrameContentType, bytes.NewReader(ranktest.Frame(t, req)))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(body) < 4<<10 {
		t.Fatalf("status %d, %d bytes, err %v; want a 200 over 4 KB", resp.StatusCode, len(body), err)
	}
	if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(body)) {
		t.Errorf("transfer encoding %v, Content-Length %d for %d bytes; want a sized answer",
			resp.TransferEncoding, resp.ContentLength, len(body))
	}
}

// TestStampShardCallRoundsUp: a budget is stamped in whole milliseconds
// rounded up, so any time left is at least 1 — a budget under a
// millisecond used to travel as no deadline at all.
func TestStampShardCallRoundsUp(t *testing.T) {
	for _, row := range []struct {
		budget time.Duration
		want   string
	}{{300 * time.Microsecond, "1"}, {time.Millisecond, "1"}, {1700 * time.Microsecond, "2"}} {
		start := time.Now()
		ctx, cancel := context.WithDeadline(context.Background(), start.Add(row.budget))
		h := http.Header{}
		StampShardCall(ctx, h)
		cancel()
		if time.Since(start) > 250*time.Microsecond {
			t.Logf("%v: stamped too late to judge", row.budget)
			continue
		}
		if got := h.Get(DeadlineHeader); got != row.want {
			t.Errorf("a %v budget stamped %q, want %q", row.budget, got, row.want)
		}
	}
}
