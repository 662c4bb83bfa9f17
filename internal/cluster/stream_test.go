package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ranktest"
	"repro/internal/serve"
	"repro/internal/wire"
)

// The router's end of the frame stream: how a ShardTransport keeps its
// streams, and each way one ends. (That the answers are the reference's is
// every router conformance registration's: the default client is this
// transport.)

// streamCall is one shard call through rt, the way postShard makes it.
func streamCall(ctx context.Context, rt http.RoundTripper, base string, header map[string]string) (*http.Response, error) {
	frame, err := wire.AppendBatchRequest(nil, &wire.BatchRequest{M: 5, Users: []uint32{1}})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+shardPath, bytes.NewReader(frame))
	if err != nil {
		return nil, err
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	return (&http.Client{Transport: rt}).Do(req)
}

// drain reads an answer to its end and closes it: its stream goes back.
func drain(t *testing.T, resp *http.Response, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d %s, err %v; want 200", resp.StatusCode, body, err)
	}
	return body
}

// TestShardStreamLifecycle: on a fake shard answering each message with
// its deadline header (or hanging, or answering long), a stream whose
// answer was read whole is reused; one whose call was canceled or timed
// out, whose answer was left unread or whose answer did not decode is
// closed and never reused — the next call dials. The budget field carries
// the header's whole milliseconds, none as none.
func TestShardStreamLifecycle(t *testing.T) {
	var mode atomic.Value // "", "hang" or "long"
	mode.Store("")
	release := make(chan struct{})
	shard := serve.NewStreamServer(func(w http.ResponseWriter, r *http.Request) {
		switch mode.Load() {
		case "hang":
			<-release
		case "long":
			w.Write(make([]byte, 64<<10))
			return
		}
		io.WriteString(w, r.Header.Get(serve.DeadlineHeader))
	}, 1<<20)
	ts := httptest.NewServer(shard)
	t.Cleanup(ts.Close)
	t.Cleanup(shard.Close)
	t.Cleanup(func() { close(release) })
	st := NewShardTransport(4)
	dials := func(want int64, after string) {
		t.Helper()
		if got := st.Dials(); got != want {
			t.Fatalf("after %s: %d streams opened, want %d", after, got, want)
		}
	}

	get := func(header map[string]string) string {
		t.Helper()
		resp, err := streamCall(context.Background(), st, ts.URL, header)
		return string(drain(t, resp, err))
	}
	for _, budget := range []string{"1", "2000", ""} {
		if got := get(map[string]string{serve.DeadlineHeader: budget}); got != budget {
			t.Errorf("a %q ms budget arrived as %q", budget, got)
		}
	}
	dials(1, "three calls read whole")

	mode.Store("hang")
	ends := func(ctx context.Context, want error) {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			_, err := streamCall(ctx, st, ts.URL, nil)
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, want) {
				t.Fatalf("a call whose context ended: %v, want %v", err, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a call whose context ended still waits on its stream")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	ends(ctx, context.DeadlineExceeded)
	cancel()
	ctx, cancel = context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	ends(ctx, context.Canceled)
	dials(2, "a timed-out call and a canceled one")

	mode.Store("long")
	resp, err := streamCall(context.Background(), st, ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(resp.Body, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	mode.Store("")
	get(nil)
	dials(4, "an answer left unread")

	// A shard whose answer prologue does not decode: every call fails and
	// dials afresh.
	var upgrades atomic.Int64
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, brw, err := http.NewResponseController(w).Hijack()
		if err != nil {
			return
		}
		defer conn.Close()
		upgrades.Add(1)
		io.WriteString(conn, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+wire.StreamProtocol+"\r\n\r\n")
		if _, err := brw.Peek(wire.StreamRequestLen); err == nil {
			conn.Write([]byte{0, 0, 0, 0, 7, 0}) // status 7
			io.Copy(io.Discard, brw)
		}
	}))
	t.Cleanup(bad.Close)
	for range 2 {
		if _, err := streamCall(context.Background(), st, bad.URL, nil); err == nil {
			t.Fatal("an answer with status 7 was taken")
		}
	}
	if got := upgrades.Load(); got != 2 {
		t.Errorf("two calls answered with a bad prologue opened %d streams, want 2", got)
	}
}

// TestShardStreamRetriesClosedStream: a shard that restarted has closed the
// stream the router's pool still holds. The next call fails on it before
// any answer byte and is retried once on a fresh stream: the request is
// served in full, and the breaker (threshold 1), the hedge counter and the
// shard error counter never see it.
func TestShardStreamRetriesClosedStream(t *testing.T) {
	fx := ranktest.New(t, ranktest.Variant{F32: true})
	open := func() *serve.Server {
		srv, err := serve.NewShardFromFile(serve.Config{ModelPath: fx.Path, Train: fx.Train, ShardLo: 0, ShardHi: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		return srv
	}
	var cur atomic.Pointer[serve.Server]
	cur.Store(open())
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	rt, router := startRouter(t, Config{Shards: []string{ts.URL}, BreakerThreshold: 1})
	r := &ranktest.Ranker{Rank: ranktest.Recommend.Client(router.URL)}
	fx.Check(t, "before the restart", r, fx.Cur, &ranktest.Case{Users: []int{1}, M: 5})

	old := cur.Swap(open()) // the restart: same file, same version
	_ = old.Close()
	fx.Check(t, "after the restart", r, fx.Cur, &ranktest.Case{Users: []int{2}, M: 5})
	if got := rt.cfg.HTTPClient.Transport.(*ShardTransport).Dials(); got != 2 {
		t.Errorf("%d streams opened, want 2: the first, and the retry's", got)
	}
	if calls, errs, hedges := rt.m.shardCalls.Value(), rt.shardAt(ts.URL).lat.Snapshot().Errors, rt.m.hedges.Value(); calls != 2 || errs != 0 || hedges != 0 {
		t.Errorf("shard calls %d, errors %d, hedges %d; want 2, 0, 0", calls, errs, hedges)
	}
	if opens := rt.shardAt(ts.URL).breaker.snapshot()["opens"].(int64); opens != 0 {
		t.Errorf("the breaker opened %d times over a retried stream", opens)
	}
}
