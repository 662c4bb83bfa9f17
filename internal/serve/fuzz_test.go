package serve

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/ranktest"
	"repro/internal/wire"
)

// FuzzEdgeRequest throws arbitrary bytes at the JSON edge — through
// Edge.decodeJSON into a RecommendRequest, a BatchRequest (FilterSpec and
// tenant included) and a ShardTopMRequest, and on through the pipelines of
// the conformance fixture's server and of a shard over its upper half —
// under arbitrary trace-id and deadline headers. Whatever arrives: no
// panic; an answer bounded by the server's limits, never by the request;
// 200 or a 4xx, always JSON (a shard may also shed a request whose budget
// is nearly spent, 504); and the trace id echoed is a well-formed one, the
// caller's own when that was.
func FuzzEdgeRequest(f *testing.F) {
	fx := ranktest.New(f, ranktest.Variant{})
	cfg := conformConfig(fx)
	full, err := NewFromFile(cfg)
	if err != nil {
		f.Fatal(err)
	}
	cfg.ShardLo, cfg.ShardHi = fx.Train.Cols()/2, -1
	shard, err := NewShardFromFile(cfg)
	if err != nil {
		f.Fatal(err)
	}
	routes := []struct {
		h    http.Handler
		path string
	}{{full.Handler(), "/v1/recommend"}, {full.Handler(), "/v1/batch"}, {shard.Handler(), "/v1/shard/topm"}}
	f.Add(uint8(0), `{"user":7,"m":5,"exclude_items":[1,2],"filter":{"allow_tags":["low"],"deny_tags":["rare"]}}`, "trace-1", "50")
	f.Add(uint8(1), `{"users":[3,99999,3],"m":100,"filter":{"deny_tags":["no-such-tag"]},"tenant":"nobody"}`, "bad id!", "0")
	f.Add(uint8(1), `{"users":[1]}{"users":[2]}`, "", "-5")
	f.Add(uint8(2), `{"user":1,"expect_version":7}`, strings.Repeat("x", 65), "9223372036854775807")
	f.Add(uint8(2), `{"user":1,"m":-2,"exclude_items":[-1]}`, "a\r\nX-Injected: 1", "9300000000000")
	wellFormed := regexp.MustCompile(`^[0-9A-Za-z_-]{1,64}$`)
	f.Fuzz(func(t *testing.T, route uint8, body, traceID, deadline string) {
		rt := routes[int(route)%len(routes)]
		req := httptest.NewRequest(http.MethodPost, rt.path, strings.NewReader(body))
		req.Header.Set(obs.TraceHeader, traceID)
		req.Header.Set(DeadlineHeader, deadline)
		rec := httptest.NewRecorder()
		rt.h.ServeHTTP(rec, req)

		budget, err := strconv.ParseInt(deadline, 10, 64)
		shed := rec.Code == http.StatusGatewayTimeout && rt.h == shard.Handler() && err == nil && budget < 1000
		if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code > 499) && !shed {
			t.Errorf("%s %q (deadline %q): status %d, want 200 or a 4xx", rt.path, body, deadline, rec.Code)
		}
		// MaxBatch lists of MaxM items, about 40 bytes an item.
		if n := rec.Body.Len(); n > ranktest.MaxBatch*ranktest.MaxM*64 || !json.Valid(rec.Body.Bytes()) {
			t.Errorf("%s %q: a %d-byte answer, or not JSON: %.100q", rt.path, body, n, rec.Body.Bytes())
		}
		echoed := rec.Header().Get(obs.TraceHeader)
		if !wellFormed.MatchString(echoed) || (wellFormed.MatchString(traceID) && echoed != traceID) {
			t.Errorf("trace id %q echoed as %q", traceID, echoed)
		}
	})
}

// FuzzShardStream throws arbitrary bytes at a shard's frame stream after
// the upgrade: message prologues with any length, budget and trace id,
// torn, and bodies of anything. Whatever arrives: no panic; nothing
// allocated for a declared body length before the bytes are read, so at
// most about MaxBodyBytes per message however long a length is declared;
// and every answer well-formed — a shard partial frame on 200, a JSON error
// body otherwise, never a 5xx but a shed budget's 504 — until the bytes run
// out or the shard ends the stream.
func FuzzShardStream(f *testing.F) {
	fx := ranktest.New(f, ranktest.Variant{})
	cfg := conformConfig(fx)
	cfg.ShardLo, cfg.ShardHi = fx.Train.Cols()/2, -1
	shard, err := NewShardFromFile(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = shard.Close() })
	ts := httptest.NewServer(shard.Handler())
	f.Cleanup(ts.Close)
	msg := func(budget uint32, trace string, body []byte) []byte {
		m, err := wire.AppendStreamRequest(nil, budget, trace, body)
		if err != nil {
			f.Fatal(err)
		}
		return m
	}
	good := ranktest.Frame(f, &wire.BatchRequest{M: 5, Users: []uint32{1, 7}, ExpectVersion: 1})
	f.Add(msg(0, "fuzz-1", good))
	f.Add(append(msg(5000, "", good), msg(1, "bad id!", good)...))
	f.Add(msg(0, strings.Repeat("t", 255), good)[:300])
	f.Add(append(msg(0, "", []byte(`{"users":[1]}`)), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0))
	f.Add(msg(4000000000, "x", ranktest.Frame(f, &wire.BatchRequest{M: 1000, Users: []uint32{99999}, Tenant: "t"})))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := ranktest.OpenStream(t, ts.URL+"/v2/shard/topm")
		_ = s.SetDeadline(time.Now().Add(10 * time.Second))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		go func() {
			// Written beside the reads: the shard answers while it reads.
			_, _ = s.Write(data)
			_ = s.Conn.(*net.TCPConn).CloseWrite()
		}()
		for {
			status, body, err := s.Answer()
			if errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) {
				break // the bytes ran out, or the shard ended the stream
			}
			if err != nil {
				t.Fatalf("a malformed or missing answer: %v", err)
			}
			if status == http.StatusOK {
				var resp wire.BatchResponse
				if err := wire.DecodeBatchResponse(body, &resp); err != nil || resp.Flags&wire.FlagShardPartial == 0 ||
					len(body) > wire.MaxResponseLen(ranktest.MaxBatch, ranktest.MaxM) {
					t.Fatalf("a 200 of %d bytes that is no shard partial (flags %#x): %v", len(body), resp.Flags, err)
				}
			} else if status < 400 || status > 499 && status != http.StatusGatewayTimeout || len(body) > 64<<10 || !json.Valid(body) {
				t.Fatalf("status %d with %.100q, want a JSON 4xx or a shed 504", status, body)
			}
		}
		runtime.ReadMemStats(&after)
		perMessage := uint64(ranktest.MaxBody + 64<<10)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(len(data)/wire.StreamRequestLen+1)*perMessage+1<<20; got > bound {
			t.Errorf("%d bytes of input allocated %d bytes, bound %d", len(data), got, bound)
		}
	})
}
