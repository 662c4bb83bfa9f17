package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/ranktest"
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
