package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/ranktest"
	"repro/internal/serve"
)

// FuzzRouterEdgeRequest is FuzzEdgeRequest at the router's front: arbitrary
// bytes into its /v1/recommend and /v1/batch, on through the scatter to two
// shards of the conformance fixture and the merge, under arbitrary trace-id
// and deadline headers (the router keeps its own deadline; a client's is
// not a shard's budget). Whatever arrives: no panic; an answer bounded by
// the router's limits, never by the request; 200 or a 4xx — the shards are
// healthy, so nothing is theirs to fail — always JSON; and the trace id
// echoed is a well-formed one, the caller's own when that was.
func FuzzRouterEdgeRequest(f *testing.F) {
	tr := newTierOver(f, ranktest.New(f, ranktest.Variant{F32: true}), 2,
		Config{MaxM: ranktest.MaxM, MaxBatch: ranktest.MaxBatch, MaxBodyBytes: ranktest.MaxBody})
	paths := []string{"/v1/recommend", "/v1/batch"}
	f.Add(uint8(0), `{"user":7,"m":5,"exclude_items":[1,2],"filter":{"allow_tags":["low"],"deny_tags":["rare"]}}`, "trace-1", "50")
	f.Add(uint8(1), `{"users":[3,99999,3],"m":100,"filter":{"deny_tags":["no-such-tag"]},"tenant":"nobody"}`, "bad id!", "0")
	f.Add(uint8(1), `{"users":[1]}{"users":[2]}`, "", "-5")
	f.Add(uint8(1), `{"users":[5,1,5],"m":3,"exclude_items":[99999]}`, strings.Repeat("x", 65), "9223372036854775807")
	f.Add(uint8(0), `{"user":1,"m":-2,"exclude_items":[-1]}`, "a\r\nX-Injected: 1", "9300000000000")
	wellFormed := regexp.MustCompile(`^[0-9A-Za-z_-]{1,64}$`)
	f.Fuzz(func(t *testing.T, route uint8, body, traceID, deadline string) {
		path := paths[int(route)%len(paths)]
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		req.Header.Set(obs.TraceHeader, traceID)
		req.Header.Set(serve.DeadlineHeader, deadline)
		rec := httptest.NewRecorder()
		tr.router.Handler().ServeHTTP(rec, req)

		if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code > 499) {
			t.Errorf("%s %q (deadline %q): status %d, want 200 or a 4xx: %s", path, body, deadline, rec.Code, rec.Body)
		}
		// MaxBatch lists of MaxM items, about 40 bytes an item.
		if n := rec.Body.Len(); n > ranktest.MaxBatch*ranktest.MaxM*64 || !json.Valid(rec.Body.Bytes()) {
			t.Errorf("%s %q: a %d-byte answer, or not JSON: %.100q", path, body, n, rec.Body.Bytes())
		}
		echoed := rec.Header().Get(obs.TraceHeader)
		if !wellFormed.MatchString(echoed) || (wellFormed.MatchString(traceID) && echoed != traceID) {
			t.Errorf("trace id %q echoed as %q", traceID, echoed)
		}
	})
}
