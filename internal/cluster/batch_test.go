package cluster

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/ranktest"
	"repro/internal/serve"
	"repro/internal/wire"
)

// The batch-shaped scatter: whatever a request holds — one user or many,
// hits, repeats, bad ids — the users that need ranking reach each shard
// in ONE frame, and every slot comes back in request order.

// counters reads the router-side counters the shape is asserted on.
func (tr *tier) counters() (merged, shardCalls, scatters int64) {
	return tr.router.stats.Ranked(), tr.router.m.shardCalls.Value(), tr.router.m.scatters.Value()
}

// TestBatchScattersOncePerShard: a batch mixing a cached user, a repeated
// user, an out-of-range user and cold users costs one call per shard; the
// repeat is merged once; only the bad slot fails; every served slot is the
// reference's, in request order.
func TestBatchScattersOncePerShard(t *testing.T) {
	for _, nParts := range []int{2, 3} {
		t.Run(fmt.Sprintf("shards=%d", nParts), func(t *testing.T) {
			tr := newTier(t, nParts, Config{})
			batch := &ranktest.Case{Name: "batch", Users: []int{5, 42, 9000, 7, 5, 119, 7}, M: 7, Exclude: []int{3, 17}}
			// Warm user 42 into the cache, under the batch's own filter surface.
			warm := *batch
			warm.Users = []int{42}
			tr.fx.Check(t, "warm-up", tr.ranker(ranktest.Recommend), tr.fx.Cur, &warm)
			merged0, calls0, scatters0 := tr.counters()

			ans := tr.fx.Check(t, "batch", tr.ranker(ranktest.BatchJSON), tr.fx.Cur, batch)
			merged, calls, scatters := tr.counters()
			if got := calls - calls0; got != int64(nParts) {
				t.Errorf("the batch cost %d shard calls, want one per shard = %d", got, nParts)
			}
			if got := scatters - scatters0; got != 1 {
				t.Errorf("the batch ran %d scatters, want 1", got)
			}
			if got := merged - merged0; got != 3 {
				t.Errorf("the batch merged %d lists, want 3 (users 5, 7, 119 — each once)", got)
			}
			seen := map[int]bool{}
			for n, l := range ans.Lists {
				// The warmed user is a hit, the second sight of a user shares
				// the first's merge, a first sight is neither.
				u := batch.Users[n]
				if want := u == 42 || seen[u]; l.Err == "" && l.Cached != want {
					t.Errorf("slot %d (user %d): cached=%v, want %v", n, u, l.Cached, want)
				}
				seen[u] = true
			}

			// Everything the batch merged is now cached: the same batch again
			// scatters nothing.
			tr.fx.Check(t, "second batch", tr.ranker(ranktest.BatchJSON), tr.fx.Cur, batch)
			if _, again, _ := tr.counters(); again != calls {
				t.Errorf("a fully cached batch made %d shard calls", again-calls)
			}
		})
	}
}

// TestOverlappingBatchesMergeEachKeyOnce: two batches sharing half their
// users, in flight together (the shards are slowed so neither can finish
// before the other has looked its users up) and walking the shared users
// in opposite orders, so each ends up waiting on flights the other leads.
// Neither may deadlock, every key is merged exactly once between them,
// and every slot is the reference's list. Run under -race in CI.
func TestOverlappingBatchesMergeEachKeyOnce(t *testing.T) {
	ct := chaos.NewTransport(nil, 1)
	tr := newTier(t, 2, Config{HTTPClient: &http.Client{Transport: ct}})
	ct.Set(&chaos.Fault{Path: shardPath, Latency: 40 * time.Millisecond})
	batch := tr.ranker(ranktest.BatchJSON)
	for round := 0; round < 5; round++ {
		base := round * 24
		var a, b []int
		for u := 0; u < 16; u++ {
			a = append(a, base+u)    // base .. base+15, ascending
			b = append(b, base+23-u) // base+23 .. base+8, descending
		}
		merged0, _, _ := tr.counters()
		shared0 := tr.router.stats.Coalesced() + tr.router.stats.Hits()
		var wg sync.WaitGroup
		results := make([]ranktest.Answer, 2)
		for i, users := range [][]int{a, b} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i] = batch.Rank(t, &ranktest.Case{Users: users, M: 5})
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatalf("round %d: overlapping batches deadlocked", round)
		}
		if merged, _, _ := tr.counters(); merged-merged0 != 24 {
			t.Errorf("round %d: %d merges for 24 distinct users across two overlapping batches", round, merged-merged0)
		}
		// The other sight of each shared user waited on the flight its peer
		// led (or, had a batch been held up past the peer's scatter, hit).
		if shared := tr.router.stats.Coalesced() + tr.router.stats.Hits() - shared0; shared != 8 {
			t.Errorf("round %d: %d shared lookups, want one per user both batches named = 8", round, shared)
		}
		for i, users := range [][]int{a, b} {
			tr.fx.Compare(t, fmt.Sprintf("round %d batch %d", round, i), batch, tr.fx.Cur, &ranktest.Case{Users: users, M: 5}, results[i])
		}
	}
}

// TestBatchWithShardDown: one shard gone, a batch of one cached user and
// two cold ones. Either policy still serves the hit in full. Failing
// closed, every miss fails and the batch still answers 200; allowing
// degraded merges, every miss is served from the surviving range, marked,
// and never cached — the same batch again degrades again.
func TestBatchWithShardDown(t *testing.T) {
	tr := newTier(t, 2, Config{})
	deg, degTS := startRouter(t, Config{Shards: ranktest.URLs(tr.shardTS), AllowDegraded: true})
	hi := tr.fx.Train.Cols() / 2 // shard 1 owns [items/2, items)

	// What the cached user's slot must hold, outage or not.
	full := tr.fx.Want(t, tr.fx.Cur, &ranktest.Ranker{}, &ranktest.Case{Users: []int{4}, M: 10})[0]
	sameLists := func(label string, got []serve.ScoredItem) {
		t.Helper()
		if want := serve.ZipScored(full.Items, full.Scores); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: served %v, reference %v", label, got, want)
		}
	}
	for _, url := range []string{tr.routerTS.URL, degTS.URL} {
		if st := ranktest.PostJSON(t, url+"/v1/recommend", serve.RecommendRequest{User: 4, M: 10}, nil); st != 200 {
			t.Fatalf("warm-up on %s: status %d", url, st)
		}
	}
	tr.shardTS[1].Close() // the outage

	req := serve.BatchRequest{Users: []int{4, 5, 6}, M: 10}
	var closed serve.BatchResponse
	if st := ranktest.PostJSON(t, tr.routerTS.URL+"/v1/batch", req, &closed); st != 200 {
		t.Fatalf("fail-closed batch: status %d, want 200 with failed slots", st)
	}
	for n, res := range closed.Results {
		switch {
		case n == 0:
			if res.Error != "" || !res.Cached || res.Degraded {
				t.Errorf("fail-closed: the cached user was not served from the cache: %+v", res)
			}
			sameLists("fail-closed hit", res.Items)
		case res.Error == "" || len(res.Items) != 0 || res.Degraded:
			t.Errorf("fail-closed slot %d: served %+v, want a failed slot", n, res)
		}
	}

	for round := 0; round < 2; round++ {
		var got serve.BatchResponse
		if st := ranktest.PostJSON(t, degTS.URL+"/v1/batch", req, &got); st != 200 {
			t.Fatalf("degraded batch round %d: status %d", round, st)
		}
		for n, res := range got.Results {
			if res.Error != "" {
				t.Fatalf("round %d slot %d: %s", round, n, res.Error)
			}
			if n == 0 {
				if !res.Cached || res.Degraded {
					t.Errorf("round %d: the cached user came back cached=%v degraded=%v", round, res.Cached, res.Degraded)
				}
				sameLists("degraded-router hit", res.Items)
				continue
			}
			if !res.Degraded || res.Cached || len(res.Items) == 0 {
				t.Errorf("round %d slot %d: degraded=%v cached=%v items=%d, want a fresh degraded merge",
					round, n, res.Degraded, res.Cached, len(res.Items))
			}
			for _, it := range res.Items {
				if it.Item >= hi {
					t.Fatalf("round %d slot %d: item %d from the dead shard's range [%d,…)", round, n, it.Item, hi)
				}
			}
		}
	}
	if n := deg.cache.Len(); n != 1 {
		t.Errorf("the degraded router caches %d lists, want only the one warmed before the outage", n)
	}
	if got := deg.m.degraded.Value(); got != 4 {
		t.Errorf("degraded counter %d, want 4 (two misses, two rounds)", got)
	}
}

// TestRouterBatchAllocsPerUser: on a full router cache, a batch of 32
// missing users costs what a batch of one costs, shards and HTTP included:
// each user's partials merge into its pooled slot with the scratch's head
// cursors, the merged list is copied into the buffers of the node its
// eviction recycles, and the shards rank a frame without per-user garbage.
// The request is shaped so that HTTP's own costs do not grow with it
// either: m = 4 keeps a shard's answer to 32 users under the 2 KB net/http
// sends with a Content-Length (a longer one goes chunked), and the
// exclusions keep every frame at least 100 bytes long (net/http formats a
// shorter length without allocating its string). Each size is measured three times
// and its least count kept, so a pool the GC emptied does not show as a
// user's cost.
func TestRouterBatchAllocsPerUser(t *testing.T) {
	skipUnderRace(t)
	const m = 4
	tr := newTier(t, 2, Config{CacheSize: 16})
	r := httptest.NewRequest(http.MethodPost, "/v2/batch", nil)
	users, next := make([]int, 32), 0
	exclude := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	a := new(serve.Answer)
	batch := func(n int) {
		for i := range users[:n] {
			users[i], next = next, (next+1)%tr.fx.Train.Rows()
		}
		req := &serve.BatchRequest{Users: users[:n], M: m, ExcludeItems: exclude}
		if err := tr.router.batch(r, req, m, 0, a); err != nil {
			t.Fatal(err)
		}
		for i := range n {
			if a.Slots[i].Err != nil || a.Cols.Cached[i] || a.Cols.Counts[i] != m {
				t.Fatalf("slot %d (user %d): err %v cached %v, %d items; want a fresh merge of %d",
					i, users[i], a.Slots[i].Err, a.Cols.Cached[i], a.Cols.Counts[i], m)
			}
		}
	}
	for range 20 { // warm: the cache full, every pool and buffer grown
		batch(32)
	}
	allocs := func(n int) float64 {
		least := testing.AllocsPerRun(20, func() { batch(n) })
		for range 2 {
			least = min(least, testing.AllocsPerRun(20, func() { batch(n) }))
		}
		return least
	}
	if one, all := allocs(1), allocs(32); all != one {
		t.Errorf("a batch of 1 missing user costs %v allocations, of 32 %v: %v per user, want 0",
			one, all, (all-one)/31)
	}
}

// skipUnderRace skips an allocation budget when the race detector is on:
// there sync.Pool drops a quarter of what is Put (to shake out reuse bugs),
// so pooled scratch is rebuilt at random and the counts are not
// production's. CI runs the budgets by name without -race.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("allocation counts are not meaningful under -race")
			}
		}
	}
}

// fakeShard answers like a shard owning the whole of a 100,000-item
// catalogue at model version 1, every user's partial being the first
// m+extra items in rank order — a stand-in for lists longer than the
// synthetic catalogue can produce.
func fakeShard(t testing.TB, extra int) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, 200, map[string]any{"model_version": 1, "users": 5000, "items": 100000, "shard_lo": 0, "shard_hi": 100000})
	})
	mux.HandleFunc("POST "+shardPath, func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		var req wire.BatchRequest
		if err := wire.DecodeBatchRequest(body, &req); err != nil {
			t.Errorf("fake shard: %v", err)
		}
		n := int(req.M) + extra
		resp := wire.BatchResponse{Flags: wire.FlagShardPartial, M: req.M, ShardHi: 100000, ModelVersion: req.ExpectVersion}
		for range req.Users {
			resp.Status = append(resp.Status, 0)
			resp.Counts = append(resp.Counts, uint32(n))
			for i := 0; i < n; i++ {
				resp.Items = append(resp.Items, uint32(i))
				resp.Scores = append(resp.Scores, 1/float64(i+1))
			}
		}
		w.Header().Set("Content-Type", serve.FrameContentType)
		w.Write(wire.AppendBatchResponse(nil, &resp))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestShardAnswerReadBound: the router reads a shard's answer under the
// size the request implies, not under a constant. The largest batch the
// defaults admit (1,024 users × m=1,000, about 12 MB of partials per
// shard) is read whole and served; a shard answering with more than was
// asked for is cut off one byte past the bound and treated as failed.
func TestShardAnswerReadBound(t *testing.T) {
	route := func(extra int) string {
		// Under -race the fake shard needs about 2 s to build 12 MB of
		// partials: the default per-attempt Timeout would fail every slot.
		_, ts := startRouter(t, Config{Shards: []string{fakeShard(t, extra).URL}, Timeout: time.Minute})
		return ts.URL
	}
	users := make([]uint32, 1024)
	for i := range users {
		users[i] = uint32(i)
	}
	st, _, body := ranktest.PostFrame(t, route(0)+"/v2/batch", &wire.BatchRequest{M: 1000, Users: users})
	if st != 200 {
		t.Fatalf("largest legal batch: status %d: %.200s", st, body)
	}
	var out wire.BatchResponse
	if err := wire.DecodeBatchResponse(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(body) < 8<<20 {
		t.Fatalf("the batch's answer is only %d bytes; the case must exceed the old 8 MiB read cap", len(body))
	}
	for i := range users {
		if out.Status[i] != 0 || out.Counts[i] != 1000 {
			t.Fatalf("slot %d: status %#x, %d items, want a served list of 1000", i, out.Status[i], out.Counts[i])
		}
	}

	var errResp struct{ Error string }
	if st := ranktest.PostJSON(t, route(1)+"/v1/recommend", serve.RecommendRequest{User: 1, M: 1000}, &errResp); st != http.StatusBadGateway {
		t.Fatalf("shard answering past the bound: status %d, want 502", st)
	}
	if !strings.Contains(errResp.Error, "exceeds") {
		t.Errorf("error %q does not name the overrun", errResp.Error)
	}
}

// TestRouterKeepsShardConnections: the router's default client keeps an idle
// connection to a shard for every concurrent scatter. Sixteen batch loops
// (cacheless, so every batch scatters) open at most sixteen connections to
// each shard, plus the one the first route table was polled over, however
// many batches they send — the default transport's two idle connections
// per host dialled one for nearly every call beyond the second.
func TestRouterKeepsShardConnections(t *testing.T) {
	fx := ranktest.New(t, ranktest.Variant{F32: true})
	const loops, rounds = 16, 25
	var dialled [2]atomic.Int64
	urls := make([]string, len(dialled))
	for p := range urls {
		lo, hi := 0, fx.Train.Cols()/2
		if p == 1 {
			lo, hi = hi, -1
		}
		srv, err := serve.NewShardFromFile(serve.Config{ModelPath: fx.Path, Train: fx.Train, ShardLo: lo, ShardHi: hi})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewUnstartedServer(srv.Handler())
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				dialled[p].Add(1)
			}
		}
		ts.Start()
		t.Cleanup(ts.Close)
		urls[p] = ts.URL
	}
	_, router := startRouter(t, Config{Shards: urls, CacheSize: -1})
	var wg sync.WaitGroup
	for l := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				u := (l*rounds + r) % fx.Train.Rows()
				req := serve.BatchRequest{Users: []int{u, (u + 1) % fx.Train.Rows()}, M: 5}
				if st := ranktest.PostJSON(t, router.URL+"/v1/batch", req, nil); st != http.StatusOK {
					t.Errorf("loop %d round %d: status %d", l, r, st)
					return
				}
			}
		}()
	}
	wg.Wait()
	for p := range dialled {
		if n := dialled[p].Load(); n > loops+1 {
			t.Errorf("shard %d: %d connections opened for %d concurrent loops of %d batches, want at most %d",
				p, n, loops, rounds, loops+1)
		}
	}
}
