package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/ranktest"
	"repro/internal/serve"
)

// The chaos suite proves the self-healing behaviors end to end against
// deterministic fault injection: breakers collapse a hung shard's cost
// to fail-fast, the prober repairs routes without operator action,
// admission control bounds in-flight work under overload, and a quorum
// rollout under fire still never mixes model versions.

func hostOf(t testing.TB, rawURL string) string {
	t.Helper()
	u, err := url.Parse(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

// shardAt returns the router's record of the shard at url.
func (rt *Router) shardAt(url string) *shard {
	for _, sh := range rt.shards {
		if sh.url == url {
			return sh
		}
	}
	return nil
}

// waitFor polls cond until it holds or the deadline passes — the
// rendezvous every wait in this package goes through instead of sleeping
// for a guessed duration.
func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(10 * time.Millisecond) // the poll interval, not a wait for anything
	}
}

// TestBreakerFailFastUnderHungShard is the tentpole chaos e2e: one shard
// hangs; the breaker trips within the configured threshold; from then on
// requests fail fast (degraded) instead of burning a timeout each; after
// the fault clears, the half-open trial closes the breaker and responses
// return to bit-identical full merges — zero operator action.
func TestBreakerFailFastUnderHungShard(t *testing.T) {
	ct := chaos.NewTransport(NewShardTransport(256), 1)
	tr := newTier(t, 2, Config{
		Timeout:          400 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  800 * time.Millisecond,
		AllowDegraded:    true,
		EdgeConfig:       serve.EdgeConfig{CacheSize: -1}, // every request must actually scatter
		HTTPClient:       &http.Client{Transport: ct},
	})
	hung := tr.shardTS[0].URL
	ct.Set(&chaos.Fault{Host: hostOf(t, hung), Hang: true})

	req := serve.RecommendRequest{User: 5, M: 10}
	// Phase 1: the threshold. Each of these burns the per-attempt
	// timeout on the hung shard and comes back degraded.
	for i := 0; i < 3; i++ {
		var resp serve.RecommendResponse
		if st := ranktest.PostJSON(t, tr.routerTS.URL+"/v1/recommend", req, &resp); st != 200 {
			t.Fatalf("request %d during hang: status %d", i, st)
		}
		if !resp.Degraded {
			t.Fatalf("request %d during hang: not marked degraded", i)
		}
	}
	if got := tr.router.shardAt(hung).breaker.stateName(); got != "open" {
		t.Fatalf("after %d failures breaker is %q, want open", 3, got)
	}

	// Phase 2: fail fast. With the breaker open the hung shard costs
	// nothing; five requests must come nowhere near five timeouts (2s).
	// The window stays inside the cooldown so no trial re-hangs us.
	start := time.Now()
	for i := 0; i < 5; i++ {
		var resp serve.RecommendResponse
		if st := ranktest.PostJSON(t, tr.routerTS.URL+"/v1/recommend", req, &resp); st != 200 || !resp.Degraded {
			t.Fatalf("fail-fast request %d: status %d degraded=%v", i, st, resp.Degraded)
		}
	}
	if el := time.Since(start); el > 600*time.Millisecond {
		t.Fatalf("5 fail-fast requests took %v — breaker is not short-circuiting the hung shard", el)
	}

	// Phase 3: recovery. Clear the fault; after the cooldown the next
	// request runs a half-open trial, closes the breaker, and merges go
	// back to bit-identical — conforms also asserts not-degraded.
	ct.Set()
	waitFor(t, 10*time.Second, "breaker to close after the fault cleared", func() bool {
		var resp serve.RecommendResponse
		ranktest.PostJSON(t, tr.routerTS.URL+"/v1/recommend", req, &resp)
		return !resp.Degraded
	})
	if got := tr.router.shardAt(hung).breaker.stateName(); got != "closed" {
		t.Fatalf("breaker after recovery is %q, want closed", got)
	}
	tr.conforms(t, "healed")
}

// TestProbeDrivenRouteRepair: a partitioned shard is marked down by the
// background prober (degraded merges, no timeout burn), and returned to
// rotation automatically once the partition heals — full bit-identical
// merges resume with zero operator intervention.
func TestProbeDrivenRouteRepair(t *testing.T) {
	ct := chaos.NewTransport(NewShardTransport(256), 1)
	tr := newTier(t, 2, Config{
		Timeout:          300 * time.Millisecond,
		BreakerThreshold: -1, // isolate the prober: no breaker assists
		ProbeInterval:    25 * time.Millisecond,
		AllowDegraded:    true,
		EdgeConfig:       serve.EdgeConfig{CacheSize: -1},
		HTTPClient:       &http.Client{Transport: ct},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr.router.StartProber(ctx)

	lost := tr.shardTS[0].URL
	hs := tr.router.shardAt(lost)
	ct.Set(&chaos.Fault{Host: hostOf(t, lost), Err: chaos.ErrPartitioned})
	waitFor(t, 5*time.Second, "prober to mark the partitioned shard down", hs.down.Load)

	// Marked down: requests skip the shard outright — degraded,
	// and fast even though nothing is cached.
	start := time.Now()
	var resp serve.RecommendResponse
	if st := ranktest.PostJSON(t, tr.routerTS.URL+"/v1/recommend", serve.RecommendRequest{User: 9, M: 10}, &resp); st != 200 {
		t.Fatalf("status %d with shard down", st)
	}
	if !resp.Degraded {
		t.Fatal("merge over a downed shard not marked degraded")
	}
	if el := time.Since(start); el > 250*time.Millisecond {
		t.Fatalf("downed-shard request took %v — the down verdict is not short-circuiting", el)
	}

	ct.Set()
	waitFor(t, 5*time.Second, "prober to repair the healed shard", func() bool { return !hs.down.Load() })
	tr.conforms(t, "repaired")
	if tr.router.m.repairs.Value() < 1 || tr.router.m.marksDown.Value() < 1 {
		t.Errorf("prober counters: marks_down=%d repairs=%d, want >= 1 each",
			tr.router.m.marksDown.Value(), tr.router.m.repairs.Value())
	}
}

// TestBreakerOutlivesRouteFlip: what the router knows about a shard — its
// breaker, the prober's verdict, its call latency — belongs to the shard,
// not to the route table, so a flip to a new epoch keeps all of it. Each
// case trips one shard with the faults scoped away from /healthz (the
// flip's poll must still succeed), clears the fault, flips, and requires
// the next call to skip the shard without touching it.
func TestBreakerOutlivesRouteFlip(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		trip func(t *testing.T, tr *tier, ct *chaos.Transport, sick string)
		want shardView // the tripped shard's row, calls aside
	}{{
		name: "breaker",
		// The cooldown outlasts the test: only a reset could close it.
		cfg: Config{BreakerThreshold: 2, BreakerCooldown: time.Hour},
		trip: func(t *testing.T, tr *tier, ct *chaos.Transport, sick string) {
			ct.Set(&chaos.Fault{Host: hostOf(t, sick), Path: shardPath, Status: http.StatusInternalServerError})
			for i := 0; i < 2; i++ {
				tr.recommend(t, true)
			}
		},
		want: shardView{state: "open", opens: 1},
	}, {
		name: "prober",
		cfg:  Config{BreakerThreshold: -1},
		trip: func(t *testing.T, tr *tier, ct *chaos.Transport, sick string) {
			ct.Set(&chaos.Fault{Host: hostOf(t, sick), Path: "/readyz", Err: chaos.ErrPartitioned})
			tr.router.probeAll(context.Background())
			tr.recommend(t, true)
		},
		want: shardView{down: true},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			ct := chaos.NewTransport(NewShardTransport(256), 1)
			cfg := tc.cfg
			cfg.AllowDegraded, cfg.EdgeConfig.CacheSize = true, -1
			cfg.HTTPClient = &http.Client{Transport: ct}
			tr := newTier(t, 2, cfg)
			sick := tr.shardTS[0].URL
			tc.trip(t, tr, ct, sick)
			before := tr.shardRow(t, sick)
			if tc.want.calls = before.calls; before != tc.want {
				t.Fatalf("tripped shard reads %+v, want %+v", before, tc.want)
			}
			ct.Set()
			if epoch, err := tr.router.Refresh(context.Background()); err != nil || epoch != 2 {
				t.Fatalf("flip: epoch %d, %v; want epoch 2", epoch, err)
			}
			calls := tr.router.m.shardCalls.Value()
			tr.recommend(t, true)
			if n := tr.router.m.shardCalls.Value() - calls; n != 1 {
				t.Errorf("the call after the flip reached %d shards, want 1: the sick one must fail fast", n)
			}
			// The fast-failed call is one more shard_latency observation.
			tc.want.calls++
			if after := tr.shardRow(t, sick); after != tc.want {
				t.Errorf("after the flip and one call the shard reads %+v, want %+v", after, tc.want)
			}
		})
	}
}

// recommend asks the router for one uncached list and requires it to be
// served, degraded as wantDegraded says.
func (tr *tier) recommend(t *testing.T, wantDegraded bool) {
	t.Helper()
	var resp serve.RecommendResponse
	if st := ranktest.PostJSON(t, tr.routerTS.URL+"/v1/recommend", serve.RecommendRequest{User: 9, M: 10}, &resp); st != 200 || resp.Degraded != wantDegraded {
		t.Fatalf("recommend: status %d degraded=%v, want 200 degraded=%v", st, resp.Degraded, wantDegraded)
	}
}

// shardView is one shard as the router's operator sees it: its
// shards_health row in /healthz and its shard_latency count in /metrics.
type shardView struct {
	down  bool
	state string
	opens int64
	calls uint64
}

func (tr *tier) shardRow(t *testing.T, url string) shardView {
	t.Helper()
	var h struct {
		ShardsHealth []struct {
			URL     string `json:"url"`
			Down    bool   `json:"down"`
			Breaker struct {
				State string `json:"state"`
				Opens int64  `json:"opens"`
			} `json:"breaker"`
		} `json:"shards_health"`
	}
	var m struct {
		ShardLatency map[string]struct {
			Requests uint64 `json:"requests"`
		} `json:"shard_latency"`
	}
	for path, out := range map[string]any{"/healthz": &h, "/metrics": &m} {
		resp, err := http.Get(tr.routerTS.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(out)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	for _, row := range h.ShardsHealth {
		if row.URL == url {
			return shardView{down: row.Down, state: row.Breaker.State, opens: row.Breaker.Opens, calls: m.ShardLatency[url].Requests}
		}
	}
	t.Fatalf("no shards_health row for %s", url)
	return shardView{}
}

// TestProbeMarksVersionSkewDown: a shard that is alive and ready but can
// no longer serve the route table's pinned version (its two-deep history
// moved past it) is taken out of rotation — every data call would 409 —
// and returns after a flip re-pins.
func TestProbeMarksVersionSkewDown(t *testing.T) {
	tr := newTier(t, 2, Config{
		BreakerThreshold: -1,
		ProbeInterval:    25 * time.Millisecond,
		AllowDegraded:    true,
		EdgeConfig:       serve.EdgeConfig{CacheSize: -1},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr.router.StartProber(ctx)

	// Two reloads push shard 0's history to {3, 2}; the table pins 1.
	for i := 0; i < 2; i++ {
		if st := ranktest.PostJSON(t, tr.shardTS[0].URL+"/v1/reload", nil, nil); st != 200 {
			t.Fatalf("reload %d: status %d", i, st)
		}
	}
	hs := tr.router.shardAt(tr.shardTS[0].URL)
	waitFor(t, 5*time.Second, "prober to mark the version-skewed shard down", hs.down.Load)

	// A flip re-pins each shard to its current version; the prober puts
	// the shard back without anyone touching its verdict by hand.
	if st := ranktest.PostJSON(t, tr.routerTS.URL+"/v1/admin/flip", nil, nil); st != 200 {
		t.Fatalf("flip: status %d", st)
	}
	waitFor(t, 5*time.Second, "prober to repair after the flip re-pinned", func() bool { return !hs.down.Load() })
}

// TestRouterShedsUnderOverload pins the admission-control acceptance
// criterion: at 10× the admission limit, in-flight work never exceeds
// the limit, excess requests are shed 429 within the queue-wait bound,
// and no admitted request is shed mid-flight (every non-429 is a full
// 200).
func TestRouterShedsUnderOverload(t *testing.T) {
	const maxInFlight = 4
	ct := chaos.NewTransport(NewShardTransport(256), 1)
	tr := newTier(t, 2, Config{
		EdgeConfig:       serve.EdgeConfig{MaxInFlight: maxInFlight, MaxQueue: 2, QueueWait: 50 * time.Millisecond, CacheSize: -1},
		BreakerThreshold: -1,
		HTTPClient:       &http.Client{Transport: ct},
	})
	// Every shard call takes ~100ms: admitted requests hold their slot
	// long enough that a 10× burst must overflow the queue.
	ct.Set(&chaos.Fault{Path: shardPath, Latency: 100 * time.Millisecond})

	const n = 10 * maxInFlight
	type outcome struct {
		status  int
		items   int
		took    time.Duration
		retryAt string
	}
	outcomes := make([]outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"user":%d,"m":10}`, i)
			start := time.Now()
			resp, err := http.Post(tr.routerTS.URL+"/v1/recommend", "application/json",
				strings.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var rr serve.RecommendResponse
			_ = json.NewDecoder(resp.Body).Decode(&rr)
			outcomes[i] = outcome{
				status:  resp.StatusCode,
				items:   len(rr.Items),
				took:    time.Since(start),
				retryAt: resp.Header.Get("Retry-After"),
			}
		}(i)
	}
	wg.Wait()

	var ok200, shed429 int
	for i, o := range outcomes {
		switch o.status {
		case http.StatusOK:
			ok200++
			if o.items != 10 {
				t.Errorf("request %d: admitted but served %d items — admitted work was cut short", i, o.items)
			}
		case http.StatusTooManyRequests:
			shed429++
			if o.retryAt == "" {
				t.Errorf("request %d: 429 without Retry-After", i)
			}
			if o.took > 2*time.Second {
				t.Errorf("request %d: shed after %v — shedding must be bounded by the queue wait", i, o.took)
			}
		default:
			t.Errorf("request %d: status %d — overload must shed with 429, nothing else", i, o.status)
		}
	}
	if peak := tr.router.Gate().Peak(); peak > maxInFlight {
		t.Errorf("peak in-flight %d exceeds the admission limit %d", peak, maxInFlight)
	}
	if ok200 == 0 {
		t.Error("overload starved every request; the gate should still admit up to the limit")
	}
	if shed429 < n/4 {
		t.Errorf("only %d/%d shed under 10× overload — the gate is not bounding admission", shed429, n)
	}
	t.Logf("overload: %d ok, %d shed, peak in-flight %d", ok200, shed429, tr.router.Gate().Peak())
}

// TestMidChaosQuorumRolloutNeverMixesVersions: with a flapping fault
// injecting shard 500s, concurrent clients and a quorum rollout to a
// genuinely different model, every 200 the router serves must equal the
// old model's list or the new model's list bit-for-bit — never a merge
// of both.
func TestMidChaosQuorumRolloutNeverMixesVersions(t *testing.T) {
	ct := chaos.NewTransport(NewShardTransport(256), 7)
	tr := newTier(t, 3, Config{
		Timeout:          2 * time.Second,
		HedgeDelay:       5 * time.Millisecond,
		RetryBudget:      -1, // unlimited hedges: keep throughput up under the flap
		BreakerThreshold: -1, // flapping 500s must not trip anything here
		EdgeConfig:       serve.EdgeConfig{CacheSize: -1},
		HTTPClient:       &http.Client{Transport: ct},
	})
	// The rollout target is a genuinely different model, so a mixed-version
	// merge cannot masquerade as either list.
	users := []int{0, 7, 42, 119}
	v1, v2 := map[int][]serve.ScoredItem{}, map[int][]serve.ScoredItem{}
	for _, u := range users {
		c := &ranktest.Case{Users: []int{u}, M: 10}
		old, next := tr.fx.Want(t, tr.fx.Cur, &ranktest.Ranker{}, c)[0], tr.fx.Want(t, tr.fx.Next, &ranktest.Ranker{}, c)[0]
		v1[u], v2[u] = serve.ZipScored(old.Items, old.Scores), serve.ZipScored(next.Items, next.Scores)
	}
	if err := tr.fx.Install(tr.fx.Next); err != nil {
		t.Fatal(err)
	}

	// Every third shard call dies with a 500 for the whole test.
	ct.Set(&chaos.Fault{Path: shardPath, Status: 500, EveryN: 3})

	matches := func(got, want []serve.ScoredItem) bool {
		if len(got) != len(want) {
			return false
		}
		for n := range want {
			if got[n] != want[n] {
				return false
			}
		}
		return true
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var served, servedNew, failed int64
	var mu sync.Mutex
	for _, u := range users {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(tr.routerTS.URL+"/v1/recommend", "application/json",
					strings.NewReader(fmt.Sprintf(`{"user":%d,"m":10}`, u)))
				if err != nil {
					continue
				}
				var rr serve.RecommendResponse
				decErr := json.NewDecoder(resp.Body).Decode(&rr)
				resp.Body.Close()
				mu.Lock()
				if resp.StatusCode == 200 && decErr == nil {
					served++
					if rr.RouteEpoch > 1 {
						servedNew++
					}
					if !matches(rr.Items, v1[u]) && !matches(rr.Items, v2[u]) {
						t.Errorf("user %d: a 200 list matches neither model version (epoch %d, degraded %v) — versions were mixed",
							u, rr.RouteEpoch, rr.Degraded)
					}
				} else {
					failed++ // fail-closed 502/504 under chaos is the contract
				}
				mu.Unlock()
			}
		}(u)
	}

	// The rollout, under the same fire: quorum-reload every shard, then
	// flip (retrying — refresh itself races the flap on /healthz... it
	// doesn't: /healthz is outside the faulted path, but client load can
	// still slow it).
	for _, ts := range tr.shardTS {
		if st := ranktest.PostJSON(t, ts.URL+"/v1/reload", nil, nil); st != 200 {
			t.Fatalf("shard reload: status %d", st)
		}
	}
	waitFor(t, 10*time.Second, "the flip to land mid-chaos", func() bool {
		return ranktest.PostJSON(t, tr.routerTS.URL+"/v1/admin/flip", nil, nil) == 200
	})
	waitFor(t, 10*time.Second, "lists served across the new epoch too", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return servedNew >= int64(2*len(users))
	})
	close(stop)
	wg.Wait()
	if served == 0 {
		t.Fatal("no successful responses at all during the chaos rollout")
	}
	t.Logf("mid-chaos rollout: %d served, %d failed closed", served, failed)

	// After the storm: heal and verify the tier converged on v2.
	ct.Set()
	var rr serve.RecommendResponse
	if st := ranktest.PostJSON(t, tr.routerTS.URL+"/v1/recommend", serve.RecommendRequest{User: 42, M: 10}, &rr); st != 200 {
		t.Fatalf("post-chaos: status %d", st)
	}
	if !matches(rr.Items, v2[42]) {
		t.Fatal("post-rollout list is not the new model's")
	}
}

// TestSlowLorisShardDoesNotHoldSlotPastDeadline: a shard that accepts
// the connection and trickles its response must cost the router at most
// the per-attempt timeout, never the trickle duration.
func TestSlowLorisShardDoesNotHoldSlotPastDeadline(t *testing.T) {
	tr := newTier(t, 2, Config{AllowDegraded: true})
	proxy, err := chaos.NewProxy(tr.shardTS[0].URL)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// A second router routes shard 0 through the proxy (Pass mode while
	// Refresh discovers the partition).
	tport := NewShardTransport(256)
	_, rts := startRouter(t, Config{
		Shards:           []string{proxy.URL(), tr.shardTS[1].URL},
		Timeout:          200 * time.Millisecond,
		BreakerThreshold: -1, // the deadline alone must free the slot
		AllowDegraded:    true,
		EdgeConfig:       serve.EdgeConfig{CacheSize: -1},
		HTTPClient:       &http.Client{Transport: tport},
	})
	// The proxy latches its mode per connection; drop the keep-alive
	// conns Refresh opened so the trickle applies to fresh streams.
	tport.CloseIdleConnections()

	// ~20ms per response byte: a response held to the trickle would take
	// many seconds. The router must cut it off at its 200ms deadline.
	proxy.SetMode(chaos.ModeTrickle)
	proxy.SetTrickle(20 * time.Millisecond)
	for i := 0; i < 4; i++ {
		start := time.Now()
		var resp serve.RecommendResponse
		if st := ranktest.PostJSON(t, rts.URL+"/v1/recommend", serve.RecommendRequest{User: i, M: 10}, &resp); st != 200 {
			t.Fatalf("request %d: status %d", i, st)
		}
		if !resp.Degraded {
			t.Fatalf("request %d: trickled shard served in time?", i)
		}
		if el := time.Since(start); el > 2*time.Second {
			t.Fatalf("request %d held for %v — the slow-loris shard is holding router slots past the deadline", i, el)
		}
	}
	proxy.SetMode(chaos.ModePass)
	waitFor(t, 5*time.Second, "full merges once the loris relents", func() bool {
		var resp serve.RecommendResponse
		return ranktest.PostJSON(t, rts.URL+"/v1/recommend", serve.RecommendRequest{User: 3, M: 10}, &resp) == 200 &&
			!resp.Degraded
	})
}

// TestDeterministic4xxDoesNotTripBreaker pins the satellite bugfix: a
// shard's deterministic 400 (unknown tag) repeated past the breaker
// threshold must leave the breaker closed — 4xx is the client's fault,
// not the shard's.
func TestDeterministic4xxDoesNotTripBreaker(t *testing.T) {
	tr := newTier(t, 2, Config{
		BreakerThreshold: 2,
		EdgeConfig:       serve.EdgeConfig{CacheSize: -1},
	})
	bad := serve.RecommendRequest{User: 1, M: 5,
		Filter: &serve.FilterSpec{AllowTags: []string{"no-such-tag"}}}
	for i := 0; i < 5; i++ {
		if st := ranktest.PostJSON(t, tr.routerTS.URL+"/v1/recommend", bad, nil); st != 400 {
			t.Fatalf("bad-tag request %d: status %d, want 400", i, st)
		}
	}
	for _, ts := range tr.shardTS {
		b := tr.router.shardAt(ts.URL).breaker
		if got := b.stateName(); got != "closed" {
			t.Fatalf("breaker for %s is %q after repeated 4xx, want closed", ts.URL, got)
		}
		if opens := b.snapshot()["opens"].(int64); opens != 0 {
			t.Fatalf("breaker for %s opened %d times on 4xx", ts.URL, opens)
		}
	}
	tr.conforms(t, "after-4xx-storm")
}

// TestRouterMapsShardTimeoutTo504 pins the satellite bugfix: deadline
// exhaustion is 504 with a structured body, not the generic 502.
func TestRouterMapsShardTimeoutTo504(t *testing.T) {
	ct := chaos.NewTransport(NewShardTransport(256), 1)
	tr := newTier(t, 2, Config{
		Timeout:          80 * time.Millisecond,
		BreakerThreshold: -1,
		EdgeConfig:       serve.EdgeConfig{CacheSize: -1},
		HTTPClient:       &http.Client{Transport: ct},
		// Fail-closed: the hung shard must fail the request.
	})
	ct.Set(&chaos.Fault{Host: hostOf(t, tr.shardTS[0].URL), Hang: true})

	resp, err := http.Post(tr.routerTS.URL+"/v1/recommend", "application/json",
		strings.NewReader(`{"user":3,"m":5}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	var body struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Code != "deadline_exceeded" || body.Error == "" {
		t.Fatalf("504 body = %+v, want code deadline_exceeded with an error message", body)
	}
	if tr.router.edge.Deadline504s() < 1 {
		t.Error("deadline_504s metric not incremented")
	}
}

// deadlineSpy records the largest deadline budget, in ms, a call through
// it to host carried, and passes every call on.
type deadlineSpy struct {
	next http.RoundTripper
	host string
	max  atomic.Int64
}

func (s *deadlineSpy) RoundTrip(r *http.Request) (*http.Response, error) {
	if ms, err := strconv.ParseInt(r.Header.Get(serve.DeadlineHeader), 10, 64); err == nil && r.URL.Host == s.host {
		s.max.Store(max(s.max.Load(), ms))
	}
	return s.next.RoundTrip(r)
}

// TestRequestTimeoutBoundsTheRequest pins the README's "Deadlines": with
// -request-timeout far below the per-attempt -timeout (2 s by default) and
// one shard hung, the request is over — 504 deadline_exceeded, counted —
// long before an attempt would have timed out, and the healthy shard was
// granted no more than the request's budget.
func TestRequestTimeoutBoundsTheRequest(t *testing.T) {
	const budget = 150 * time.Millisecond
	ct := chaos.NewTransport(NewShardTransport(256), 1)
	spy := &deadlineSpy{next: ct}
	tr := newTier(t, 2, Config{RequestTimeout: budget, BreakerThreshold: -1, EdgeConfig: serve.EdgeConfig{CacheSize: -1},
		HTTPClient: &http.Client{Transport: spy}})
	spy.host = hostOf(t, tr.shardTS[1].URL)
	ct.Set(&chaos.Fault{Host: hostOf(t, tr.shardTS[0].URL), Path: shardPath, Hang: true})

	start := time.Now()
	var body serve.ErrorBody
	if st := ranktest.PostJSON(t, tr.routerTS.URL+"/v1/recommend", serve.RecommendRequest{User: 3, M: 5}, &body); st != http.StatusGatewayTimeout || body.Code != "deadline_exceeded" {
		t.Fatalf("status %d code %q, want 504 deadline_exceeded", st, body.Code)
	}
	if el := time.Since(start); el > time.Second {
		t.Errorf("the request took %v: held to the per-attempt timeout, not to its own %v", el, budget)
	}
	if got := spy.max.Load(); got <= 0 || got > budget.Milliseconds() {
		t.Errorf("the healthy shard was granted %d ms, want a budget within the request's %d", got, budget.Milliseconds())
	}
	if got := tr.router.edge.Deadline504s(); got != 1 {
		t.Errorf("deadline_504s = %d, want 1", got)
	}
}

// TestShardDeadlineHeader: a shard aborts scoring whose propagated
// deadline budget already expired, with a 504 the router folds into its
// own deadline accounting. The header sets the budget on the JSON route;
// the router's frame streams carry the same budget in each message.
func TestShardDeadlineHeader(t *testing.T) {
	tr := newTier(t, 2, Config{})
	body, err := json.Marshal(serve.ShardTopMRequest{User: 1, M: 5, ExpectVersion: 1})
	if err != nil {
		t.Fatal(err)
	}
	for budget, want := range map[string]int{
		"0":    http.StatusGatewayTimeout, // already spent
		"5000": http.StatusOK,             // a generous budget serves normally
		// An effectively unlimited budget is no deadline: these two used to
		// wrap time.Duration negative and shed the request.
		"9223372036854775807": http.StatusOK,
		"9300000000000":       http.StatusOK,
	} {
		st, _, _ := ranktest.PostRaw(t, tr.shardTS[0].URL+"/v1/shard/topm", "application/json", body, map[string]string{serve.DeadlineHeader: budget})
		if st != want {
			t.Errorf("shard call with a %s ms budget: status %d, want %d", budget, st, want)
		}
	}
}

// BenchmarkRouterShardDown pins the fail-fast latency win: one shard
// hung, breaker open — requests are served degraded from the survivors
// at in-memory speed instead of burning the 500ms timeout each.
func BenchmarkRouterShardDown(b *testing.B) {
	ct := chaos.NewTransport(NewShardTransport(256), 1)
	tr := newTier(b, 2, Config{
		Timeout:          500 * time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour, // no half-open trial mid-benchmark
		AllowDegraded:    true,
		EdgeConfig:       serve.EdgeConfig{CacheSize: -1},
		HTTPClient:       &http.Client{Transport: ct},
	})
	ct.Set(&chaos.Fault{Host: hostOf(b, tr.shardTS[0].URL), Hang: true})
	// One sacrificial request burns the timeout and trips the breaker.
	var warm serve.RecommendResponse
	if st := ranktest.PostJSON(b, tr.routerTS.URL+"/v1/recommend", serve.RecommendRequest{User: 0, M: 10}, &warm); st != 200 || !warm.Degraded {
		b.Fatalf("warm-up: status %d degraded=%v", st, warm.Degraded)
	}
	req := serve.RecommendRequest{User: 17, M: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var resp serve.RecommendResponse
		if st := ranktest.PostJSON(b, tr.routerTS.URL+"/v1/recommend", req, &resp); st != 200 || !resp.Degraded {
			b.Fatalf("status %d degraded=%v", st, resp.Degraded)
		}
	}
}

// Gate exposes the admission controller (nil when disabled), for tests
// asserting the in-flight bound.
func (rt *Router) Gate() *serve.Gate { return rt.edge.Gate() }
