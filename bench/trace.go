package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// The traced run attributes time to layers from outside the program: it
// replays a sample of the workload serially and times the same request
// at every nesting level — loopback round trip, the front handler on a
// recorder, the rank engine, the scorer — each level on its own instance
// so all of them are in the same cache state when request i arrives.
// A level's self time is its span minus its child's span.

// span is one timed call; Parent indexes the enclosing span of the same
// request (-1 for the root). Times are nanoseconds since the replay began.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

// time runs fn inside a new span and returns its duration in µs.
func (tr *tracer) time(name string, req, parent int, fn func()) (id int, us float64) {
	start := time.Now()
	fn()
	end := time.Now()
	tr.spans = append(tr.spans, span{name, req, parent, start.Sub(tr.t0).Nanoseconds(), end.Sub(tr.t0).Nanoseconds()})
	return len(tr.spans) - 1, float64(end.Sub(start).Nanoseconds()) / 1e3
}

// recorder is the minimal http.ResponseWriter a handler needs.
type recorder struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.h }
func (r *recorder) WriteHeader(s int)           { r.status = s }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

// serveDirect calls h with a POST of body and returns the status.
func serveDirect(h http.Handler, path, ctype string, body []byte, rec *recorder) int {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return 0
	}
	req.Header.Set("Content-Type", ctype)
	rec.h, rec.status = make(http.Header), http.StatusOK
	rec.body.Reset()
	h.ServeHTTP(rec, req)
	return rec.status
}

// lab is the set of instances a traced run measures on, all serving the
// deployed artifact: two single servers, two routed tiers, and rankers
// over the full catalogue and over each shard's range.
type lab struct {
	singleRT, singleH *tier // round trips go to one, recorder calls to the other
	routedRT, routedH *tier
	full              *ranker
	ranges            []*ranker
}

func (r *runner) newLab(modelPath string) (*lab, error) {
	l := &lab{}
	dir := filepath.Join(r.opt.WorkDir, "lab")
	// Each tier gets its own copy of the artifact: reload measurements
	// must not swap the file under the others.
	mk := func(name string, routed bool) (*tier, error) {
		mp := filepath.Join(dir, name, "model.bin")
		if err := copyFile(modelPath, mp); err != nil {
			return nil, err
		}
		if routed {
			return r.in.startRouter(mp, filepath.Join(dir, name, "feed"), nShards)
		}
		return r.in.startSingle(mp, filepath.Join(dir, name, "feed"))
	}
	var err error
	if l.singleRT, err = mk("single-rt", false); err != nil {
		return nil, err
	}
	if l.singleH, err = mk("single-h", false); err != nil {
		l.close()
		return nil, err
	}
	if l.routedRT, err = mk("routed-rt", true); err != nil {
		l.close()
		return nil, err
	}
	if l.routedH, err = mk("routed-h", true); err != nil {
		l.close()
		return nil, err
	}
	if l.full, err = r.in.newRanker(modelPath, 0, 0); err != nil {
		l.close()
		return nil, err
	}
	items := r.in.Size.Items
	for s := 0; s < nShards; s++ {
		rk, err := r.in.newRanker(modelPath, items*s/nShards, items*(s+1)/nShards)
		if err != nil {
			l.close()
			return nil, err
		}
		l.ranges = append(l.ranges, rk)
	}
	return l, nil
}

func (l *lab) close() {
	for _, t := range []*tier{l.singleRT, l.singleH, l.routedRT, l.routedH} {
		if t != nil {
			t.close()
		}
	}
	if l.full != nil {
		l.full.close()
	}
	for _, rk := range l.ranges {
		rk.close()
	}
}

// traced fills in every per-layer metric.
func (r *runner) traced(modelPath string, gc gcStats, hitRatio, lookups, mapAt float64) error {
	res := r.rep.Res
	// What the rounds themselves showed.
	late := sortedCopy(durs(r.late, 1e6))
	lat := sortedCopy(durs(r.lat, 1e6))
	res.add("loadgen.late_p50_ms", "ms", quantile(late, 0.50))
	res.add("loadgen.late_p99_ms", "ms", quantile(late, 0.99))
	res.add("tier.lat_p99_ms", "ms", quantile(lat, 0.99))
	res.add("tier.lat_samples", "count", float64(len(lat)))
	if len(r.reader) > 0 {
		// Only train_cycle has a reader; the row is printed there and is
		// not among the declared metrics, which every workload reports.
		res.add("trainer.reader_lat_p95_ms", "ms", quantile(sortedCopy(durs(r.reader, 1e6)), 0.95))
	}
	res.add("rank.hit_ratio", "ratio", hitRatio)
	coalesced := 0.0
	if lookups > 0 {
		coalesced = r.hit.Coalesced / lookups
	}
	res.add("rank.coalesced_share", "ratio", coalesced)
	res.add("go.gc_pause_ms", "ms", float64(gc.PauseNs)/1e6)
	res.add("go.gc_cycles", "count", float64(gc.Cycles))
	res.add("go.heap_peak_mb", "MB", float64(gc.HeapSys)/(1<<20))
	res.add("eval.map_at_20", "ratio", mapAt)
	r.cycleRows()

	if err := r.in.measureLayers(modelPath, r.opt.WorkDir, r.prof.Reps, res); err != nil {
		return err
	}
	l, err := r.newLab(modelPath)
	if err != nil {
		return err
	}
	defer l.close()
	r.measureServe(l)
	r.measureCluster(l)
	return r.budget(l)
}

// cycleRows reports the trainer's own phase durations over the warm
// cycles and the solver's iteration gaps. As in the request budget, the
// residual is the median cycle minus the median of every phase the
// trainer accounts for, so the rows add up to the total.
func (r *runner) cycleRows() {
	res := r.rep.Res
	phases := []string{"trainer.replay_ms", "trainer.train_ms", "trainer.save_ms", "trainer.rollout_ms", "trainer.warm_ms"}
	for _, c := range r.warm {
		res.add("trainer.cycle_ms", "ms", ms(c.Total))
		for i, d := range []time.Duration{c.Replay, c.Train, c.Save, c.Rollout, c.Warm} {
			res.add(phases[i], "ms", ms(d))
		}
		res.add("core.train_iters_warm", "count", float64(c.Iters))
	}
	rest := res.get("trainer.cycle_ms")
	for _, p := range phases {
		rest -= res.get(p)
	}
	res.add("trainer.unattributed_ms", "ms", rest)
	k := float64(r.small.Size.K)
	for _, c := range r.cold {
		res.add("core.train_iters_cold", "count", float64(c.Iters))
		res.add("core.train_mnnz_k_per_s", "1/s", float64(c.NNZ)*k*float64(c.Iters)/c.Train.Seconds()/1e6)
		for _, g := range c.IterGaps {
			res.add("core.train_iter_ms", "ms", ms(g))
		}
	}
}

// walk returns n distinct-user single calls, then the same calls again:
// against a fresh cache the first half misses and the second half hits.
func walk(n, users int) []call {
	out := make([]call, 0, 2*n)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			out = append(out, call{Users: []int{(i * 7) % users}})
		}
	}
	return out
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// measureServe times one serve.Server from outside: its handler on a
// recorder, the loopback round trip to a twin, and a rank engine in the
// same cache state, request by request.
func (r *runner) measureServe(l *lab) {
	res := r.rep.Res
	n := min(r.prof.Reps, r.in.Size.Users/8)
	calls := walk(n, r.in.Size.Users)
	sep := r.singleEP(l.singleRT)
	rec := &recorder{}
	var body, rbuf []byte
	for i, c := range calls {
		body = c.jsonBody(body[:0], false)
		rt := timeUs(func() {
			status, reply, err := r.cl.post(sep.URL, "application/json", body, rbuf)
			rbuf = reply
			if err != nil || status != http.StatusOK {
				r.rep.problem("lab round trip: status %d err %v", status, err)
			}
		})
		h := timeUs(func() {
			if s := serveDirect(l.singleH.Front, "/v1/recommend", "application/json", body, rec); s != http.StatusOK {
				r.rep.problem("lab handler: status %d", s)
			}
		})
		rk := l.full.topM(c)
		rankUs := float64(rk.Total.Nanoseconds()) / 1e3
		kind := "miss"
		if i >= n {
			kind = "hit"
		}
		res.add("serve.handler_"+kind+"_us", "us", h)
		res.add("serve.self_"+kind+"_us", "us", h-rankUs)
		res.add("serve.hop_us", "us", rt-h)
	}
	// Allocation counts per handler call, recorder included; ReadMemStats
	// stops the world, so it brackets a run of calls, not each one.
	for _, kind := range []string{"miss", "hit"} {
		m0 := mallocs()
		for _, c := range calls[:n] {
			c.Users = []int{(c.Users[0] + 3) % r.in.Size.Users} // 7i+3: fresh users on pass 0
			body = c.jsonBody(body[:0], false)
			serveDirect(l.singleH.Front, "/v1/recommend", "application/json", body, rec)
		}
		res.add("serve.allocs_per_"+kind, "count", float64(mallocs()-m0)/float64(n))
	}

	nb := max(n/batchUsers, 3)
	jep := endpoint{URL: l.singleRT.URL + "/v1/batch", Batch: true}
	fep := endpoint{URL: l.singleRT.URL + "/v2/batch", Frames: true, Batch: true}
	cold := newStream(r.opt.Seed, 77, r.in.Size.Users, r.in.Size.Items, false, false)
	hot := call{Users: make([]int, batchUsers)}
	for i := range hot.Users {
		hot.Users[i] = calls[i%n].Users[0]
	}
	for i := 0; i < nb; i++ {
		c := cold.next(batchUsers)
		body, _ = jep.encode(c, body)
		us := timeUs(func() {
			_, rbuf, _ = r.cl.post(jep.URL, jep.contentType(), body, rbuf)
		})
		res.add("serve.batch_json_ms", "ms", us/1e3)
		res.add("serve.json_bytes_per_user", "count", float64(len(rbuf))/batchUsers)
		body, _ = fep.encode(hot, body)
		us = timeUs(func() {
			_, rbuf, _ = r.cl.post(fep.URL, fep.contentType(), body, rbuf)
		})
		res.add("serve.batch_frame_us", "us", us)
	}

	// The write path: ingest and reload round trips.
	evs := r.in.Slices[len(r.in.Slices)-1]
	evs = evs[:min(len(evs), 256)]
	for i := 0; i < max(r.prof.Reps/20, 3); i++ {
		us := timeUs(func() {
			if err := l.singleRT.ingest(r.cl.hc, evs); err != nil {
				r.rep.problem("lab ingest: %v", err)
			}
		})
		res.add("serve.ingest_us_per_event", "us", us/float64(len(evs)))
		us = timeUs(func() {
			status, _, err := r.cl.post(l.singleRT.URL+"/v1/reload", "application/json", nil, nil)
			if err != nil || status != http.StatusOK {
				r.rep.problem("lab reload: status %d err %v", status, err)
			}
		})
		res.add("serve.reload_ms", "ms", us/1e3)
	}
}

// scatter posts body to every shard of t concurrently, as the router's
// fan-out does, and returns when the slowest has answered.
func (r *runner) scatter(t *tier, body []byte, bufs [][]byte) {
	var wg sync.WaitGroup
	for s, u := range t.ShardURLs {
		wg.Add(1)
		go func(s int, u string) {
			defer wg.Done()
			status, reply, err := r.cl.post(u+"/v1/shard/topm", "application/json", body, bufs[s])
			bufs[s] = reply
			if err != nil || status != http.StatusOK {
				r.rep.problem("lab shard call: status %d err %v", status, err)
			}
		}(s, u)
	}
	wg.Wait()
}

// slowestShard times one call's shard handler on a recorder for every
// shard and returns the slowest: the one a scatter would wait for.
func slowestShard(t *tier, body []byte, rec *recorder) float64 {
	slowest := 0.0
	for _, h := range t.Shards {
		us := timeUs(func() {
			serveDirect(h, "/v1/shard/topm", "application/json", body, rec)
		})
		slowest = max(slowest, us)
	}
	return slowest
}

// routerCounters reads the router's own request counters.
type routerCounters struct{ Requests, Degraded, ShardCalls float64 }

func (r *runner) routerCounters(t *tier) routerCounters {
	var m struct {
		Requests   float64 `json:"requests"`
		Degraded   float64 `json:"degraded"`
		ShardCalls float64 `json:"shard_calls"`
	}
	if err := r.cl.getJSON(t.URL+"/metrics", &m); err != nil {
		r.rep.problem("reading router /metrics: %v", err)
	}
	return routerCounters{m.Requests, m.Degraded, m.ShardCalls}
}

// measureCluster times the router from outside, cold users only.
func (r *runner) measureCluster(l *lab) {
	res := r.rep.Res
	n := min(r.prof.Reps, r.in.Size.Users/8)
	calls := walk(n, r.in.Size.Users)[:n]
	rec := &recorder{}
	bufs := make([][]byte, nShards)
	var body, rbuf []byte
	for i, c := range calls {
		// The same JSON serves the router's /v1/recommend and, as the
		// router posts it, a shard's /v1/shard/topm.
		body = c.jsonBody(body[:0], false)
		h := timeUs(func() {
			if s := serveDirect(l.routedH.Front, "/v1/recommend", "application/json", body, rec); s != http.StatusOK {
				r.rep.problem("lab router handler: status %d", s)
			}
		})
		sc := timeUs(func() { r.scatter(l.routedRT, body, bufs) })
		one := timeUs(func() {
			_, rbuf, _ = r.cl.post(l.routedRT.ShardURLs[i%nShards]+"/v1/shard/topm", "application/json", body, rbuf)
		})
		sh := slowestShard(l.routedH, body, rec)
		res.add("cluster.handler_miss_us", "us", h)
		res.add("cluster.shard_call_us", "us", one)
		res.add("cluster.shard_handler_us", "us", sh)
		res.add("cluster.self_us", "us", h-sc)
		res.add("cluster.hop_share", "ratio", (sc-sh)/h)
	}
	fep := endpoint{URL: l.routedRT.URL + "/v2/batch", Frames: true, Batch: true}
	cold := newStream(r.opt.Seed, 78, r.in.Size.Users, r.in.Size.Items, false, false)
	c0 := r.routerCounters(l.routedRT)
	nb := max(n/batchUsers, 3)
	for i := 0; i < nb; i++ {
		c := cold.next(batchUsers)
		body, _ = fep.encode(c, body)
		us := timeUs(func() {
			status, reply, err := r.cl.post(fep.URL, fep.contentType(), body, rbuf)
			rbuf = reply
			if err != nil || status != http.StatusOK {
				r.rep.problem("lab router batch: status %d err %v", status, err)
			}
		})
		res.add("cluster.batch32_ms", "ms", us/1e3)
	}
	c1 := r.routerCounters(l.routedRT)
	res.add("cluster.shard_requests_per_user", "count", (c1.ShardCalls-c0.ShardCalls)/float64(nb*batchUsers))
	degraded := 0.0
	if c1.Requests > 0 {
		degraded = c1.Degraded / c1.Requests
	}
	res.add("cluster.degraded_share", "ratio", degraded)
	if degraded != 0 {
		r.rep.problem("router reports %v degraded merges", c1.Degraded)
	}
}

// pass times fn(i) for each of n requests, one span each under
// parents[i] (nil makes them roots), and returns the span ids and µs.
func (tr *tracer) pass(name string, n int, parents []int, fn func(i int)) (ids []int, us []float64) {
	ids, us = make([]int, n), make([]float64, n)
	for i := 0; i < n; i++ {
		parent := -1
		if parents != nil {
			parent = parents[i]
		}
		ids[i], us[i] = tr.time(name, i, parent, func() { fn(i) })
	}
	return ids, us
}

// budget replays a sample of the workload's own single-user stream
// serially, one pass per nesting level — every level sees the same
// requests in the same order on its own instance, and no level's work
// pollutes the caches of the one being timed. A level's self time for
// request i is its span minus its child's; a row is the median self
// time; the rows plus the residual equal the round-trip median.
func (r *runner) budget(l *lab) error {
	res := r.rep.Res
	rtTier, hTier := l.singleRT, l.singleH
	if r.sp.Routed {
		rtTier, hTier = l.routedRT, l.routedH
	}
	// Bring both twins and the ranker to the workload's warm state with
	// the same calls, then replay the stream from where they stopped.
	st := r.stream(1)
	warm := r.warmCalls(st)
	for _, t := range []*tier{rtTier, hTier} {
		r.book(r.warmUp(t, warm))
	}
	if !r.sp.Routed {
		for _, b := range warm {
			for _, u := range b.Users {
				l.full.topM(call{Users: []int{u}, Exclude: b.Exclude, Deny: b.Deny})
			}
		}
	}

	n := r.prof.TraceSample
	calls, bodies := make([]call, n), make([][]byte, n)
	for i := range calls {
		calls[i] = st.next(1)
		bodies[i] = calls[i].jsonBody(nil, false)
	}
	url := r.singleEP(rtTier).URL
	var rbuf []byte
	roundTrip := func(body []byte) {
		status, reply, err := r.cl.post(url, "application/json", body, rbuf)
		rbuf = reply
		if err != nil || status != http.StatusOK {
			r.rep.problem("budget round trip: status %d err %v", status, err)
		}
	}
	rec := &recorder{}
	tr := &tracer{t0: time.Now()}
	rtIDs, total := tr.pass("round_trip", n, nil, func(i int) { roundTrip(bodies[i]) })
	hIDs, handler := tr.pass("handler", n, rtIDs, func(i int) {
		serveDirect(hTier.Front, "/v1/recommend", "application/json", bodies[i], rec)
	})
	// below[k][i] is the span time of nesting level k for request i,
	// outermost first; a missing level repeats the one above it, so its
	// self time is zero.
	below := [][]float64{total, handler}
	if r.sp.Routed {
		bufs := make([][]byte, nShards)
		scIDs, scatter := tr.pass("scatter", n, hIDs, func(i int) { r.scatter(rtTier, bodies[i], bufs) })
		// A scatter waits for its slowest shard: per request, the maximum
		// over the shards at each level.
		shard, rank, score := make([]float64, n), make([]float64, n), make([]float64, n)
		for s := range hTier.Shards {
			shIDs, sh := tr.pass("shard_handler", n, scIDs, func(i int) {
				serveDirect(hTier.Shards[s], "/v1/shard/topm", "application/json", bodies[i], rec)
			})
			rkIDs, rk := tr.pass("rank", n, shIDs, func(i int) { l.ranges[s].topM(calls[i]) })
			_, sc := tr.pass("score", n, rkIDs, func(i int) { l.ranges[s].score(calls[i].Users[0]) })
			for i := 0; i < n; i++ {
				shard[i], rank[i], score[i] = max(shard[i], sh[i]), max(rank[i], rk[i]), max(score[i], sc[i])
			}
		}
		below = append(below, scatter, shard, rank, score)
	} else {
		cached := make([]bool, n)
		rkIDs, rank := tr.pass("rank", n, hIDs, func(i int) { cached[i] = l.full.topM(calls[i]).Cached })
		score := make([]float64, n)
		for i := 0; i < n; i++ {
			if !cached[i] { // a hit never reaches the scorer
				_, score[i] = tr.time("score", i, rkIDs[i], func() { l.full.score(calls[i].Users[0]) })
			}
		}
		below = append(below, rank, rank, rank, score)
	}
	names := []string{"budget.hop_us", "budget.front_us", "budget.scatter_us", "budget.shard_us", "budget.rank_us", "budget.core_us"}
	res.add("budget.total_us", "us", total...)
	rest := median(total)
	for k, name := range names {
		self := make([]float64, n)
		for i := range self {
			self[i] = below[k][i]
			if k+1 < len(below) {
				self[i] -= below[k+1][i]
			}
		}
		res.add(name, "us", self...)
		rest -= median(self)
	}
	res.add("budget.unattributed_us", "us", rest)

	// The same stream carries on against the round-trip twin with nothing
	// recorded: what recording spans costs the thing being measured.
	plain := make([]float64, n)
	for i := range plain {
		body := st.next(1).jsonBody(nil, false)
		plain[i] = timeUs(func() { roundTrip(body) })
	}
	res.add("loadgen.trace_overhead_share", "ratio", (median(total)-median(plain))/median(plain))
	return r.writeSpans(tr)
}

func (r *runner) writeSpans(tr *tracer) error {
	if r.opt.OutDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.opt.OutDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{r.sp.Name, r.opt.Seed, tr.spans})
	if err != nil {
		return err
	}
	path := filepath.Join(r.opt.OutDir, fmt.Sprintf("trace-%s.json", r.sp.Name))
	return os.WriteFile(path, data, 0o644)
}
