package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// spec fixes one workload. Nothing here adapts at run time: the rate,
// the catalogue and the traffic shape are the same on every commit.
type spec struct {
	Name, Why string
	Size      size
	Routed    bool    // router over 4 item-range shards instead of one server
	Zipf      bool    // Zipf(1.1) over a cached hot set instead of the cold permutation walk
	Filtered  bool    // every 4th call carries exclude_items and a deny tag
	Frames    bool    // capacity phase speaks /v2/batch frames, not JSON
	Rate      float64 // open-loop arrivals per second (about 40% of capacity)
	Train     bool    // the tier under test is the one the trainer rolls out to, beside a reader
	WarmCalls int     // 32-user batches a cold workload sends before it is measured
	// The front cache's hit ratio over the rounds must fall in [HitMin,
	// HitMax], or the workload did not exercise what it claims to.
	HitMin, HitMax float64
}

const (
	nShards    = 4
	readerRate = 200 // train_cycle's background reader, requests per second
)

// serveSize is shared by the three serving workloads: more users than
// the default 4,096-entry cache so the cold walk never hits, and a
// catalogue wide enough that a miss is dominated by the score sweep.
var serveSize = size{Users: 6000, Items: 12000, K: 16, ClusterUsers: 300, ClusterItems: 80, NoisePerUser: 2}

// trainSize is what every workload's trainer cycles run on, small enough
// that a cold training and two warm cycles fit in every round.
var trainSize = size{Users: 2000, Items: 3000, K: 16, ClusterUsers: 160, ClusterItems: 50, NoisePerUser: 2}

var quickSize = size{Users: 300, Items: 400, K: 4, ClusterUsers: 60, ClusterItems: 40, NoisePerUser: 1}

var specs = []spec{
	{
		Name: "serve_cold",
		Why:  "cache-missing users on one server: every request pays the full score sweep and filter/select",
		Size: serveSize, Filtered: true, Rate: 900, WarmCalls: 32, HitMin: 0, HitMax: 0.02,
	},
	{
		Name: "serve_hot",
		Why:  "Zipf users on one server, cache hits: decode, lookup, tracing, encode and the socket dominate",
		Size: serveSize, Zipf: true, Frames: true, Rate: 5000, HitMin: 0.85, HitMax: 1,
	},
	{
		Name: "router_tier",
		Why:  "cold users through the router over 4 item-range shards: the scatter hop, not the math, is the cost",
		Size: serveSize, Routed: true, Frames: true, Rate: 250, WarmCalls: 8, HitMin: 0, HitMax: 0.02,
	},
	{
		Name: "train_cycle",
		Why:  "a server taking a cold train and two warm retrain-save-rollout cycles beside a reader: writes next to reads",
		Size: trainSize, Zipf: true, Frames: true, Rate: 1000, Train: true, HitMin: 0, HitMax: 1,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

// profile scales a run; the quick one is for the unit test.
type profile struct {
	Rounds       int
	TracedRounds int
	TraceSample  int // requests replayed serially for the budget
	Reps         int // samples per direct layer measurement
}

var (
	fullProfile  = profile{Rounds: 10, TracedRounds: 3, TraceSample: 2000, Reps: 200}
	quickProfile = profile{Rounds: 1, TracedRounds: 1, TraceSample: 40, Reps: 8}
)

// options is one invocation.
type options struct {
	Seed    uint64
	Seconds float64
	Traced  bool
	Quick   bool
	WorkDir string // scratch for artifacts and feeds, removed afterwards
	OutDir  string // where the traced run writes its spans
	Log     io.Writer
}

// report is what a run hands back.
type report struct {
	Traced    bool
	Res       *results
	Attempted int
	Failed    int // failed, refused, timed out or incorrect
	Problems  []string
}

func (r *report) problem(format string, args ...any) {
	r.Failed++
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// runner carries one run's state.
type runner struct {
	sp    spec
	opt   options
	prof  profile
	in    *inputs // the catalogue the tier under test serves
	small *inputs // the catalogue the trainer cycles run on (in itself on train_cycle)
	cl    *client
	conns int
	rep   *report
	ck    *checker
	mach  *machine
	// artifacts trained once, before anything is measured
	artifact, smallArtifact string
	// per-cycle and per-round observations kept for the per-layer rows
	cold, warm []cycle
	lat, late  []int64
	reader     []int64
	hit        cacheCounters
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// run executes one workload once and returns its metrics.
func run(sp spec, opt options) (*report, error) {
	prof, small := fullProfile, trainSize
	if opt.Quick {
		prof, sp.Size, small = quickProfile, quickSize, quickSize
		sp.Rate = min(sp.Rate, 400)
		sp.WarmCalls = min(sp.WarmCalls, 16)
		sp.HitMin, sp.HitMax = 0, 1 // a 300-user catalogue fits any cache
		opt.Seconds = min(opt.Seconds, 0.2)
	}
	if err := os.MkdirAll(opt.WorkDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(opt.WorkDir)
	in, err := makeInputs(sp.Size)
	if err != nil {
		return nil, err
	}
	conns := runtime.GOMAXPROCS(0)
	r := &runner{
		sp: sp, opt: opt, prof: prof, in: in, small: in, conns: conns, cl: newClient(conns),
		rep: &report{Traced: opt.Traced, Res: newResults()},
		ck:  &checker{},
	}
	defer r.cl.close()
	if r.mach, err = newMachine(); err != nil {
		return nil, err
	}
	defer r.mach.stop()
	if !sp.Train {
		if r.small, err = makeInputs(small); err != nil {
			return nil, err
		}
	}
	return r.rep, r.run()
}

// produce trains the first artifact of a catalogue with a cold trainer
// cycle that has nowhere to roll out to. It is input preparation: what
// is measured starts from a model on disk.
func (r *runner) produce(in *inputs, name string) (string, error) {
	dir := filepath.Join(r.opt.WorkDir, name)
	modelPath := filepath.Join(dir, "model.bin")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tr, err := in.newTrainer(modelPath, filepath.Join(dir, "feed"), target{})
	if err != nil {
		return "", err
	}
	if _, err := tr.runOnce(); err != nil {
		return "", fmt.Errorf("producing %s artifact: %w", name, err)
	}
	return modelPath, nil
}

// setUp starts the workload's tier from the artifact and sends the
// warm-up pass that fills caches, buffer pools and connections:
// everything between a saved model and a tier in steady state. That
// time is setup_s.
//
// st supplies the warm-up calls. The tier under test is warmed from the
// stream its rounds continue on, so a cold walk moves on from the users
// it warmed and meets them again only after the cache evicted them.
func (r *runner) setUp(n int, st *stream) (*tier, string, error) {
	dir := filepath.Join(r.opt.WorkDir, fmt.Sprintf("setup-%d", n))
	modelPath, feedDir := filepath.Join(dir, "model.bin"), filepath.Join(dir, "feed")
	if err := copyFile(r.artifact, modelPath); err != nil {
		return nil, "", err
	}
	t0 := time.Now()
	var t *tier
	var err error
	if r.sp.Routed {
		t, err = r.in.startRouter(modelPath, feedDir, nShards)
	} else {
		t, err = r.in.startSingle(modelPath, feedDir)
	}
	if err != nil {
		return nil, "", err
	}
	r.book(r.warmUp(t, r.warmCalls(st)))
	r.rep.Res.add("setup_s", "s", time.Since(t0).Seconds())
	return t, modelPath, nil
}

// checkCycle holds a cycle to what the pipeline promises: it started
// warm exactly when a model existed, and the tier confirmed a version
// strictly past the one before it.
func (r *runner) checkCycle(c cycle, wantWarm bool, prevVersion uint64) {
	if c.WarmStarted != wantWarm {
		r.rep.problem("cycle warm_started=%v, want %v", c.WarmStarted, wantWarm)
	}
	if c.Version <= prevVersion {
		r.rep.problem("model version %d did not advance past %d", c.Version, prevVersion)
	}
}

func (r *runner) stream(salt uint64) *stream {
	return newStream(r.opt.Seed, salt, r.in.Size.Users, r.in.Size.Items, r.sp.Zipf, r.sp.Filtered)
}

func (r *runner) singleEP(t *tier) endpoint { return endpoint{URL: t.URL + "/v1/recommend"} }

func (r *runner) batchEP(t *tier) endpoint {
	if r.sp.Frames {
		return endpoint{URL: t.URL + "/v2/batch", Frames: true, Batch: true}
	}
	return endpoint{URL: t.URL + "/v1/batch", Batch: true}
}

// warmUp brings a fresh tier to the workload's steady state over both
// endpoints: a hot workload asks once for every user of its hot set, so
// the rounds start at their final hit ratio; a cold one sends WarmCalls
// batches to fill buffer pools and open connections.
func (r *runner) warmUp(t *tier, calls []call) phase {
	var next atomic.Int64
	bep, sep := r.batchEP(t), r.singleEP(t)
	return runWorkers(r.conns, func(w int, p *phase) {
		var body, rbuf []byte
		for {
			i := int(next.Add(1)) - 1
			if i >= len(calls) {
				return
			}
			body, _ = bep.encode(calls[i], body)
			send(r.cl, bep, calls[i], body, &rbuf, p)
			c := call{Users: calls[i].Users[:1], Exclude: calls[i].Exclude, Deny: calls[i].Deny}
			body, _ = sep.encode(c, body)
			send(r.cl, sep, c, body, &rbuf, p)
		}
	})
}

// warmCalls lists the batches of a warm-up pass; each is followed by a
// single-user call for its first user.
func (r *runner) warmCalls(st *stream) []call {
	var calls []call
	if hot := st.support(); hot != nil {
		for lo := 0; lo < len(hot); lo += batchUsers {
			calls = append(calls, call{Users: hot[lo:min(lo+batchUsers, len(hot))]})
		}
		return calls
	}
	for i := 0; i < r.sp.WarmCalls; i++ {
		calls = append(calls, st.next(batchUsers))
	}
	return calls
}

// sampleMachine times the reference kernels (calib.go); it is called at
// every phase boundary so the samples cover the run evenly.
func (r *runner) sampleMachine() {
	if err := r.mach.sample(); err != nil {
		r.rep.problem("machine calibration: %v", err)
	}
}

// atReferenceSpeed rescales the end-to-end times and the rate by the
// run's machine factor, keeping what was measured as raw.<name>.
func (r *runner) atReferenceSpeed() {
	res := r.rep.Res
	f := r.mach.factor()
	res.add("loadgen.machine_factor", "ratio", f)
	res.add("loadgen.ref_compute_ms", "ms", r.mach.compute...)
	res.add("loadgen.ref_echo_ms", "ms", r.mach.echo...)
	for _, name := range []string{"setup_s", "lat_p50_ms", "users_per_s", "cold_train_s", "cycle_s"} {
		m, ok := res.byName[name]
		if !ok {
			continue
		}
		k := 1 / f
		if name == "users_per_s" {
			k = f // a rate: a slower machine ranks fewer users a second
		}
		res.add("raw."+name, m.Unit, m.Samples...)
		for i := range m.Samples {
			m.Samples[i] *= k
		}
	}
}

// book adds a phase's attempts and failures to the report and returns it.
func (r *runner) book(p phase) phase {
	r.rep.Attempted += p.Attempted
	r.rep.Failed += p.Failed
	return p
}

// verify deep-checks a phase's kept responses against the oracle.
func (r *runner) verify(ep endpoint, p phase) {
	before := r.ck.Wrong
	r.ck.verify(ep, p.Kept)
	if n := r.ck.Wrong - before; n > 0 {
		r.rep.problem("%d served lists differ from the reference on %s", n, ep.URL)
		r.rep.Failed += n - 1
	}
}

// cacheCounters are the front tier's cache counters from /metrics.
type cacheCounters struct{ Hits, Misses, Coalesced float64 }

func (r *runner) cacheCounters(t *tier) cacheCounters {
	var m struct {
		Cache struct {
			Hits      float64 `json:"hits"`
			Misses    float64 `json:"misses"`
			Coalesced float64 `json:"coalesced"`
		} `json:"cache"`
	}
	if err := r.cl.getJSON(t.URL+"/metrics", &m); err != nil {
		r.rep.problem("reading /metrics: %v", err)
	}
	return cacheCounters{m.Cache.Hits, m.Cache.Misses, m.Cache.Coalesced}
}

func (c *cacheCounters) addDelta(before, after cacheCounters) {
	c.Hits += after.Hits - before.Hits
	c.Misses += after.Misses - before.Misses
	c.Coalesced += after.Coalesced - before.Coalesced
}

// run is the whole of one invocation. Every round samples every
// end-to-end metric, so each is a median over the run's length and not a
// snapshot of its first seconds:
//
//	set-up:    start a twin of the tier from the artifact, warm it up
//	latency:   open-loop single-user requests at the workload's rate
//	capacity:  closed-loop 32-user batches
//	training:  cold cycle, then twice {ingest a slice, warm cycle}, rolled
//	           out to a live server of the small catalogue
//
// On the serving workloads the trainer cycles run between the serving
// phases against a side server. On train_cycle the server they roll out
// to is the tier under test: a reader runs against it during the cycles,
// and the latency and capacity phases follow the last rollout.
func (r *runner) run() error {
	var err error
	if r.artifact, err = r.produce(r.in, "artifact"); err != nil {
		return err
	}
	r.smallArtifact = r.artifact
	if r.small != r.in {
		if r.smallArtifact, err = r.produce(r.small, "artifact-small"); err != nil {
			return err
		}
	}
	rounds := r.prof.Rounds
	if r.opt.Traced {
		rounds = r.prof.TracedRounds
	}
	// The serving phases take the run's seconds; set-up and training are
	// fixed work on top.
	phaseDur := time.Duration(r.opt.Seconds / float64(2*rounds) * float64(time.Second))
	gc0 := readGC()
	lastModel := r.artifact
	if r.sp.Train {
		lastModel, err = r.trainRounds(rounds, phaseDur)
	} else {
		err = r.serveRounds(rounds, phaseDur)
	}
	if err != nil {
		return err
	}
	gc := readGC().since(gc0)
	r.atReferenceSpeed()

	recall, mapAt, err := r.in.evaluate(lastModel)
	if err != nil {
		return err
	}
	r.rep.Res.add("recall_at_20", "ratio", recall)

	lookups := r.hit.Hits + r.hit.Misses + r.hit.Coalesced
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = r.hit.Hits / lookups
	}
	if hitRatio < r.sp.HitMin || hitRatio > r.sp.HitMax {
		r.rep.problem("cache hit ratio %.4f outside [%.2f, %.2f]: the workload did not exercise what it claims",
			hitRatio, r.sp.HitMin, r.sp.HitMax)
	}
	if r.ck.Degraded > 0 {
		r.rep.problem("%d degraded merges", r.ck.Degraded)
	}
	if r.ck.Checked == 0 {
		r.rep.problem("no served list was deep-checked")
	}
	fmt.Fprintf(r.opt.Log, "%s seed=%d: %d calls, %d failed, %d lists deep-checked (%d wrong), hit ratio %.4f\n",
		r.sp.Name, r.opt.Seed, r.rep.Attempted, r.rep.Failed, r.ck.Checked, r.ck.Wrong, hitRatio)

	if r.opt.Traced {
		return r.traced(lastModel, gc, hitRatio, lookups, mapAt)
	}
	return nil
}

// useOracle points the deep check at the artifact a tier now serves.
func (r *runner) useOracle(modelPath string) error {
	o, err := r.in.openOracle(modelPath)
	if err != nil {
		return err
	}
	if r.ck.o != nil {
		r.ck.o.close()
	}
	r.ck.o = o
	return nil
}

// serveRounds: the tier under test is set up once and serves every
// round; each round also sets up and discards a twin (setup_s) and runs
// the trainer cycles against a side server of the small catalogue.
func (r *runner) serveRounds(rounds int, phaseDur time.Duration) error {
	st := r.stream(1)
	t, modelPath, err := r.setUp(0, st)
	if err != nil {
		return err
	}
	defer t.close()
	if err := r.useOracle(modelPath); err != nil {
		return err
	}
	defer func() { r.ck.o.close() }()
	sep, bep := r.singleEP(t), r.batchEP(t)
	for n := 0; n < rounds; n++ {
		if n > 0 {
			twin, _, err := r.setUp(n, r.stream(uint64(1000+n)))
			if err != nil {
				return err
			}
			twin.close()
		}
		h0 := r.cacheCounters(t)
		r.sampleMachine()
		lp := r.book(openLoop(r.cl, sep, st, r.sp.Rate, phaseDur, r.conns, nil))
		r.sampleMachine()
		cp := r.book(closedLoop(r.cl, bep, st, phaseDur, r.conns))
		r.sampleMachine()
		r.hit.addDelta(h0, r.cacheCounters(t))
		r.latency(lp)
		r.capacity(cp)
		r.verify(sep, lp)
		r.verify(bep, cp)

		side, sideModel, sideFeed, err := r.startSmall(n)
		if err != nil {
			return err
		}
		err = r.trainCycles(side, sideModel, sideFeed)
		r.sampleMachine()
		side.close()
		if err != nil {
			return err
		}
		_ = os.RemoveAll(filepath.Dir(sideModel))
	}
	return nil
}

// startSmall starts a single server of the small catalogue on a copy of
// its artifact: the live server a round's trainer cycles roll out to.
func (r *runner) startSmall(n int) (t *tier, modelPath, feedDir string, err error) {
	dir := filepath.Join(r.opt.WorkDir, fmt.Sprintf("round-%d", n))
	modelPath, feedDir = filepath.Join(dir, "model.bin"), filepath.Join(dir, "feed")
	if err = copyFile(r.smallArtifact, modelPath); err != nil {
		return nil, "", "", err
	}
	t, err = r.small.startSingle(modelPath, feedDir)
	return t, modelPath, feedDir, err
}

func (r *runner) latency(lp phase) {
	if len(lp.LatNs) == 0 {
		r.rep.problem("latency phase sent nothing")
		return
	}
	s := sortedCopy(durs(lp.LatNs, 1e6))
	r.rep.Res.add("lat_p50_ms", "ms", quantile(s, 0.50))
	// p95 could not hold a bound on the defining machine (a host stall of
	// a few milliseconds moves it 2×), so it is a per-layer row, as measured.
	r.rep.Res.add("tier.lat_p95_ms", "ms", quantile(s, 0.95))
	r.lat = append(r.lat, lp.LatNs...)
	r.late = append(r.late, lp.LateNs...)
}

func (r *runner) capacity(cp phase) {
	if cp.Users == 0 {
		r.rep.problem("capacity phase ranked nobody")
		return
	}
	r.rep.Res.add("users_per_s", "1/s", float64(cp.Users)/cp.Elapsed.Seconds())
	r.rep.Res.add("alloc_kb_per_user", "KB", float64(cp.AllocB)/1024/float64(cp.Users))
}

// trainRounds: every round starts a fresh server on a copy of the
// artifact and runs the trainer cycles against it while a fixed-rate
// reader keeps asking it for recommendations; once the last rollout has
// landed the reader stops and the latency and capacity phases measure
// the freshly rolled-out server. It returns the last artifact's path.
func (r *runner) trainRounds(rounds int, phaseDur time.Duration) (string, error) {
	last := r.artifact
	defer func() {
		if r.ck.o != nil {
			r.ck.o.close()
		}
	}()
	for n := 0; n < rounds; n++ {
		twin, _, err := r.setUp(n, r.stream(uint64(1000+n)))
		if err != nil {
			return "", err
		}
		twin.close()
		r.sampleMachine()

		t, modelPath, feedDir, err := r.startSmall(n)
		if err != nil {
			return "", err
		}
		h0 := r.cacheCounters(t)
		var stop atomic.Bool
		var reader phase
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			reader = openLoop(r.cl, r.singleEP(t), r.stream(uint64(2000+n)), readerRate, time.Hour, r.conns, &stop)
		}()
		err = r.trainCycles(t, modelPath, feedDir)
		stop.Store(true)
		wg.Wait()
		if err != nil {
			t.close()
			return "", err
		}
		r.book(reader)
		r.reader = append(r.reader, reader.LatNs...)

		// The model changed under the reader, so only what follows the
		// last rollout — served by the final artifact alone — is
		// deep-checked.
		if err := r.useOracle(modelPath); err != nil {
			t.close()
			return "", err
		}
		st := r.stream(uint64(3000 + n))
		sep, bep := r.singleEP(t), r.batchEP(t)
		r.sampleMachine()
		lp := r.book(openLoop(r.cl, sep, st, r.sp.Rate, phaseDur, r.conns, nil))
		r.sampleMachine()
		cp := r.book(closedLoop(r.cl, bep, st, phaseDur, r.conns))
		r.sampleMachine()
		r.hit.addDelta(h0, r.cacheCounters(t))
		r.latency(lp)
		r.capacity(cp)
		r.verify(sep, lp)
		r.verify(bep, cp)
		t.close()
		if last != r.artifact {
			_ = os.RemoveAll(filepath.Dir(last))
		}
		last = modelPath
	}
	return last, nil
}

// trainCycles is the trainer's side of a round, against the live server
// t of the small catalogue: remove the model file so the trainer finds
// none and trains cold (cold_train_s), then for each ingest slice post it
// to /v1/ingest and run a warm cycle — replay, warm-start train, save,
// rollout with version handshake, cache warm (cycle_s).
func (r *runner) trainCycles(t *tier, modelPath, feedDir string) error {
	res := r.rep.Res
	if err := os.Remove(modelPath); err != nil {
		return err
	}
	tr, err := r.small.newTrainer(modelPath, feedDir, t.target())
	if err != nil {
		return err
	}
	cold, err := tr.runOnce()
	if err != nil {
		return fmt.Errorf("cold cycle: %w", err)
	}
	r.cold = append(r.cold, cold)
	r.checkCycle(cold, false, 1)
	res.add("cold_train_s", "s", cold.Total.Seconds())
	version := cold.Version
	var warmTotal time.Duration
	for _, slice := range r.small.Slices {
		if err := t.ingest(r.cl.hc, slice); err != nil {
			return err
		}
		warm, err := tr.runOnce()
		if err != nil {
			return fmt.Errorf("warm cycle: %w", err)
		}
		r.warm = append(r.warm, warm)
		r.checkCycle(warm, true, version)
		version = warm.Version
		warmTotal += warm.Total
	}
	// The two warm cycles differ by design (the second starts nearer its
	// optimum); their mean is one sample, so the median over rounds does
	// not flip between two populations.
	res.add("cycle_s", "s", warmTotal.Seconds()/float64(len(r.small.Slices)))
	return nil
}

func copyFile(src, dst string) error {
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// gcStats are the runtime's own counters over a stretch of the run.
type gcStats struct {
	PauseNs uint64
	Cycles  uint32
	HeapSys uint64
}

func readGC() gcStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcStats{PauseNs: m.PauseTotalNs, Cycles: m.NumGC, HeapSys: m.HeapSys}
}

func (g gcStats) since(g0 gcStats) gcStats {
	return gcStats{PauseNs: g.PauseNs - g0.PauseNs, Cycles: g.Cycles - g0.Cycles, HeapSys: g.HeapSys}
}
