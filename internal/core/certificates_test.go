package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/sparse"
)

// sameBits fails the test unless a and b are equal element for element in
// math.Float64bits.
func sameBits(t *testing.T, what string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: lengths %d and %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s[%d]: %v and %v", what, i, a[i], b[i])
		}
	}
}

// certificatesChangeNoBit trains m twice, with the line-search certificates
// and with every candidate evaluated in full, and requires the same model in
// bits and the same objective trace up to the stationary shortcut's
// rounding-noise difference (it returns qOld where the full evaluation
// returns a recomputation of it). It returns the certified model.
func certificatesChangeNoBit(t *testing.T, m *sparse.Matrix, cfg Config) *Model {
	t.Helper()
	cfg.exhaustive = false
	with, err := Train(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.exhaustive = true
	without, err := Train(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "fu", with.Model.fu, without.Model.fu)
	sameBits(t, "fi", with.Model.fi, without.Model.fi)
	sameBits(t, "bu", with.Model.bu, without.Model.bu)
	sameBits(t, "bi", with.Model.bi, without.Model.bi)
	if len(with.Objective) != len(without.Objective) {
		t.Fatalf("trace lengths differ: %d with certificates, %d without",
			len(with.Objective), len(without.Objective))
	}
	for i, q := range with.Objective {
		if ref := without.Objective[i]; math.Abs(q-ref) > 1e-12*(1+math.Abs(ref)) {
			t.Fatalf("iter %d: objective %v with certificates, %v without", i, q, ref)
		}
	}
	return with.Model
}

// TestCertificatesChangeNoBit is the contract of the exp-free Armijo
// certificates (kernels.go): they decide which candidates are evaluated,
// never what an evaluated candidate is worth, so a training with them and
// one without end in the same factors and biases bit for bit — over the
// kernel-equivalence grid and through FoldInUser, then without
// regularization and from the warm start that leaves behind.
func TestCertificatesChangeNoBit(t *testing.T) {
	withProcs(t, 4)
	m := func(k int) *sparse.Matrix { return smallMatrix(uint64(100+k), 50, 40, 320) }
	for _, k := range []int{1, 4, 16} {
		for _, relative := range []bool{false, true} {
			for _, bias := range []bool{false, true} {
				for _, workers := range []int{1, 4, 0} {
					for _, steps := range []int{1, 3} {
						name := fmt.Sprintf("K=%d/relative=%v/bias=%v/workers=%d/steps=%d",
							k, relative, bias, workers, steps)
						t.Run(name, func(t *testing.T) {
							cfg := Config{
								K: k, Lambda: 1.5, MaxIter: 12, Tol: 1e-12, Seed: 7,
								Relative: relative, Bias: bias, Workers: workers, GradSteps: steps,
							}
							model := certificatesChangeNoBit(t, m(k), cfg)

							cfg.MaxIter = 40
							items := []int{3, 17, 17, 29, 5}
							f, b, err := model.FoldInUser(items, cfg)
							if err != nil {
								t.Fatal(err)
							}
							cfg.exhaustive = true
							fx, bx, err := model.FoldInUser(items, cfg)
							if err != nil {
								t.Fatal(err)
							}
							sameBits(t, "fold-in factor", f, fx)
							sameBits(t, "fold-in bias", []float64{b}, []float64{bx})
						})
					}
				}
			}
		}
	}
	for _, relative := range []bool{false, true} {
		for _, bias := range []bool{false, true} {
			t.Run(fmt.Sprintf("lambda=0+warm/relative=%v/bias=%v", relative, bias), func(t *testing.T) {
				cfg := Config{K: 4, MaxIter: 12, Tol: 1e-12, Seed: 7, Relative: relative, Bias: bias}
				cold := certificatesChangeNoBit(t, m(4), cfg)
				cfg.WarmStart, cfg.Seed, cfg.Lambda = cold, 8, 1.5
				certificatesChangeNoBit(t, m(4), cfg)
			})
		}
	}
}

// auditCounts is the soundness hook and the line search's work counter:
// how often each auditEvent happened, how many of the candidates the
// certificates rejected the full evaluation would have accepted, the
// exponentials pass 2 spent and the coordinate products the fused kernels
// took.
type auditCounts struct {
	events                [auditProducts]atomic.Int64
	wrong, exps, products atomic.Int64
}

func (a *auditCounts) hook(ev auditEvent, n int, acceptable bool) {
	if ev == auditProducts {
		a.products.Add(int64(n))
		return
	}
	a.events[ev].Add(1)
	if ev == auditEvaluated {
		a.exps.Add(int64(n))
	}
	if acceptable {
		a.wrong.Add(1)
	}
}

// certified is how many candidates a certificate rejected.
func (a *auditCounts) certified() int64 {
	return a.events[auditSkipped].Load() + a.events[auditClosed].Load() + a.events[auditAbandoned].Load()
}

// TestCertificatesAreSound evaluates in full every candidate a certificate
// rejects — on the grid's small matrix and on the denser synthetic preset,
// where line searches overshoot most — and requires that none of them
// passes the Armijo test. It also requires that certificates fired at all,
// so the bit-identity test above is not comparing a path with itself.
//
// The planted catalogue, a small one of the benchmark's kind, leaves rows at
// zero that hold positives, so its line searches also take halvings in
// closed form; there both the closed form and pass 1's Padé abandonment
// must have fired, each audited like the rest.
func TestCertificatesAreSound(t *testing.T) {
	small := smallMatrix(116, 50, 40, 320)
	preset := dataset.SyntheticSmall(1).R
	planted, err := dataset.GeneratePlanted(dataset.PlantedConfig{
		Name: "planted", Users: 400, Items: 600, Clusters: 8,
		MinClusterUsers: 30, MaxClusterUsers: 60, MinClusterItems: 10, MaxClusterItems: 20,
		WithinProb: 0.4, NoisePositives: 800, PopularitySkew: 1.0,
	}, rng.New(47))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		m     *sparse.Matrix
		cfg   Config
		fired []auditEvent
	}{
		{"small", small, Config{K: 16, Lambda: 1.5, MaxIter: 12, Tol: 1e-12, Seed: 7}, nil},
		{"small/lambda=0", small, Config{K: 4, MaxIter: 12, Tol: 1e-12, Seed: 7, Workers: 4}, nil},
		{"small/relative+bias+steps", small, Config{K: 4, Lambda: 1.5, MaxIter: 12, Tol: 1e-12, Seed: 7,
			Relative: true, Bias: true, GradSteps: 3}, nil},
		{"preset", preset, Config{K: 10, Lambda: 5, MaxIter: 15, Seed: 1}, nil},
		{"preset/relative", preset, Config{K: 10, Lambda: 5, MaxIter: 15, Seed: 1, Relative: true, Workers: 4}, nil},
		{"planted", planted.R, Config{K: 8, Lambda: 5, MaxIter: 15, Seed: 47},
			[]auditEvent{auditClosed, auditAbandoned}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var a auditCounts
			tc.cfg.audit = a.hook
			res, err := Train(tc.m, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := res.Model.FoldInUser([]int{1, 2, 3, 5, 8, 13}, tc.cfg); err != nil {
				t.Fatal(err)
			}
			if a.certified() == 0 {
				t.Fatal("no candidate was certified: the test exercised nothing")
			}
			if w := a.wrong.Load(); w != 0 {
				t.Fatalf("%d of %d certified candidates pass the Armijo test", w, a.certified())
			}
			for _, ev := range tc.fired {
				if a.events[ev].Load() == 0 {
					t.Errorf("no candidate was decided as event %d", ev)
				}
			}
		})
	}
}

// armijoCase is one factor subproblem as FuzzArmijoCertificate sees it.
type armijoCase struct {
	lambda, weight, bias float64
	perRowWeights        bool      // R-OCuLaR item sweep: no prefix certificate
	f, extra             []float64 // length K; Σ = Σ_j g_j + extra
	g                    []float64 // rows of length K
}

// fuzzMaxValue bounds the magnitudes the fuzzer feeds the kernel to what a
// trained model reaches; the margin of the certificates is relative to the
// subproblem's own scale, not to arbitrary cancellation between 1e300s.
const fuzzMaxValue = 1e3

func (c armijoCase) encode() []byte {
	flags := byte(0)
	if c.perRowWeights {
		flags = 1
	}
	out := []byte{byte(len(c.f) - 1), flags}
	for _, vs := range [][]float64{{c.lambda, c.weight, c.bias}, c.f, c.extra, c.g} {
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

func decodeArmijoCase(data []byte) (c armijoCase, ok bool) {
	if len(data) < 2 {
		return c, false
	}
	k := 1 + int(data[0])%8
	c.perRowWeights = data[1]&1 == 1
	var vals []float64
	for rest := data[2:]; len(rest) >= 8; rest = rest[8:] {
		v := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(rest)))
		if !(v <= fuzzMaxValue) {
			v = math.Mod(v, fuzzMaxValue)
		}
		if v != v {
			v = 0
		}
		vals = append(vals, v)
	}
	if len(vals) < 3+3*k {
		return c, false
	}
	c.lambda, c.weight, c.bias = vals[0], vals[1], vals[2]
	c.f, c.extra = vals[3:3+k], vals[3+k:3+2*k]
	rows := min((len(vals)-3-2*k)/k, 12)
	c.g = vals[3+2*k : 3+2*k+rows*k]
	return c, true
}

// update runs one updateFactorFused on a copy of the case's factor.
func (c armijoCase) update(exhaustive bool, audit func(auditEvent, int, bool)) []float64 {
	k := len(c.f)
	rows := len(c.g) / k
	sum := append([]float64(nil), c.extra...)
	pos := make([]int32, rows)
	weights := make([]float64, rows)
	for j := range pos {
		pos[j] = int32(j)
		weights[j] = c.weight * float64(1+j%3)
		for col := 0; col < k; col++ {
			sum[col] += c.g[j*k+col]
		}
	}
	tr := &trainer{
		cfg: Config{K: k, Lambda: c.lambda, exhaustive: exhaustive, audit: audit}.withDefaults(),
		sum: sum,
	}
	side := &sideCtx{pos: pos, others: c.g, masks: rowMasks(c.g, k), wScalar: c.weight}
	if c.perRowWeights {
		side.wTable = weights
	}
	if c.bias > 0 {
		side.selfBias, side.otherBias = c.bias, make([]float64, rows)
	}
	f := append([]float64(nil), c.f...)
	tr.updateFactorFused(f, side, &parallel.Scratch{})
	return f
}

// FuzzArmijoCertificate drives one fused factor update from arbitrary bytes
// (K, λ, weight, bias, the factor, the fixed block's sum and a handful of
// non-negative counterpart rows), once with the soundness hook on and once
// with the certificates off: the factor left behind must be the same in
// bits, and no candidate a certificate rejected may pass the Armijo test
// when evaluated in full. The seeds are rows of the models the property
// tests train, cold and after training.
func FuzzArmijoCertificate(f *testing.F) {
	m := smallMatrix(104, 50, 40, 320)
	for _, iters := range []int{1, 12} {
		res, err := Train(m, Config{K: 4, Lambda: 1.5, MaxIter: iters, Tol: 1e-12, Seed: 7})
		if err != nil {
			f.Fatal(err)
		}
		k, mod := 4, res.Model
		sum := make([]float64, k)
		parallel.SumVectors(sum, mod.fi, k, 1)
		for u := 0; u < 6; u++ {
			c := armijoCase{lambda: 1.5, weight: 1, perRowWeights: u%2 == 1,
				f: mod.fu[u*k : (u+1)*k], extra: append([]float64(nil), sum...)}
			for _, i := range m.Row(u) {
				row := mod.fi[int(i)*k : (int(i)+1)*k]
				c.g = append(c.g, row...)
				for col := range row {
					c.extra[col] = math.Max(0, c.extra[col]-row[col])
				}
			}
			f.Add(c.encode())
		}
	}
	// A zero factor against non-zero counterpart rows: every positive is
	// floored at minDot, and the halvings are certified in closed form.
	f.Add(armijoCase{lambda: 5, weight: 1, f: make([]float64, 4), extra: []float64{3, 1, 0, 2},
		g: []float64{0.2, 0.1, 0, 0.3, 0.4, 0, 0.1, 0.2, 0, 0.3, 0.2, 0.1}}.encode())
	// Ten positives every candidate saturates (z > 4.65, bound 1) before
	// two that the step clamps to minDot: pass 1 runs past ten factors of 1
	// and abandons the candidates at the last positive.
	late := armijoCase{weight: 1, f: []float64{3, 3, 0.05, 0.05}, extra: []float64{1, 1, 200, 200}}
	for j := 0; j < 12; j++ {
		row := []float64{4, 4, 0, 0}
		if j >= 10 {
			row = []float64{0, 0, 0.02, 0.01}
		}
		late.g = append(late.g, row...)
	}
	f.Add(late.encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := decodeArmijoCase(data)
		if !ok {
			return
		}
		var a auditCounts
		sameBits(t, "factor", c.update(false, a.hook), c.update(true, nil))
		if w := a.wrong.Load(); w != 0 {
			t.Fatalf("%d of %d certified candidates pass the Armijo test", w, a.certified())
		}
	})
}

// TestPadeBoundHolds holds pass 1's per-positive bound, as padeBound
// computes it with its slack, to what pass 2 computes, 1 − math.Exp(−z):
// on a dense log grid over [minDot, 40] and ulp by ulp across the point
// where it saturates at 1, n ≥ u·d exactly (math.FMA rounds n − u·d once,
// so its sign is the exact one). It also holds the bound to its [3/3]
// tightness: within 1e-2 of u wherever it is below 1, and below 1 up to
// z = 4.64 and no further than 4.65, so a bound that is sound but says 1
// too early fails too.
func TestPadeBoundHolds(t *testing.T) {
	check := func(z float64) {
		t.Helper()
		n, d := padeBound(z)
		u := 1 - math.Exp(-clampDot(z))
		switch {
		case !(n < d) && z < 4.64:
			t.Fatalf("z=%v: the bound says 1 already", z)
		case !(n < d):
		case z > 4.65:
			t.Fatalf("z=%v: the bound %v is still below 1", z, n/d)
		case math.FMA(-u, d, n) < 0:
			t.Fatalf("z=%v: bound %v/%v below pass 2's 1 − Exp(−z) = %v", z, n, d, u)
		case n/d-u > 1e-2:
			t.Fatalf("z=%v: bound %v is loose against %v", z, n/d, u)
		}
	}
	for i := 0; ; i++ {
		z := minDot * math.Pow(10, float64(i)/20000)
		if z > 40 {
			break
		}
		check(z)
	}
	lo, hi := 4.6, 4.7 // the bound is 1 at hi and below it at lo
	for range 100 {
		if mid := (lo + hi) / 2; func() bool { n, d := padeBound(mid); return n < d }() {
			lo = mid
		} else {
			hi = mid
		}
	}
	for z, i := lo, 0; i < 20000; i++ {
		check(z)
		check(2*lo - z)
		z = math.Nextafter(z, 5)
	}
}

// TestExpBelowHolds holds pass 1's threshold, expBelow, under what it
// stands in for, math.Exp(−x): on a dense grid of [0, 745], on every point
// where the exponent split changes its n (x = (n + ½)·ln 2) and an ulp to
// each side, and past the range it serves, where it must say 0. It also
// holds the slack to a few ulps — within 24ε of math.Exp up to x = 700,
// relative — so a bound that is sound but loose fails too, and the
// certificates it feeds keep their work (TestLineSearchWorkBudget).
func TestExpBelowHolds(t *testing.T) {
	const eps = 0x1p-53
	check := func(x float64) {
		t.Helper()
		got, want := expBelow(x), math.Exp(-x)
		switch {
		case got > want:
			t.Fatalf("x=%v: expBelow %v above math.Exp(−x) = %v", x, got, want)
		case x <= 700 && got < want*(1-24*eps):
			t.Fatalf("x=%v: expBelow %v is %.1fε below math.Exp(−x) = %v", x, got, (want-got)/want/eps, want)
		}
	}
	for i := 0; i <= 3_000_000; i++ {
		check(745 * float64(i) / 3_000_000)
	}
	for n := 0; n <= 1021; n++ {
		x := (float64(n) + 0.5) * math.Ln2
		check(math.Nextafter(x, 0))
		check(x)
		check(math.Nextafter(x, 800))
	}
	for _, x := range []float64{0, math.Copysign(0, -1), 0x1p-1074, 1e-300, 708} {
		check(x)
	}
	for _, x := range []float64{math.Nextafter(708, 800), 745, 1e10, math.Inf(1), math.NaN(), -1, math.Inf(-1)} {
		if got := expBelow(x); got != 0 {
			t.Errorf("x=%v: expBelow %v, want 0", x, got)
		}
	}
}

// TestLineSearchWorkBudget holds the certificates to the work they save,
// since they change no bit a test can see: training the benchmark's
// catalogue serially, cold and then warm from that model, the line search
// may spend no more pass-2 exponentials and build no more candidates
// coordinate by coordinate than it did when these budgets were recorded —
// a certificate that silently stops firing fails here. The same holds for
// the coordinate products the fused kernels take (kernels.go point 6, the
// audit's own evaluations not counted), so a loop that slips back from a
// factor's support to all K coordinates fails too. The numbers are of
// the amd64 build, which fuses no multiply-add; another architecture may
// fuse, train an equally valid but different trajectory and count
// differently, so the test runs on amd64 alone. The counts do not depend
// on the race detector, which makes the two trainings take ten times as
// long; CI's allocation budgets step runs the test by name without it.
func TestLineSearchWorkBudget(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("budgets recorded on amd64")
	}
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		t.Skip("run without -race, in CI's allocation budgets step")
	}
	base, seen, cfg := benchCatalogue(t)
	cfg.Workers = 1
	var cold, warm auditCounts
	cfg.audit = cold.hook
	res, err := Train(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.audit, cfg.WarmStart = warm.hook, res.Model
	if _, err := Train(seen, cfg); err != nil {
		t.Fatal(err)
	}
	for _, b := range []struct {
		name                   string
		a                      *auditCounts
		exps, builds, products int64
	}{
		// Before the Padé bound and the closed form: 2,548,216 and 760,665;
		// 66,030,162 products before the loops ran over the support.
		{"cold", &cold, 878_020, 420_698, 22_879_981},
		// Before: 2,580,584 and 366,188 (no zero row reaches a halving),
		// and 46,124,434 products.
		{"warm", &warm, 681_376, 366_188, 13_989_732},
	} {
		exps, builds, products := b.a.exps.Load(), b.a.events[auditBuilt].Load(), b.a.products.Load()
		t.Logf("%s: %d pass-2 exponentials, %d candidates built, %d coordinate products", b.name, exps, builds, products)
		if exps > b.exps || builds > b.builds || products > b.products {
			t.Errorf("%s: %d pass-2 exponentials, %d candidates built and %d coordinate products, budgets %d, %d and %d",
				b.name, exps, builds, products, b.exps, b.builds, b.products)
		}
		if w := b.a.wrong.Load(); w != 0 {
			t.Errorf("%s: %d certified candidates pass the Armijo test", b.name, w)
		}
	}
}
