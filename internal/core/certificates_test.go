package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/parallel"
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

// auditCounts is the soundness hook: how many candidates the certificates
// rejected, and how many of those the full evaluation would have accepted.
type auditCounts struct{ certified, wrong atomic.Int64 }

func (a *auditCounts) hook(acceptable bool) {
	a.certified.Add(1)
	if acceptable {
		a.wrong.Add(1)
	}
}

// TestCertificatesAreSound evaluates in full every candidate a certificate
// rejects — on the grid's small matrix and on the denser synthetic preset,
// where line searches overshoot most — and requires that none of them
// passes the Armijo test. It also requires that certificates fired at all,
// so the bit-identity test above is not comparing a path with itself.
func TestCertificatesAreSound(t *testing.T) {
	small := smallMatrix(116, 50, 40, 320)
	preset := dataset.SyntheticSmall(1).R
	for _, tc := range []struct {
		name string
		m    *sparse.Matrix
		cfg  Config
	}{
		{"small", small, Config{K: 16, Lambda: 1.5, MaxIter: 12, Tol: 1e-12, Seed: 7}},
		{"small/lambda=0", small, Config{K: 4, MaxIter: 12, Tol: 1e-12, Seed: 7, Workers: 4}},
		{"small/relative+bias+steps", small, Config{K: 4, Lambda: 1.5, MaxIter: 12, Tol: 1e-12, Seed: 7,
			Relative: true, Bias: true, GradSteps: 3}},
		{"preset", preset, Config{K: 10, Lambda: 5, MaxIter: 15, Seed: 1}},
		{"preset/relative", preset, Config{K: 10, Lambda: 5, MaxIter: 15, Seed: 1, Relative: true, Workers: 4}},
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
			if a.certified.Load() == 0 {
				t.Fatal("no candidate was certified: the test exercised nothing")
			}
			if w := a.wrong.Load(); w != 0 {
				t.Fatalf("%d of %d certified candidates pass the Armijo test", w, a.certified.Load())
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
func (c armijoCase) update(exhaustive bool, audit func(bool)) []float64 {
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
	side := sideCtx{pos: pos, others: c.g, wScalar: c.weight}
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
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := decodeArmijoCase(data)
		if !ok {
			return
		}
		var a auditCounts
		sameBits(t, "factor", c.update(false, a.hook), c.update(true, nil))
		if w := a.wrong.Load(); w != 0 {
			t.Fatalf("%d of %d certified candidates pass the Armijo test", w, a.certified.Load())
		}
	})
}
