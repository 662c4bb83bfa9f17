package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/sparse"
)

func smallMatrix(seed uint64, users, items, n int) *sparse.Matrix {
	r := rng.New(seed)
	b := sparse.NewBuilder(users, items)
	for k := 0; k < n; k++ {
		b.Add(r.Intn(users), r.Intn(items))
	}
	return b.Build()
}

func TestConfigValidation(t *testing.T) {
	m := smallMatrix(1, 5, 5, 10)
	bad := []Config{
		{K: 0},
		{K: 3, Lambda: -1},
	}
	for i, cfg := range bad {
		if _, err := Train(m, cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
}

func TestObjectiveMatchesNaive(t *testing.T) {
	// Full objective (with sum trick inside) must equal the O(nu·ni·K)
	// textbook evaluation of eq. (4).
	for _, relative := range []bool{false, true} {
		m := smallMatrix(2, 8, 6, 15)
		res, err := Train(m, Config{K: 3, Lambda: 0.5, MaxIter: 3, Seed: 1, Relative: relative})
		if err != nil {
			t.Fatal(err)
		}
		mod := res.Model
		lambda := 0.5
		naive := 0.0
		w := userWeights(m, relative)
		for u := 0; u < m.Rows(); u++ {
			wu := 1.0
			if w != nil {
				wu = w[u]
			}
			for i := 0; i < m.Cols(); i++ {
				d := linalg.Dot(mod.UserFactor(u), mod.ItemFactor(i))
				if m.Has(u, i) {
					naive -= wu * math.Log(1-math.Exp(-clampDot(d)))
				} else {
					naive += d
				}
			}
		}
		for u := 0; u < m.Rows(); u++ {
			naive += lambda * linalg.Norm2Sq(mod.UserFactor(u))
		}
		for i := 0; i < m.Cols(); i++ {
			naive += lambda * linalg.Norm2Sq(mod.ItemFactor(i))
		}
		got := mod.Objective(m, lambda, relative)
		if math.Abs(got-naive) > 1e-8*(1+math.Abs(naive)) {
			t.Fatalf("relative=%v: Objective=%v naive=%v", relative, got, naive)
		}
	}
}

func TestGradientMatchesFiniteDifference(t *testing.T) {
	m := smallMatrix(3, 10, 8, 25)
	cfg := Config{K: 4, Lambda: 0.3, Seed: 7}.withDefaults()
	tr := newTrainer(m, cfg)
	parallel.SumVectors(tr.sum, tr.m.fu, cfg.K, 1)

	for _, item := range []int{0, 3, 7} {
		f := append([]float64(nil), tr.m.fi[item*cfg.K:(item+1)*cfg.K]...)
		// Keep factors away from the clamp kink so the finite difference is
		// valid.
		for c := range f {
			f[c] += 0.3
		}
		pos := tr.rt.Row(item)
		grad := make([]float64, cfg.K)
		tr.gradient(grad, f, &sideCtx{pos: pos, others: tr.m.fu, wScalar: 1})
		const h = 1e-6
		for c := 0; c < cfg.K; c++ {
			fp := append([]float64(nil), f...)
			fm := append([]float64(nil), f...)
			fp[c] += h
			fm[c] -= h
			num := (tr.partialObjective(fp, &sideCtx{pos: pos, others: tr.m.fu, wScalar: 1}) -
				tr.partialObjective(fm, &sideCtx{pos: pos, others: tr.m.fu, wScalar: 1})) / (2 * h)
			if math.Abs(num-grad[c]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("item %d coord %d: analytic %v, numeric %v", item, c, grad[c], num)
			}
		}
	}
}

func TestGradientWithWeightsMatchesFiniteDifference(t *testing.T) {
	m := smallMatrix(5, 10, 8, 25)
	cfg := Config{K: 3, Lambda: 0.2, Seed: 9, Relative: true}.withDefaults()
	tr := newTrainer(m, cfg)
	parallel.SumVectors(tr.sum, tr.m.fu, cfg.K, 1)

	item := 2
	f := append([]float64(nil), tr.m.fi[item*cfg.K:(item+1)*cfg.K]...)
	for c := range f {
		f[c] += 0.25
	}
	pos := tr.rt.Row(item)
	grad := make([]float64, cfg.K)
	tr.gradient(grad, f, &sideCtx{pos: pos, others: tr.m.fu, wTable: tr.weights, wScalar: 1})
	const h = 1e-6
	for c := 0; c < cfg.K; c++ {
		fp := append([]float64(nil), f...)
		fm := append([]float64(nil), f...)
		fp[c] += h
		fm[c] -= h
		num := (tr.partialObjective(fp, &sideCtx{pos: pos, others: tr.m.fu, wTable: tr.weights, wScalar: 1}) -
			tr.partialObjective(fm, &sideCtx{pos: pos, others: tr.m.fu, wTable: tr.weights, wScalar: 1})) / (2 * h)
		if math.Abs(num-grad[c]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("coord %d: analytic %v, numeric %v", c, grad[c], num)
		}
	}
}

func TestObjectiveMonotoneDecreasing(t *testing.T) {
	for _, relative := range []bool{false, true} {
		m := smallMatrix(4, 40, 30, 200)
		res, err := Train(m, Config{K: 5, Lambda: 1, MaxIter: 30, Seed: 3, Relative: relative})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(res.Objective); i++ {
			if res.Objective[i] > res.Objective[i-1]+1e-9*math.Abs(res.Objective[i-1]) {
				t.Fatalf("relative=%v: objective increased at iter %d: %v -> %v",
					relative, i, res.Objective[i-1], res.Objective[i])
			}
		}
	}
}

func TestFactorsNonNegative(t *testing.T) {
	m := smallMatrix(5, 30, 20, 150)
	res, err := Train(m, Config{K: 4, Lambda: 2, MaxIter: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Model.fu {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("negative or NaN user factor %v", v)
		}
	}
	for _, v := range res.Model.fi {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("negative or NaN item factor %v", v)
		}
	}
}

func TestDeterministicTraining(t *testing.T) {
	m := smallMatrix(6, 25, 20, 120)
	cfg := Config{K: 4, Lambda: 1, MaxIter: 10, Seed: 11}
	a, err := Train(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Train(m, cfg)
	for i := range a.Model.fu {
		if a.Model.fu[i] != b.Model.fu[i] {
			t.Fatal("same seed produced different user factors")
		}
	}
	cfg.Seed = 12
	c, _ := Train(m, cfg)
	diff := false
	for i := range a.Model.fu {
		if a.Model.fu[i] != c.Model.fu[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical factors")
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	m := smallMatrix(7, 60, 40, 400)
	serial, err := Train(m, Config{K: 6, Lambda: 1, MaxIter: 8, Seed: 13, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Train(m, Config{K: 6, Lambda: 1, MaxIter: 8, Seed: 13, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.Model.fu {
		if serial.Model.fu[i] != par.Model.fu[i] {
			t.Fatalf("user factor %d differs between serial and parallel", i)
		}
	}
	for i := range serial.Model.fi {
		if serial.Model.fi[i] != par.Model.fi[i] {
			t.Fatalf("item factor %d differs between serial and parallel", i)
		}
	}
}

func TestPaperToyRecovery(t *testing.T) {
	// The headline qualitative claim (Figures 1 and 3): trained on the toy
	// with K=3, OCuLaR's top recommendation for each affected user is the
	// withheld in-cluster pair, with substantial probability.
	toy := dataset.PaperToy()
	res, err := Train(toy.R, Config{K: 3, Lambda: 0.1, MaxIter: 300, Tol: 1e-7, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	mod := res.Model
	for _, h := range toy.Held {
		u, want := h[0], h[1]
		best, bestP := -1, -1.0
		for i := 0; i < toy.Items(); i++ {
			if toy.R.Has(u, i) {
				continue
			}
			if p := mod.Predict(u, i); p > bestP {
				best, bestP = i, p
			}
		}
		if best != want {
			t.Errorf("user %d: top recommendation = item %d (p=%.3f), want item %d (p=%.3f)",
				u, best, bestP, want, mod.Predict(u, want))
		}
		if bestP < 0.5 {
			t.Errorf("user %d item %d: probability %.3f too low", u, want, bestP)
		}
	}
	// The worked example of Section IV-C: P[r_{6,4}=1] is large (paper: 0.83).
	if p := mod.Predict(6, 4); p < 0.6 || p > 0.99 {
		t.Errorf("P(6,4) = %.3f, want high (paper reports 0.83)", p)
	}
	// Outside all clusters the model must stay near zero: user 3 bought
	// nothing, items 10-11 were never bought.
	for i := 0; i < toy.Items(); i++ {
		if p := mod.Predict(3, i); p > 0.2 {
			t.Errorf("empty user 3: P(3,%d) = %.3f unexpectedly high", i, p)
		}
	}
	if p := mod.Predict(0, 10); p > 0.2 {
		t.Errorf("P(0,10) = %.3f for never-bought item", p)
	}
}

func TestPaperToyOverlapStructure(t *testing.T) {
	// User 6 must belong to two co-clusters and item 4 must have affiliation
	// with all three (Section IV-C: fi = [1.39,0.73,0.82], fu = [0,1.05,1.25]).
	toy := dataset.PaperToy()
	res, err := Train(toy.R, Config{K: 3, Lambda: 0.1, MaxIter: 300, Tol: 1e-7, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	const member = 0.3 // affiliation threshold
	fu6 := res.Model.UserFactor(6)
	count6 := 0
	for _, v := range fu6 {
		if v > member {
			count6++
		}
	}
	if count6 != 2 {
		t.Errorf("user 6 belongs to %d co-clusters (factors %v), want 2", count6, fu6)
	}
	fi4 := res.Model.ItemFactor(4)
	count4 := 0
	for _, v := range fi4 {
		if v > member {
			count4++
		}
	}
	if count4 != 3 {
		t.Errorf("item 4 belongs to %d co-clusters (factors %v), want 3", count4, fi4)
	}
}

func TestPredictionsAreProbabilities(t *testing.T) {
	m := smallMatrix(8, 20, 15, 80)
	res, err := Train(m, Config{K: 3, Lambda: 0.5, MaxIter: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	f := func(uRaw, iRaw uint8) bool {
		u := int(uRaw) % 20
		i := int(iRaw) % 15
		p := res.Model.Predict(u, i)
		return p >= 0 && p < 1 && !math.IsNaN(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestScoreUserMatchesPredict(t *testing.T) {
	m := smallMatrix(9, 15, 12, 60)
	res, _ := Train(m, Config{K: 3, Lambda: 0.5, MaxIter: 5, Seed: 2})
	dst := make([]float64, 12)
	for u := 0; u < 15; u++ {
		res.Model.ScoreUser(u, dst)
		for i := 0; i < 12; i++ {
			if dst[i] != res.Model.Predict(u, i) {
				t.Fatalf("ScoreUser(%d)[%d] = %v, Predict = %v", u, i, dst[i], res.Model.Predict(u, i))
			}
		}
	}
}

func TestPairContributionsSumToAffinity(t *testing.T) {
	m := smallMatrix(10, 15, 12, 60)
	res, _ := Train(m, Config{K: 4, Lambda: 0.5, MaxIter: 5, Seed: 2})
	for u := 0; u < 15; u++ {
		for i := 0; i < 12; i++ {
			contrib := res.Model.PairContributions(u, i)
			sum := 0.0
			for _, v := range contrib {
				sum += v
			}
			if math.Abs(sum-res.Model.Affinity(u, i)) > 1e-12 {
				t.Fatalf("(%d,%d): contributions sum %v != affinity %v", u, i, sum, res.Model.Affinity(u, i))
			}
		}
	}
}

func TestUserWeights(t *testing.T) {
	m := sparse.FromDense([][]bool{
		{true, true, false, false}, // 2 pos, 2 unknown -> w = 1
		{true, false, false, false},
		{false, false, false, false}, // no positives -> w = 0
	})
	w := userWeights(m, true)
	if w[0] != 1 {
		t.Errorf("w[0] = %v, want 1", w[0])
	}
	if w[1] != 3 {
		t.Errorf("w[1] = %v, want 3", w[1])
	}
	if w[2] != 0 {
		t.Errorf("w[2] = %v, want 0", w[2])
	}
	if userWeights(m, false) != nil {
		t.Error("weights should be nil for plain OCuLaR")
	}
}

func TestRelativeDiffersFromPlain(t *testing.T) {
	m := smallMatrix(11, 40, 30, 150)
	plain, _ := Train(m, Config{K: 4, Lambda: 1, MaxIter: 10, Seed: 1})
	rel, _ := Train(m, Config{K: 4, Lambda: 1, MaxIter: 10, Seed: 1, Relative: true})
	same := true
	for i := range plain.Model.fu {
		if plain.Model.fu[i] != rel.Model.fu[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("R-OCuLaR produced identical factors to OCuLaR")
	}
}

func TestEmptyRowsAndColsStayFinite(t *testing.T) {
	b := sparse.NewBuilder(6, 6)
	b.Add(0, 0)
	b.Add(1, 1)
	m := b.Build() // users 2..5 and items 2..5 have no positives
	res, err := Train(m, Config{K: 2, Lambda: 0.5, MaxIter: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range append(append([]float64{}, res.Model.fu...), res.Model.fi...) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite factor with empty rows/cols")
		}
	}
	// An empty user should drift toward zero affiliation (regularization +
	// the Σ_0 pressure both push down).
	if linalg.Norm2(res.Model.UserFactor(4)) > 0.5 {
		t.Errorf("empty user factor norm %v, want small", linalg.Norm2(res.Model.UserFactor(4)))
	}
}

func TestConvergenceFlag(t *testing.T) {
	m := smallMatrix(12, 20, 15, 80)
	res, err := Train(m, Config{K: 3, Lambda: 1, MaxIter: 500, Tol: 1e-4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("expected convergence within 500 iterations on a tiny problem")
	}
	if res.Iterations() >= 500 {
		t.Errorf("iterations = %d", res.Iterations())
	}
	res2, _ := Train(m, Config{K: 3, Lambda: 1, MaxIter: 1, Seed: 1})
	if res2.Converged && res2.Iterations() != 1 {
		t.Error("single-iteration run bookkeeping wrong")
	}
	if len(res2.Objective) != 2 {
		t.Errorf("objective trace length %d, want 2 (init + 1 iter)", len(res2.Objective))
	}
}

func TestResultIterTimes(t *testing.T) {
	m := smallMatrix(13, 20, 15, 80)
	res, _ := Train(m, Config{K: 3, Lambda: 1, MaxIter: 5, Tol: 1e-12, Seed: 1})
	if len(res.IterTime) != res.Iterations() {
		t.Fatalf("IterTime length %d != iterations %d", len(res.IterTime), res.Iterations())
	}
	for _, d := range res.IterTime {
		if d < 0 {
			t.Fatal("negative iteration time")
		}
	}
}

func TestModelString(t *testing.T) {
	m := smallMatrix(14, 5, 4, 10)
	res, _ := Train(m, Config{K: 2, MaxIter: 1, Seed: 1})
	if res.Model.String() != "core.Model(K=2, 5 users, 4 items)" {
		t.Fatalf("String() = %q", res.Model.String())
	}
}

func TestModelGrow(t *testing.T) {
	m := smallMatrix(44, 12, 9, 60)
	res, err := Train(m, Config{K: 4, Lambda: 1, MaxIter: 10, Seed: 5, Bias: true})
	if err != nil {
		t.Fatal(err)
	}
	old := res.Model

	g, err := old.Grow(15, 11)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumUsers() != 15 || g.NumItems() != 11 || g.K() != old.K() {
		t.Fatalf("grown shape K=%d %dx%d", g.K(), g.NumUsers(), g.NumItems())
	}
	// Trained rows survive bit for bit; new rows are exactly zero.
	for u := 0; u < old.NumUsers(); u++ {
		for c, v := range old.UserFactor(u) {
			if g.UserFactor(u)[c] != v {
				t.Fatalf("user %d factor changed by Grow", u)
			}
		}
		if g.UserBias(u) != old.UserBias(u) {
			t.Fatalf("user %d bias changed by Grow", u)
		}
	}
	for u := old.NumUsers(); u < 15; u++ {
		for _, v := range g.UserFactor(u) {
			if v != 0 {
				t.Fatalf("new user %d factor not zero", u)
			}
		}
	}
	for i := old.NumItems(); i < 11; i++ {
		for _, v := range g.ItemFactor(i) {
			if v != 0 {
				t.Fatalf("new item %d factor not zero", i)
			}
		}
	}
	// Determinism: growing twice yields identical factors.
	g2, err := old.Grow(15, 11)
	if err != nil {
		t.Fatal(err)
	}
	sameFactorBits(t, g, g2)
	// Same shape returns the receiver; shrinking is a documented error.
	if same, _ := old.Grow(old.NumUsers(), old.NumItems()); same != old {
		t.Fatal("Grow(same shape) did not return the receiver")
	}
	if _, err := old.Grow(old.NumUsers()-1, old.NumItems()); err == nil {
		t.Fatal("user shrink accepted")
	}
	if _, err := old.Grow(old.NumUsers(), old.NumItems()-1); err == nil {
		t.Fatal("item shrink accepted")
	}
}

// ItemBias returns b_i, or 0 for a model without biases.
func (m *Model) ItemBias(i int) float64 {
	if m.bi == nil {
		return 0
	}
	return m.bi[i]
}

// Objective is ObjectiveWeighted with the R-OCuLaR weight table derived
// from relative and all cores: the tests' shorthand for Q.
func (m *Model) Objective(r *sparse.Matrix, lambda float64, relative bool) float64 {
	return m.ObjectiveWeighted(r, lambda, userWeights(r, relative), 0)
}
