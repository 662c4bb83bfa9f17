// Package ranktest is the conformance suite of "rank this user": one
// fixture, one case table, one refusal table, one reference, and
// Conformance, which holds an implementation to them. The paper's score
// P[r_ui = 1] = 1 − exp(−⟨f_u, f_i⟩) depends on nothing but the user's
// factor and that item's own factor row, so an engine, either codec of a
// full server, a registry arm, an item-range shard, a merge of shard
// partials and a router — on both sides of a rollout — must all return the
// same items and the same float64 bits as the reference. Every way the
// repo has to rank a user registers here (from rank, serve and cluster's
// tests) instead of carrying its own equivalence test.
//
// The package is test support like internal/chaos: never linked into a
// binary, and it imports neither serve nor cluster, so their in-package
// tests can import it. It speaks their HTTP API as a client would.
package ranktest

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rank"
	"repro/internal/sparse"
)

// The limits every HTTP implementation under test is configured with:
// small enough for the refusal table to trip each, large enough for every
// case ("overlong" asks for MaxM of an 80-item catalogue). A staged router
// over-fetches, so its shards take 2×MaxM.
const (
	MaxM     = 100
	MaxBatch = 8
	MaxBody  = 2048
)

// The staged variant's pipeline, as numbers for whoever configures it
// declaratively; Fixture.Stages is the same pipeline built. The stages are
// model-independent on purpose: a router builds its pipeline once, so a
// model-bound stage would legitimately diverge across a rollout.
const (
	Floor          = 0.02
	BoostDelta     = 0.25
	BoostTag       = "rare"
	BoostOverFetch = 2
)

// Variant is the file-format dimension of the fixture.
type Variant struct{ Bias, F32 bool }

// Variants lists every file format the serving stack opens.
var Variants = []Variant{{false, false}, {true, false}, {false, true}, {true, true}}

func (v Variant) String() string { return fmt.Sprintf("bias=%v_f32=%v", v.Bias, v.F32) }

// Artifact is one trained model of a fixture: the float64 truth and the
// saved file's own scorer, which is what the reference ranks.
type Artifact struct {
	Model  *core.Model
	mapped *core.MappedModel
}

// Fixture is the planted 120×80 catalogue every implementation serves: a
// model at Path, its successor for the rollout leg, the training matrix
// whose rows are excluded, a tag table and the staged pipeline.
type Fixture struct {
	Variant
	Train     *sparse.Matrix
	Tags      *rank.TagTable
	Stages    []rank.Stage
	Path      string // the served file: Cur until Install(Next)
	Cur, Next *Artifact
}

var trainMatrix = sync.OnceValue(func() *sparse.Matrix { return dataset.SyntheticSmall(1).Dataset.R })

// Train fits a small model; seed varies the factors, so a reload test can
// install a genuinely different one.
func Train(t testing.TB, train *sparse.Matrix, seed uint64) *core.Model {
	t.Helper()
	return fit(t, train, seed, false)
}

func fit(t testing.TB, train *sparse.Matrix, seed uint64, bias bool) *core.Model {
	t.Helper()
	res, err := core.Train(train, core.Config{K: 8, Lambda: 2, MaxIter: 60, Seed: seed, Bias: bias})
	if err != nil {
		t.Fatal(err)
	}
	return res.Model
}

// models trains the fixture's two models once per test binary and bias
// setting; trained models are immutable, so every Fixture shares them.
var models struct {
	sync.Mutex
	byBias map[bool][2]*core.Model
}

// New builds a fixture in t's temporary directory, serving Cur.
func New(t testing.TB, v Variant) *Fixture {
	t.Helper()
	train := trainMatrix()
	models.Lock()
	pair, ok := models.byBias[v.Bias]
	if !ok {
		pair = [2]*core.Model{fit(t, train, 3, v.Bias), fit(t, train, 99, v.Bias)}
		if models.byBias == nil {
			models.byBias = map[bool][2]*core.Model{}
		}
		models.byBias[v.Bias] = pair
	}
	models.Unlock()

	dir := t.TempDir()
	fx := &Fixture{Variant: v, Train: train, Tags: Tags(t, train.Cols()), Path: filepath.Join(dir, "model.bin")}
	boost, err := fx.Tags.Boost(BoostDelta, BoostOverFetch, BoostTag)
	if err != nil {
		t.Fatal(err)
	}
	fx.Stages = []rank.Stage{rank.ScoreFloor(Floor), boost}
	arts := [2]*Artifact{}
	for n, m := range pair {
		// The reference scores each model out of a file of its own, which
		// no implementation serves or overwrites.
		path := filepath.Join(dir, fmt.Sprintf("reference-%d.bin", n))
		if err := fx.save(m, path); err != nil {
			t.Fatal(err)
		}
		mapped, err := core.OpenMappedModel(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = mapped.Close() })
		arts[n] = &Artifact{Model: m, mapped: mapped}
	}
	fx.Cur, fx.Next = arts[0], arts[1]
	if err := fx.Install(fx.Cur); err != nil {
		t.Fatal(err)
	}
	return fx
}

func (fx *Fixture) save(m *core.Model, path string) error {
	return m.SaveModelFileOpts(path, core.SaveOptions{Float32: fx.F32})
}

// Install saves a's model over the served file — the trainer's half of a
// rollout; whatever is serving keeps its old mapping until it reloads.
func (fx *Fixture) Install(a *Artifact) error { return fx.save(a.Model, fx.Path) }

// Tags tags a catalogue: "even" marks the even items, "low" the first
// half, "rare" items 1 and numItems-1.
func Tags(t testing.TB, numItems int) *rank.TagTable {
	t.Helper()
	var b strings.Builder
	for i := 0; i < numItems; i++ {
		fmt.Fprintf(&b, "%d,item-%d", i, i)
		if i%2 == 0 {
			b.WriteString(",even")
		}
		if i < numItems/2 {
			b.WriteString(",low")
		}
		if i == 1 || i == numItems-1 {
			b.WriteString(",rare")
		}
		b.WriteByte('\n')
	}
	tab, err := rank.LoadTagTable(strings.NewReader(b.String()), numItems)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// Shards serves the catalogue as n item-range partitions on listeners
// closed with t, the tail one open-ended (hi = -1: it follows catalogue
// growth). open builds the handler of the shard [lo, hi) — the one thing
// serve's tests and cluster's spell differently.
func (fx *Fixture) Shards(t testing.TB, n int, open func(lo, hi int) http.Handler) []*httptest.Server {
	t.Helper()
	items := fx.Train.Cols()
	shards := make([]*httptest.Server, n)
	for p := range shards {
		lo, hi := p*items/n, (p+1)*items/n
		if p == n-1 {
			hi = -1
		}
		shards[p] = httptest.NewServer(open(lo, hi))
		t.Cleanup(shards[p].Close)
	}
	return shards
}

// URLs lists the base URLs of a shard set.
func URLs(shards []*httptest.Server) []string {
	urls := make([]string, len(shards))
	for n, ts := range shards {
		urls[n] = ts.URL
	}
	return urls
}
