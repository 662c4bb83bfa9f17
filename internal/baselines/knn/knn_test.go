package knn

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/rng"
	"repro/internal/sparse"
)

func TestValidation(t *testing.T) {
	m := sparse.NewBuilder(2, 2).Build()
	if _, err := TrainUser(m, Config{Neighbors: 0}); err == nil {
		t.Error("user model accepted Neighbors=0")
	}
	if _, err := TrainItem(m, Config{}); err == nil {
		t.Error("item model accepted zero config")
	}
}

func TestUserCosineHandComputed(t *testing.T) {
	// u0: {0,1}, u1: {1,2}, u2: {0,1,2}.
	m := sparse.FromDense([][]bool{
		{true, true, false},
		{false, true, true},
		{true, true, true},
	})
	um, err := TrainUser(m, Config{Neighbors: 5})
	if err != nil {
		t.Fatal(err)
	}
	idx, sim := um.Neighbors(0)
	// sim(0,1) = 1/sqrt(4) = 0.5; sim(0,2) = 2/sqrt(6) ≈ 0.816. Order: 2, 1.
	if len(idx) != 2 || idx[0] != 2 || idx[1] != 1 {
		t.Fatalf("neighbors of u0 = %v", idx)
	}
	if math.Abs(sim[0]-2/math.Sqrt(6)) > 1e-12 || math.Abs(sim[1]-0.5) > 1e-12 {
		t.Fatalf("similarities = %v", sim)
	}
}

func TestItemCosineHandComputed(t *testing.T) {
	// Transposed view of the same logic: i0: {u0,u2}, i1: {u0,u1,u2}, i2: {u1,u2}.
	m := sparse.FromDense([][]bool{
		{true, true, false},
		{false, true, true},
		{true, true, true},
	})
	im, err := TrainItem(m, Config{Neighbors: 5})
	if err != nil {
		t.Fatal(err)
	}
	idx, sim := im.Neighbors(0)
	// sim(i0,i1) = 2/sqrt(6) ≈ 0.816; sim(i0,i2) = 1/2.
	if len(idx) != 2 || idx[0] != 1 || idx[1] != 2 {
		t.Fatalf("neighbors of i0 = %v", idx)
	}
	if math.Abs(sim[0]-2/math.Sqrt(6)) > 1e-12 || math.Abs(sim[1]-0.5) > 1e-12 {
		t.Fatalf("similarities = %v", sim)
	}
}

func TestNeighborTruncation(t *testing.T) {
	r := rng.New(1)
	b := sparse.NewBuilder(30, 20)
	for k := 0; k < 300; k++ {
		b.Add(r.Intn(30), r.Intn(20))
	}
	m := b.Build()
	um, _ := TrainUser(m, Config{Neighbors: 3})
	for u := 0; u < 30; u++ {
		idx, sim := um.Neighbors(u)
		if len(idx) > 3 {
			t.Fatalf("user %d has %d neighbors, cap 3", u, len(idx))
		}
		for n := 1; n < len(sim); n++ {
			if sim[n] > sim[n-1] {
				t.Fatalf("user %d: similarities not descending: %v", u, sim)
			}
		}
	}
}

func TestScoreUserAggregation(t *testing.T) {
	// u0 and u1 are identical; u1 also bought item 2. User-based scoring for
	// u0 should put item 2 above item 3 (bought by the less similar u2).
	m := sparse.FromDense([][]bool{
		{true, true, false, false},
		{true, true, true, false},
		{true, false, false, true},
	})
	um, _ := TrainUser(m, Config{Neighbors: 2})
	dst := make([]float64, 4)
	um.ScoreUser(0, dst)
	if dst[2] <= dst[3] {
		t.Fatalf("score(i2)=%v should exceed score(i3)=%v", dst[2], dst[3])
	}
}

func TestEmptyUserScoresZero(t *testing.T) {
	b := sparse.NewBuilder(3, 3)
	b.Add(0, 0)
	b.Add(1, 1)
	m := b.Build()
	um, _ := TrainUser(m, Config{Neighbors: 2})
	dst := []float64{9, 9, 9}
	um.ScoreUser(2, dst)
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("empty user score[%d] = %v", i, v)
		}
	}
	im, _ := TrainItem(m, Config{Neighbors: 2})
	dst = []float64{9, 9, 9}
	im.ScoreUser(2, dst)
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("item-based empty user score[%d] = %v", i, v)
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	d := dataset.SyntheticSmall(2)
	serial, _ := TrainUser(d.R, Config{Neighbors: 10, Workers: 1})
	par, _ := TrainUser(d.R, Config{Neighbors: 10, Workers: 4})
	for u := 0; u < d.Users(); u++ {
		si, ss := serial.Neighbors(u)
		pi, ps := par.Neighbors(u)
		if len(si) != len(pi) {
			t.Fatalf("user %d neighbor count differs", u)
		}
		for n := range si {
			if si[n] != pi[n] || ss[n] != ps[n] {
				t.Fatalf("user %d neighbor %d differs", u, n)
			}
		}
	}
}

func TestRecoversPlantedStructure(t *testing.T) {
	// Both baselines should comfortably beat random ranking on planted
	// co-cluster data.
	d := dataset.SyntheticSmall(3)
	sp := dataset.SplitEntries(d.R, 0.75, rng.New(7))
	um, _ := TrainUser(sp.Train, Config{Neighbors: 20})
	im, _ := TrainItem(sp.Train, Config{Neighbors: 20})
	mu := eval.Evaluate(um, sp.Train, sp.Test, 20)
	mi := eval.Evaluate(im, sp.Train, sp.Test, 20)
	// Random recall@20 on 80 items is ~20/80 = 0.25 of remaining items at
	// best; planted structure should push well above.
	if mu.RecallAtM < 0.35 {
		t.Errorf("user-based recall@20 = %v, want > 0.35", mu.RecallAtM)
	}
	if mi.RecallAtM < 0.35 {
		t.Errorf("item-based recall@20 = %v, want > 0.35", mi.RecallAtM)
	}
}

func BenchmarkTrainUser(b *testing.B) {
	d := dataset.SyntheticSmall(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainUser(d.R, Config{Neighbors: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

// Neighbors returns user u's neighbor indices and cosine similarities, in
// descending similarity order: what the tests read of topNeighbors.
func (m *UserModel) Neighbors(u int) (idx []int, sim []float64) {
	return splitNeighbors(m.nbrs[u])
}

// Neighbors returns item i's neighbor indices and cosine similarities, in
// descending similarity order.
func (m *ItemModel) Neighbors(i int) (idx []int, sim []float64) {
	return splitNeighbors(m.nbrs[i])
}

// splitNeighbors copies nbrs into fresh index and similarity slices.
func splitNeighbors(nbrs []neighbor) (idx []int, sim []float64) {
	idx = make([]int, len(nbrs))
	sim = make([]float64, len(nbrs))
	for n, nb := range nbrs {
		idx[n] = int(nb.idx)
		sim[n] = nb.sim
	}
	return idx, sim
}
