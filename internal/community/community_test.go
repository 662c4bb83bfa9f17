package community

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/linalg"
)

// twoCliques builds two disjoint 4-cliques joined by nothing.
func twoCliques() *graph.Graph {
	var edges [][2]int
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			edges = append(edges, [2]int{a, b})
			edges = append(edges, [2]int{a + 4, b + 4})
		}
	}
	return graph.NewFromEdges(8, edges)
}

func TestModularityKnownValues(t *testing.T) {
	g := twoCliques()
	// Perfect partition: each clique its own community. All 12 edges are
	// intra; each community holds half the degree mass.
	perfect := []int{0, 0, 0, 0, 1, 1, 1, 1}
	q := Modularity(g, perfect)
	if math.Abs(q-0.5) > 1e-12 { // 1 − 2·(1/2)² = 0.5
		t.Fatalf("modularity of perfect partition = %v, want 0.5", q)
	}
	// Everything in one community: Q = 1 − 1 = 0.
	all := make([]int, 8)
	if q := Modularity(g, all); math.Abs(q) > 1e-12 {
		t.Fatalf("single-community modularity = %v, want 0", q)
	}
	// Perfect must beat a scrambled partition.
	scrambled := []int{0, 1, 0, 1, 0, 1, 0, 1}
	if Modularity(g, scrambled) >= Modularity(g, perfect) {
		t.Fatal("scrambled partition should score below perfect")
	}
}

func TestGreedyModularityFindsCliques(t *testing.T) {
	g := twoCliques()
	p := GreedyModularity(g)
	if p.Count != 2 {
		t.Fatalf("found %d communities, want 2", p.Count)
	}
	for v := 1; v < 4; v++ {
		if p.Label[v] != p.Label[0] {
			t.Fatal("first clique split")
		}
	}
	for v := 5; v < 8; v++ {
		if p.Label[v] != p.Label[4] {
			t.Fatal("second clique split")
		}
	}
	if p.Label[0] == p.Label[4] {
		t.Fatal("cliques merged")
	}
}

func TestGreedyModularityEmptyAndSingle(t *testing.T) {
	if p := GreedyModularity(graph.NewFromEdges(0, nil)); p.Count != 0 {
		t.Fatalf("empty graph: %d communities", p.Count)
	}
	// Edgeless graph: every node is its own community.
	p := GreedyModularity(graph.NewFromEdges(3, nil))
	if p.Count != 3 {
		t.Fatalf("edgeless graph: %d communities, want 3", p.Count)
	}
}

func TestGreedyModularityImprovesOverSingletons(t *testing.T) {
	d := dataset.PaperToy()
	g := graph.NewBipartite(d.R)
	p := GreedyModularity(g)
	singletons := make([]int, g.N())
	for v := range singletons {
		singletons[v] = v
	}
	if Modularity(g, p.Label) <= Modularity(g, singletons) {
		t.Fatal("greedy result no better than singletons")
	}
	if p.Count <= 1 || p.Count >= g.N() {
		t.Fatalf("implausible community count %d", p.Count)
	}
}

func TestPartitionCommunities(t *testing.T) {
	p := &Partition{Label: []int{0, 1, 0, 2}, Count: 3}
	cs := p.Communities()
	if len(cs) != 3 || len(cs[0]) != 2 || cs[0][0] != 0 || cs[0][1] != 2 {
		t.Fatalf("Communities() = %v", cs)
	}
}

func TestBigClamSeparatesCliques(t *testing.T) {
	g := twoCliques()
	b, err := FitBigClam(g, BigClamConfig{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Within-clique edge probabilities should be high, across-clique low.
	if p := b.EdgeProb(0, 1); p < 0.5 {
		t.Errorf("within-clique prob %v too low", p)
	}
	if p := b.EdgeProb(0, 5); p > 0.3 {
		t.Errorf("across-clique prob %v too high", p)
	}
}

func TestBigClamConfigValidation(t *testing.T) {
	if _, err := FitBigClam(twoCliques(), BigClamConfig{K: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
}

func TestBigClamDeterminism(t *testing.T) {
	g := twoCliques()
	a, _ := FitBigClam(g, BigClamConfig{K: 2, Seed: 7})
	b, _ := FitBigClam(g, BigClamConfig{K: 2, Seed: 7})
	for i := range a.f {
		if a.f[i] != b.f[i] {
			t.Fatal("same seed produced different factors")
		}
	}
}

func TestBigClamCommunitiesThreshold(t *testing.T) {
	g := twoCliques()
	b, _ := FitBigClam(g, BigClamConfig{K: 2, Seed: 3})
	sets := b.Communities(DefaultDelta(g))
	if len(sets) == 0 {
		t.Fatal("no communities above threshold")
	}
	total := 0
	for _, s := range sets {
		total += len(s)
	}
	if total < 8 {
		t.Errorf("only %d memberships; every clique node should belong somewhere", total)
	}
}

func TestDefaultDelta(t *testing.T) {
	g := twoCliques()
	d := DefaultDelta(g)
	if d <= 0 || math.IsNaN(d) {
		t.Fatalf("delta = %v", d)
	}
	if DefaultDelta(graph.NewFromEdges(1, nil)) != 0 {
		t.Fatal("single-node delta should be 0")
	}
}

func TestBipartiteRecommendations(t *testing.T) {
	// Community over users {0,1} and items {0,1} (lifted ids 2,3), where
	// (0,0), (0,1), (1,0) are observed: the only candidate is (1,1).
	has := func(u, i int) bool { return !(u == 1 && i == 1) }
	recs := BipartiteRecommendations([][]int{{0, 1, 2, 3}}, 2, has)
	if len(recs) != 1 || recs[0] != [2]int{1, 1} {
		t.Fatalf("recs = %v, want [[1 1]]", recs)
	}
	// Duplicates across overlapping communities collapse.
	recs = BipartiteRecommendations([][]int{{0, 1, 2, 3}, {1, 3}}, 2, has)
	if len(recs) != 1 {
		t.Fatalf("recs = %v, want single deduplicated pair", recs)
	}
}

// TestFig2NonOverlappingMissesRecommendations reproduces the qualitative
// claim of Figure 2: a non-overlapping partition of the toy's bipartite
// graph cannot place all three withheld pairs inside communities, because
// the planted co-clusters overlap (user 6 and items 3-6 belong to several).
func TestFig2NonOverlappingMissesRecommendations(t *testing.T) {
	toy := dataset.PaperToy()
	g := graph.NewBipartite(toy.R)
	p := GreedyModularity(g)
	recs := BipartiteRecommendations(p.Communities(), toy.Users(), toy.R.Has)
	found := 0
	for _, h := range toy.Held {
		for _, rec := range recs {
			if rec == h {
				found++
				break
			}
		}
	}
	if found >= 3 {
		t.Fatalf("non-overlapping modularity found all %d held pairs; the toy no longer demonstrates the paper's point", found)
	}
	t.Logf("modularity recovered %d of 3 held recommendations across %d communities", found, p.Count)
}

func BenchmarkGreedyModularityToy(b *testing.B) {
	toy := dataset.PaperToy()
	g := graph.NewBipartite(toy.R)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GreedyModularity(g)
	}
}

func BenchmarkBigClamToy(b *testing.B) {
	toy := dataset.PaperToy()
	g := graph.NewBipartite(toy.R)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitBigClam(g, BigClamConfig{K: 3, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// EdgeProb returns the modeled edge probability between nodes u and v.
func (b *BigClam) EdgeProb(u, v int) float64 {
	return 1 - math.Exp(-linalg.Dot(b.Factor(u), b.Factor(v)))
}

// Modularity computes Newman's modularity Q = Σ_c (l_c/m − (d_c/2m)²) of a
// partition of g, where l_c counts intra-community edges and d_c sums
// member degrees. Q is 0 for an empty graph.
func Modularity(g *graph.Graph, label []int) float64 {
	m := float64(g.M())
	if m == 0 {
		return 0
	}
	maxLabel := 0
	for _, c := range label {
		if c > maxLabel {
			maxLabel = c
		}
	}
	intra := make([]float64, maxLabel+1)
	deg := make([]float64, maxLabel+1)
	for v := 0; v < g.N(); v++ {
		deg[label[v]] += float64(g.Degree(v))
		for _, w := range g.Neighbors(v) {
			if int(w) > v && label[w] == label[v] {
				intra[label[v]]++
			}
		}
	}
	q := 0.0
	for c := range intra {
		q += intra[c]/m - (deg[c]/(2*m))*(deg[c]/(2*m))
	}
	return q
}
