package graph

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/sparse"
)

func TestNewFromEdges(t *testing.T) {
	g := NewFromEdges(4, [][2]int{{0, 1}, {1, 2}, {1, 0}, {3, 3}})
	if g.N() != 4 {
		t.Fatalf("N = %d", g.N())
	}
	if g.M() != 2 { // duplicate collapsed, self-loop dropped
		t.Fatalf("M = %d, want 2", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(2, 1) {
		t.Fatal("missing edges")
	}
	if g.HasEdge(0, 2) || g.HasEdge(3, 3) {
		t.Fatal("unexpected edges")
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Fatal("degrees wrong")
	}
}

func TestNewBipartite(t *testing.T) {
	m := sparse.FromDense([][]bool{
		{true, false},
		{true, true},
	})
	g := NewBipartite(m)
	if g.N() != 4 {
		t.Fatalf("N = %d, want 4 (2 users + 2 items)", g.N())
	}
	if g.M() != 3 {
		t.Fatalf("M = %d, want 3", g.M())
	}
	// Users are 0,1; items are 2,3.
	if !g.HasEdge(0, 2) || !g.HasEdge(1, 2) || !g.HasEdge(1, 3) {
		t.Fatal("bipartite edges wrong")
	}
	if g.HasEdge(0, 1) || g.HasEdge(2, 3) {
		t.Fatal("within-side edges must not exist")
	}
}

func TestBipartiteDegreesMatchMatrix(t *testing.T) {
	d := dataset.PaperToy()
	g := NewBipartite(d.R)
	for u := 0; u < d.Users(); u++ {
		if g.Degree(u) != d.R.RowNNZ(u) {
			t.Fatalf("user %d degree %d != row nnz %d", u, g.Degree(u), d.R.RowNNZ(u))
		}
	}
	for i := 0; i < d.Items(); i++ {
		if g.Degree(d.Users()+i) != d.R.ColNNZ(i) {
			t.Fatalf("item %d degree mismatch", i)
		}
	}
	if g.M() != d.R.NNZ() {
		t.Fatalf("edges %d != nnz %d", g.M(), d.R.NNZ())
	}
}

func TestEmptyGraph(t *testing.T) {
	g := NewFromEdges(0, nil)
	if g.N() != 0 || g.M() != 0 {
		t.Fatal("empty graph not empty")
	}
	if g.String() != "graph.Graph(0 nodes, 0 edges)" {
		t.Fatalf("String() = %q", g.String())
	}
}

// HasEdge reports whether {u, v} is an edge, in O(log deg(u)).
func (g *Graph) HasEdge(u, v int) bool {
	lo, hi := 0, len(g.adj[u])
	for lo < hi {
		mid := (lo + hi) / 2
		if int(g.adj[u][mid]) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(g.adj[u]) && int(g.adj[u][lo]) == v
}
