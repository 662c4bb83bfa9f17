// Package graph provides the undirected-graph substrate for the community
// detection baselines of Figure 2. The positive examples of a one-class
// rating matrix are the edges of a bipartite user-item graph (Section II,
// "Community detection"); the baselines operate on that graph without
// exploiting bipartiteness, which is part of why they fail on overlapping
// co-cluster structure.
package graph

import (
	"fmt"

	"repro/internal/sparse"
)

// Graph is an immutable undirected graph with nodes 0..N-1 stored as
// adjacency lists. Parallel edges and self-loops are not represented.
type Graph struct {
	adj   [][]int32
	edges int
}

// NewFromEdges builds a graph with n nodes from an edge list. Duplicate and
// self-loop edges are dropped. It panics on out-of-range endpoints.
func NewFromEdges(n int, edges [][2]int) *Graph {
	b := sparse.NewBuilder(n, n)
	for _, e := range edges {
		if e[0] == e[1] {
			continue
		}
		b.Add(e[0], e[1])
		b.Add(e[1], e[0])
	}
	return fromAdjacency(b.Build())
}

// NewBipartite lifts a users x items rating matrix into an undirected graph
// with nodes 0..nu-1 for users and nu..nu+ni-1 for items, one edge per
// positive example.
func NewBipartite(r *sparse.Matrix) *Graph {
	nu := r.Rows()
	n := nu + r.Cols()
	b := sparse.NewBuilder(n, n)
	r.Each(func(u, i int) {
		b.Add(u, nu+i)
		b.Add(nu+i, u)
	})
	return fromAdjacency(b.Build())
}

func fromAdjacency(m *sparse.Matrix) *Graph {
	g := &Graph{adj: make([][]int32, m.Rows()), edges: m.NNZ() / 2}
	for v := 0; v < m.Rows(); v++ {
		g.adj[v] = m.Row(v)
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.edges }

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns the sorted neighbor list of v. The slice aliases
// internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 { return g.adj[v] }

// String describes the graph shape.
func (g *Graph) String() string {
	return fmt.Sprintf("graph.Graph(%d nodes, %d edges)", g.N(), g.M())
}
