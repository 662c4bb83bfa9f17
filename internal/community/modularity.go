// Package community implements the two community-detection baselines of
// Figure 2: non-overlapping modularity maximization (Newman 2006, fitted
// greedily in the style of Clauset-Newman-Moore) and the overlapping
// BIGCLAM cluster-affiliation model (Yang & Leskovec, WSDM 2013).
//
// The paper's point (Fig 2) is that neither recovers the planted
// overlapping co-cluster structure of the introductory example: modularity
// cannot represent overlap at all, and BIGCLAM — which shares OCuLaR's
// generative model — lacks both the bipartite structure and the ℓ2
// regularization, and may therefore draw incorrect community boundaries.
// This package exists to reproduce that comparison, plus the conversion
// from communities to candidate recommendations.
package community

import (
	"sort"

	"repro/internal/graph"
)

// Partition is a non-overlapping assignment of nodes to communities.
type Partition struct {
	// Label[v] is the community id of node v, densely renumbered 0..C-1.
	Label []int
	// Count is the number of communities C.
	Count int
}

// Communities returns the partition as per-community sorted node lists.
func (p *Partition) Communities() [][]int {
	out := make([][]int, p.Count)
	for v, c := range p.Label {
		out[c] = append(out[c], v)
	}
	return out
}

// GreedyModularity maximizes modularity by greedy agglomeration: starting
// from singleton communities, repeatedly merge the connected pair with the
// largest modularity gain until no merge improves Q. Like the Girvan-Newman
// family referenced by the paper it discovers the number of communities
// automatically, and like all modularity methods it returns a
// non-overlapping partition.
func GreedyModularity(g *graph.Graph) *Partition {
	n := g.N()
	label := make([]int, n)
	for v := range label {
		label[v] = v // singletons; an edgeless graph stays this way
	}
	if n == 0 || g.M() == 0 {
		return renumber(label)
	}
	m2 := 2 * float64(g.M())

	// Community state: total degree, and inter-community edge weights.
	deg := make([]float64, n)
	links := make([]map[int]float64, n)
	alive := make([]bool, n)
	for v := 0; v < n; v++ {
		label[v] = v
		deg[v] = float64(g.Degree(v))
		links[v] = make(map[int]float64, g.Degree(v))
		for _, w := range g.Neighbors(v) {
			links[v][int(w)]++
		}
		alive[v] = true
	}
	parent := make([]int, n)
	for v := range parent {
		parent[v] = v
	}

	for {
		// Find the best positive-gain merge among connected communities.
		bestGain := 0.0
		bestA, bestB := -1, -1
		for a := 0; a < n; a++ {
			if !alive[a] {
				continue
			}
			for b, eab := range links[a] {
				if b <= a || !alive[b] {
					continue
				}
				// ΔQ = e_ab/m − 2·(d_a/2m)·(d_b/2m), with e_ab the number
				// of edges between the communities.
				gain := eab/(m2/2) - 2*(deg[a]/m2)*(deg[b]/m2)
				if gain > bestGain+1e-15 {
					bestGain, bestA, bestB = gain, a, b
				}
			}
		}
		if bestA < 0 {
			break
		}
		// Merge bestB into bestA.
		alive[bestB] = false
		parent[bestB] = bestA
		deg[bestA] += deg[bestB]
		for c, w := range links[bestB] {
			if c == bestA {
				continue
			}
			links[bestA][c] += w
			links[c][bestA] += w
			delete(links[c], bestB)
		}
		delete(links[bestA], bestB)
		links[bestB] = nil
	}

	// Resolve each node's community root.
	var find func(int) int
	find = func(v int) int {
		if parent[v] != v {
			parent[v] = find(parent[v])
		}
		return parent[v]
	}
	for v := 0; v < n; v++ {
		label[v] = find(v)
	}
	return renumber(label)
}

// renumber maps arbitrary labels to dense 0..C-1 ids in first-seen order.
func renumber(label []int) *Partition {
	ids := make(map[int]int)
	out := make([]int, len(label))
	for v, c := range label {
		id, ok := ids[c]
		if !ok {
			id = len(ids)
			ids[c] = id
		}
		out[v] = id
	}
	return &Partition{Label: out, Count: len(ids)}
}

// BipartiteRecommendations lists the user-item pairs that a node grouping
// implies as candidate recommendations: pairs (u, i) in the same community
// with no observed positive. nodeSets holds communities over the lifted
// node ids of graph.NewBipartite (users 0..nu-1, items nu..). has reports
// observed positives. Pairs are returned sorted (user-major) and
// deduplicated across communities.
func BipartiteRecommendations(nodeSets [][]int, nu int, has func(u, i int) bool) [][2]int {
	seen := make(map[[2]int]bool)
	for _, set := range nodeSets {
		var users, items []int
		for _, v := range set {
			if v < nu {
				users = append(users, v)
			} else {
				items = append(items, v-nu)
			}
		}
		for _, u := range users {
			for _, i := range items {
				if !has(u, i) {
					seen[[2]int{u, i}] = true
				}
			}
		}
	}
	out := make([][2]int, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}
