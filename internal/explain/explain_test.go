package explain

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/sparse"
)

func trainToy(t testing.TB) (*dataset.Toy, *core.Model) {
	t.Helper()
	toy := dataset.PaperToy()
	res, err := core.Train(toy.R, core.Config{K: 3, Lambda: 0.1, MaxIter: 300, Tol: 1e-7, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	return toy, res.Model
}

func TestExtractCoClustersRecoversToy(t *testing.T) {
	toy, m := trainToy(t)
	clusters := ExtractCoClusters(m, 0.3)
	if len(clusters) != 3 {
		t.Fatalf("extracted %d clusters, want K=3", len(clusters))
	}
	// Every planted cluster must match one extracted cluster's member sets.
	for _, planted := range toy.Clusters {
		found := false
		for _, got := range clusters {
			if sameSet(got.Users, planted.Users) && sameSet(got.Items, planted.Items) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("planted cluster users=%v items=%v not recovered; got %v",
				planted.Users, planted.Items, clusters)
		}
	}
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[int]bool, len(a))
	for _, v := range a {
		set[v] = true
	}
	for _, v := range b {
		if !set[v] {
			return false
		}
	}
	return true
}

func TestCoClusterMembersSortedByWeight(t *testing.T) {
	_, m := trainToy(t)
	for _, c := range ExtractCoClusters(m, 0.3) {
		for n := 1; n < len(c.UserWeight); n++ {
			if c.UserWeight[n] > c.UserWeight[n-1] {
				t.Fatalf("cluster %d user weights not descending: %v", c.ID, c.UserWeight)
			}
		}
		for n := 1; n < len(c.ItemWeight); n++ {
			if c.ItemWeight[n] > c.ItemWeight[n-1] {
				t.Fatalf("cluster %d item weights not descending: %v", c.ID, c.ItemWeight)
			}
		}
	}
}

func TestDensity(t *testing.T) {
	r := sparse.FromDense([][]bool{
		{true, true},
		{true, false},
	})
	c := CoCluster{Users: []int{0, 1}, Items: []int{0, 1}}
	if d := c.Density(r); d != 0.75 {
		t.Fatalf("density = %v, want 0.75", d)
	}
	empty := CoCluster{}
	if empty.Density(r) != 0 {
		t.Fatal("empty cluster density should be 0")
	}
}

func TestComputeStats(t *testing.T) {
	r := sparse.FromDense([][]bool{
		{true, true},
		{true, true},
	})
	clusters := []CoCluster{
		{ID: 0, Users: []int{0, 1}, Items: []int{0}},
		{ID: 1, Users: []int{0}, Items: []int{0, 1}},
		{ID: 2}, // empty
	}
	s := ComputeStats(clusters, r)
	if s.NonEmpty != 2 {
		t.Fatalf("NonEmpty = %d", s.NonEmpty)
	}
	if s.MeanUsers != 1.5 || s.MeanItems != 1.5 {
		t.Fatalf("means = %v users, %v items", s.MeanUsers, s.MeanItems)
	}
	if s.MeanDensity != 1 {
		t.Fatalf("density = %v", s.MeanDensity)
	}
	// User 0 in 2 clusters, user 1 in 1 -> mean 1.5.
	if s.MeanUserMemberships != 1.5 {
		t.Fatalf("memberships = %v", s.MeanUserMemberships)
	}
}

func TestExplainWorkedExample(t *testing.T) {
	// Section IV-C: recommending item 4 to user 6 must be justified by the
	// two co-clusters user 6 belongs to, with similar users from clusters 2
	// (users 4,5) and 3 (users 7-9), and shared items from both.
	toy, m := trainToy(t)
	ex := Explain(m, toy.R, 6, 4, Options{})
	if ex.Probability < 0.6 {
		t.Fatalf("P(6,4) = %v, want high", ex.Probability)
	}
	if len(ex.Reasons) != 2 {
		t.Fatalf("got %d reasons, want 2 (user 6 is in two co-clusters): %+v", len(ex.Reasons), ex.Reasons)
	}
	// Collect all similar users and shared items across reasons.
	similar := map[int]bool{}
	shared := map[int]bool{}
	for _, r := range ex.Reasons {
		if r.Contribution <= 0 {
			t.Fatalf("non-positive contribution %v", r.Contribution)
		}
		for _, v := range r.SimilarUsers {
			if v == 6 {
				t.Fatal("user 6 listed as its own peer")
			}
			similar[v] = true
		}
		for _, j := range r.SharedItems {
			if !toy.R.Has(6, j) {
				t.Fatalf("shared item %d not actually purchased by user 6", j)
			}
			shared[j] = true
		}
	}
	if !similar[4] && !similar[5] {
		t.Errorf("expected users 4 or 5 among similar users, got %v", similar)
	}
	if !(similar[7] || similar[8] || similar[9]) {
		t.Errorf("expected users 7-9 among similar users, got %v", similar)
	}
	if len(shared) == 0 {
		t.Error("no shared items reported")
	}
}

func TestExplainSimilarUsersBoughtTheItem(t *testing.T) {
	toy, m := trainToy(t)
	for _, h := range toy.Held {
		ex := Explain(m, toy.R, h[0], h[1], Options{})
		for _, r := range ex.Reasons {
			for _, v := range r.SimilarUsers {
				if !toy.R.Has(v, h[1]) {
					t.Fatalf("similar user %d did not buy item %d", v, h[1])
				}
			}
		}
	}
}

func TestExplainWeakPair(t *testing.T) {
	toy, m := trainToy(t)
	// User 3 bought nothing; any recommendation to it is unjustified.
	ex := Explain(m, toy.R, 3, 5, Options{})
	if len(ex.Reasons) != 0 {
		t.Fatalf("expected no reasons for empty user, got %+v", ex.Reasons)
	}
	if ex.Probability > 0.2 {
		t.Fatalf("probability %v too high for empty user", ex.Probability)
	}
}

func TestRenderExplanation(t *testing.T) {
	toy, m := trainToy(t)
	ex := Explain(m, toy.R, 6, 4, Options{})
	text := ex.Render(toy.Dataset)
	for _, want := range []string{"Item 4 is recommended to User 6", "confidence", "also bought Item 4"} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered text missing %q:\n%s", want, text)
		}
	}
	// Weak explanation renders the fallback line.
	weak := Explain(m, toy.R, 3, 5, Options{})
	if !strings.Contains(weak.Render(toy.Dataset), "no co-cluster contributes") {
		t.Error("weak explanation missing fallback text")
	}
}

func TestRenderWithNames(t *testing.T) {
	d := dataset.SyntheticB2B(1)
	res, err := core.Train(d.R, core.Config{K: 8, Lambda: 5, MaxIter: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Find some pair with a non-trivial probability to exercise naming.
	var ex Explanation
	found := false
	for u := 0; u < d.Users() && !found; u++ {
		for i := 0; i < d.Items(); i++ {
			if !d.R.Has(u, i) && res.Model.Predict(u, i) > 0.3 {
				ex = Explain(res.Model, d.R, u, i, Options{})
				found = true
				break
			}
		}
	}
	if !found {
		t.Skip("no confident recommendation found at this training budget")
	}
	text := ex.Render(d.Dataset)
	if !strings.Contains(text, "Client ") {
		t.Errorf("expected client names in:\n%s", text)
	}
}

func TestRenderProbabilityMatrix(t *testing.T) {
	toy, m := trainToy(t)
	s := RenderProbabilityMatrix(m, toy.R)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 13 { // header + 12 users
		t.Fatalf("matrix render has %d lines, want 13:\n%s", len(lines), s)
	}
	if !strings.Contains(s, "##") {
		t.Error("positives not marked")
	}
	// The worked example's cell: P(6,4) should render as a number >= 60.
	row6 := lines[7]
	if !strings.Contains(row6, "u6") {
		t.Fatalf("row order unexpected: %q", row6)
	}
}

func BenchmarkExplain(b *testing.B) {
	toy, m := trainToy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Explain(m, toy.R, 6, 4, Options{})
	}
}

// TestExplainOrdersAreTotal plants ties everywhere an explanation orders
// something — factors drawn from {0, ½, 1}, so contributions, peer
// affiliations and shared-item affiliations tie in long runs — and holds
// every list to its one order: weight descending, then id ascending. The
// peer lists run to hundreds of entries, past the length where an unstable
// sort keeps equal elements where it found them.
func TestExplainOrdersAreTotal(t *testing.T) {
	const users, items, k = 300, 40, 4
	r := rng.New(31)
	b := sparse.NewBuilder(users, items)
	for u := 0; u < users; u++ {
		for i := 0; i < items; i++ {
			if r.Bernoulli(0.5) {
				b.Add(u, i)
			}
		}
	}
	train := b.Build()
	res, err := core.Train(train, core.Config{K: k, Lambda: 1, MaxIter: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Model
	levels := []float64{0, 0.5, 1}
	for u := 0; u < users; u++ {
		for c := range m.UserFactor(u) {
			m.UserFactor(u)[c] = levels[r.Intn(3)]
		}
	}
	for i := 0; i < items; i++ {
		for c := range m.ItemFactor(i) {
			m.ItemFactor(i)[c] = levels[r.Intn(3)]
		}
	}
	// want lists the ids whose weight passes, in the total order, capped.
	want := func(ids []int32, skip int, weight func(int) float64, threshold float64, max int) []int {
		var out []weighted
		for _, id := range ids {
			if w := weight(int(id)); int(id) != skip && w >= threshold {
				out = append(out, weighted{int(id), w})
			}
		}
		sort.SliceStable(out, func(a, b int) bool { return out[a].w > out[b].w }) // ids come in ascending
		var got []int
		for n := 0; n < len(out) && n < max; n++ {
			got = append(got, out[n].id)
		}
		return got
	}
	opts := Options{MaxPeers: 1000}.withDefaults()
	longest := 0
	for trial := 0; trial < 200; trial++ {
		u, i := r.Intn(users), r.Intn(items)
		ex := Explain(m, train, u, i, opts)
		contrib := m.PairContributions(u, i)
		clusters := make([]int32, k)
		for c := range clusters {
			clusters[c] = int32(c)
		}
		wantReasons := want(clusters, -1, func(c int) float64 { return contrib[c] }, minContribution, k)
		if len(ex.Reasons) != len(wantReasons) {
			t.Fatalf("user %d item %d: %d reasons, want co-clusters %v", u, i, len(ex.Reasons), wantReasons)
		}
		for n, reason := range ex.Reasons {
			c := wantReasons[n]
			if reason.ClusterID != c || reason.Contribution != contrib[c] {
				t.Fatalf("user %d item %d: reason %d is co-cluster %d (%v), want %d (%v)", u, i, n, reason.ClusterID, reason.Contribution, c, contrib[c])
			}
			peers := want(train.Col(i), u, func(v int) float64 { return m.UserFactor(v)[c] }, membershipThreshold, opts.MaxPeers)
			if !slices.Equal(reason.SimilarUsers, peers) {
				t.Fatalf("user %d item %d co-cluster %d: similar users %v, want %v", u, i, c, reason.SimilarUsers, peers)
			}
			shared := want(train.Row(u), i, func(j int) float64 { return m.ItemFactor(j)[c] }, membershipThreshold, opts.MaxPeers)
			if !slices.Equal(reason.SharedItems, shared) {
				t.Fatalf("user %d item %d co-cluster %d: shared items %v, want %v", u, i, c, reason.SharedItems, shared)
			}
			longest = max(longest, len(peers))
		}
	}
	if longest < 50 {
		t.Fatalf("the longest peer list held %d users; the ties never reached the unstable sort's range", longest)
	}
}
