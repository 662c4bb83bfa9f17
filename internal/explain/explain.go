// Package explain turns fitted OCuLaR factors into the interpretable
// artifacts the paper centers on (Sections IV-C and VIII): explicit
// user-item co-clusters, textual recommendation rationales of the form
// shown in Figures 3 and 10, per-co-cluster metrics (Fig 6), and an ASCII
// rendering of the probability matrix (Fig 3).
package explain

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/sparse"
)

// CoCluster is one extracted user-item co-cluster: the users and items
// whose affiliation with factor dimension ID exceeds the extraction
// threshold, ordered by descending affiliation strength.
type CoCluster struct {
	// ID is the factor dimension (column of the affiliation matrices).
	ID int
	// Users and Items are the member indices, strongest affiliation first.
	Users, Items []int
	// UserWeight[n] is the affiliation strength of Users[n]; likewise for
	// ItemWeight.
	UserWeight, ItemWeight []float64
}

// Density returns the fraction of the co-cluster's user-item pairs that are
// positive in r — the co-cluster density panel of Fig 6. An empty cluster
// has density 0.
func (c *CoCluster) Density(r *sparse.Matrix) float64 {
	if len(c.Users) == 0 || len(c.Items) == 0 {
		return 0
	}
	pos := 0
	for _, u := range c.Users {
		for _, i := range c.Items {
			if r.Has(u, i) {
				pos++
			}
		}
	}
	return float64(pos) / float64(len(c.Users)*len(c.Items))
}

// ExtractCoClusters thresholds the model's affiliation vectors at
// threshold and returns all K co-clusters (possibly with empty member
// lists). Per the paper's definition, a co-cluster is "the subset of users
// and items for which [f_u]_c and [f_i]_c are large"; threshold
// operationalizes "large".
func ExtractCoClusters(m *core.Model, threshold float64) []CoCluster {
	out := make([]CoCluster, m.K())
	for c := range out {
		out[c].ID = c
	}
	for u := 0; u < m.NumUsers(); u++ {
		f := m.UserFactor(u)
		for c, v := range f {
			if v >= threshold {
				out[c].Users = append(out[c].Users, u)
				out[c].UserWeight = append(out[c].UserWeight, v)
			}
		}
	}
	for i := 0; i < m.NumItems(); i++ {
		f := m.ItemFactor(i)
		for c, v := range f {
			if v >= threshold {
				out[c].Items = append(out[c].Items, i)
				out[c].ItemWeight = append(out[c].ItemWeight, v)
			}
		}
	}
	for c := range out {
		sortByWeight(out[c].Users, out[c].UserWeight)
		sortByWeight(out[c].Items, out[c].ItemWeight)
	}
	return out
}

func sortByWeight(idx []int, w []float64) {
	order := make([]int, len(idx))
	for n := range order {
		order[n] = n
	}
	sort.SliceStable(order, func(a, b int) bool { return w[order[a]] > w[order[b]] })
	idx2 := make([]int, len(idx))
	w2 := make([]float64, len(w))
	for n, o := range order {
		idx2[n], w2[n] = idx[o], w[o]
	}
	copy(idx, idx2)
	copy(w, w2)
}

// Stats aggregates co-cluster shape metrics over non-empty co-clusters,
// reproducing the lower three panels of Fig 6.
type Stats struct {
	// NonEmpty counts co-clusters with at least one user and one item.
	NonEmpty int
	// MeanUsers and MeanItems are member counts averaged over non-empty
	// co-clusters.
	MeanUsers, MeanItems float64
	// MeanDensity is the mean co-cluster density.
	MeanDensity float64
	// MeanUserMemberships is the average number of co-clusters a user with
	// at least one membership belongs to (the overlap level).
	MeanUserMemberships float64
}

// ComputeStats evaluates Stats for clusters against the training matrix r.
func ComputeStats(clusters []CoCluster, r *sparse.Matrix) Stats {
	var s Stats
	memberships := make(map[int]int)
	for _, c := range clusters {
		for _, u := range c.Users {
			memberships[u]++
		}
		if len(c.Users) == 0 || len(c.Items) == 0 {
			continue
		}
		s.NonEmpty++
		s.MeanUsers += float64(len(c.Users))
		s.MeanItems += float64(len(c.Items))
		s.MeanDensity += c.Density(r)
	}
	if s.NonEmpty > 0 {
		s.MeanUsers /= float64(s.NonEmpty)
		s.MeanItems /= float64(s.NonEmpty)
		s.MeanDensity /= float64(s.NonEmpty)
	}
	if len(memberships) > 0 {
		total := 0
		for _, n := range memberships {
			total += n
		}
		s.MeanUserMemberships = float64(total) / float64(len(memberships))
	}
	return s
}

// Reason is one co-cluster's contribution to a recommendation: the social
// proof that similar users (who share the listed items with the target
// user) also bought the recommended item.
type Reason struct {
	// ClusterID is the co-cluster behind this reason.
	ClusterID int
	// Contribution is [f_u]_c · [f_i]_c, this co-cluster's share of the
	// affinity ⟨f_u, f_i⟩.
	Contribution float64
	// SimilarUsers are co-cluster members who bought the recommended item,
	// strongest affiliation first (capped by the MaxPeers option).
	SimilarUsers []int
	// SharedItems are co-cluster items the target user already bought,
	// strongest affiliation first (capped by MaxPeers).
	SharedItems []int
}

// Explanation is a fully-resolved recommendation rationale for one
// user-item pair.
type Explanation struct {
	User, Item  int
	Probability float64
	Reasons     []Reason
}

// An explanation lists the co-clusters contributing at least
// minContribution to the pair's affinity, and within each the users and
// items whose membership reaches membershipThreshold (the threshold
// ExtractCoClusters takes).
const (
	membershipThreshold = 0.3
	minContribution     = 0.05
)

// Options tunes explanation construction.
type Options struct {
	// MaxPeers caps the similar-user and shared-item lists. Default 5.
	MaxPeers int
}

func (o Options) withDefaults() Options {
	if o.MaxPeers == 0 {
		o.MaxPeers = 5
	}
	return o
}

// Explain builds the rationale for recommending item i to user u: the
// probability estimate plus, per contributing co-cluster, the similar users
// that bought i and the items u shares with the co-cluster. r is the
// training matrix the model was fitted on.
func Explain(m *core.Model, r *sparse.Matrix, u, i int, opts Options) Explanation {
	opts = opts.withDefaults()
	ex := Explanation{User: u, Item: i, Probability: m.Predict(u, i)}
	contrib := m.PairContributions(u, i)
	var active []weighted
	for c, v := range contrib {
		if v >= minContribution {
			active = append(active, weighted{c, v})
		}
	}
	byWeight(active)
	for _, a := range active {
		reason := Reason{ClusterID: a.id, Contribution: a.w}
		// Similar users: strong co-cluster members (other than u) who
		// bought item i.
		var peers []weighted
		for _, vu := range r.Col(i) {
			v := int(vu)
			if v == u {
				continue
			}
			if w := m.UserFactor(v)[a.id]; w >= membershipThreshold {
				peers = append(peers, weighted{v, w})
			}
		}
		byWeight(peers)
		for n := 0; n < len(peers) && n < opts.MaxPeers; n++ {
			reason.SimilarUsers = append(reason.SimilarUsers, peers[n].id)
		}
		// Shared items: the user's purchases that are strong in this
		// co-cluster.
		var shared []weighted
		for _, ji := range r.Row(u) {
			j := int(ji)
			if j == i {
				continue
			}
			if w := m.ItemFactor(j)[a.id]; w >= membershipThreshold {
				shared = append(shared, weighted{j, w})
			}
		}
		byWeight(shared)
		for n := 0; n < len(shared) && n < opts.MaxPeers; n++ {
			reason.SharedItems = append(reason.SharedItems, shared[n].id)
		}
		ex.Reasons = append(ex.Reasons, reason)
	}
	return ex
}

// weighted is a co-cluster, user or item id with the weight it is listed by.
type weighted struct {
	id int
	w  float64
}

// byWeight orders s by weight descending, then id ascending — a total
// order, so tied weights come back in the same order on every call and from
// every process.
func byWeight(s []weighted) {
	slices.SortFunc(s, func(a, b weighted) int {
		if c := cmp.Compare(b.w, a.w); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
}

// Render formats the explanation in the style of the paper's worked example
// (Section IV-C) and deployment screenshot (Fig 10), using the dataset's
// display names.
func (ex Explanation) Render(d *dataset.Dataset) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s is recommended to %s with confidence %.1f%% because:\n",
		d.ItemName(ex.Item), d.UserName(ex.User), 100*ex.Probability)
	if len(ex.Reasons) == 0 {
		b.WriteString("  (no co-cluster contributes substantially; weak recommendation)\n")
		return b.String()
	}
	for n, r := range ex.Reasons {
		fmt.Fprintf(&b, "  %c. [co-cluster %d, contribution %.2f] ", 'A'+n, r.ClusterID, r.Contribution)
		if len(r.SharedItems) > 0 {
			fmt.Fprintf(&b, "%s has purchased %s. ", d.UserName(ex.User), nameList(d.ItemName, r.SharedItems))
		}
		if len(r.SimilarUsers) > 0 {
			fmt.Fprintf(&b, "Clients with similar purchase history (e.g., %s) also bought %s.",
				nameList(d.UserName, r.SimilarUsers), d.ItemName(ex.Item))
		} else {
			fmt.Fprintf(&b, "This bundle pattern suggests %s.", d.ItemName(ex.Item))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func nameList(name func(int) string, idx []int) string {
	parts := make([]string, len(idx))
	for n, v := range idx {
		parts[n] = name(v)
	}
	return strings.Join(parts, ", ")
}

// RenderProbabilityMatrix draws the fitted probability grid of Fig 3:
// positives as [##], unknowns as their predicted probability in percent.
// Intended for small matrices (the 12x12 toy); rows are users.
func RenderProbabilityMatrix(m *core.Model, r *sparse.Matrix) string {
	var b strings.Builder
	b.WriteString("      ")
	for i := 0; i < m.NumItems(); i++ {
		fmt.Fprintf(&b, "%4d", i)
	}
	b.WriteByte('\n')
	for u := 0; u < m.NumUsers(); u++ {
		fmt.Fprintf(&b, "u%-4d ", u)
		for i := 0; i < m.NumItems(); i++ {
			if r.Has(u, i) {
				b.WriteString("  ##")
			} else if p := m.Predict(u, i); p >= 0.005 {
				fmt.Fprintf(&b, " %3.0f", 100*p)
			} else {
				b.WriteString("   .")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
