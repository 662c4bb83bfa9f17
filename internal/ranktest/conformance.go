package ranktest

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rank"
)

// Case is one logical request: the users to rank and the filter surface
// they share. Tenant, Pin and Header belong to refusal rows (and to the
// clients that fill them in: WithTenant, ShardSet).
type Case struct {
	Name        string
	Users       []int
	M           int
	Exclude     []int
	Allow, Deny []string
	Tenant      string
	Pin         uint64            // a shard request's expect_version
	Header      map[string]string // extra request headers
}

// BadUser is beyond every fixture's 120 users.
const BadUser = 99999

// Cases is the one case table: seven single-user requests (short, deep,
// longer than the catalogue, excluded, tag-filtered, both) and three
// batches (plain, a repeated user, a slot that must fail alone). Within a
// pass no two cases share a cache key — "plain" and "filtered" differ in
// nothing but the filters, so a cache keyed without them shows. "plain"
// and "m1" are picked so that, staged, the boosted item sits beyond the
// first m of its own shard: a merge that did not over-fetch shows too.
var Cases = []Case{
	{Name: "plain", Users: []int{23}, M: 6},
	{Name: "m1", Users: []int{2}, M: 1},
	{Name: "deep", Users: []int{42}, M: 25},
	{Name: "exclude", Users: []int{119}, M: 10, Exclude: []int{0, 3, 17, 40, 41, 59}},
	{Name: "overlong", Users: []int{3}, M: MaxM},
	{Name: "filtered", Users: []int{23}, M: 6, Allow: []string{"low", "even"}, Deny: []string{"rare"}},
	{Name: "exclude+filter", Users: []int{64}, M: 12, Exclude: []int{2, 4}, Deny: []string{"even"}},
	{Name: "batch", Users: []int{5, 118, 0, 41, 63, 2, 90, 33}, M: 6, Exclude: []int{4, 9}},
	{Name: "repeated user", Users: []int{7, 0, 119, 7, 42}, M: 6, Exclude: []int{41, 3, 60}, Deny: []string{"rare"}},
	{Name: "bad slot", Users: []int{1, BadUser, 2}, M: 3},
}

// Refusal is one row of the refusal table: a request that must be turned
// away whole, with this status, this error code and this message class.
type Refusal struct {
	Case
	Status  int
	Code    string
	Message string // substring of the error text
}

// List is one user's slot of an answer.
type List struct {
	Items    []int // global item ids
	Scores   []float64
	Cached   bool
	Degraded bool
	Err      string // the slot failed alone; no list
}

// Answer is what an implementation made of one case: a list per user in
// request order under Status 200, or the refusal of the whole request.
type Answer struct {
	Status      int
	Code, Error string
	Lists       []List
}

// RankFunc answers one case: "rank these users".
type RankFunc func(t testing.TB, c *Case) Answer

// Ranker is one implementation of "rank this user" and what Conformance
// needs to know about it.
type Ranker struct {
	Rank RankFunc
	// Roll, when set, takes the implementation through a rollout of the
	// file Conformance has just installed at Fixture.Path: Roll(false) does
	// what precedes the implementation's flip (a router's shards reload),
	// after which it must still answer from the OLD model; Roll(true) is the
	// flip (a server's reload, a router's table flip), after which it
	// answers from the NEW one.
	Roll func(t testing.TB, flip bool)

	Single bool         // takes one user per request; the batch cases are skipped
	Cache  bool         // answers a repeat from a cache, and says so
	Stages []rank.Stage // re-ranks through these (Fixture.Stages, or none)
	Lo, Hi int          // ranks the item range [Lo, Hi) only; Hi 0 = the catalogue
	// Who names the owner of the limits in refusal messages ("server",
	// "router"); empty for an implementation that cannot refuse (an engine).
	Who string
	// RefusesBadUser: an out-of-range user refuses the request instead of
	// failing its slot — every Single implementation, and a shard's frames.
	RefusesBadUser bool
	// Refusals are the implementation's own rows, beside the common ones.
	Refusals []Refusal
}

// Filters is the filter stack of one user of a case, in global item ids:
// the training row, then the case's own (RequestFilters).
func (fx *Fixture) Filters(t testing.TB, user int, c *Case) []rank.Filter {
	t.Helper()
	return append([]rank.Filter{rank.TrainRow(fx.Train, user)}, fx.RequestFilters(t, c)...)
}

// RequestFilters is what a case asks of every user, in global item ids: the
// exclusion list, the tag filters — the stack of an engine that owns the
// training row (rank.Config.Train).
func (fx *Fixture) RequestFilters(t testing.TB, c *Case) []rank.Filter {
	t.Helper()
	var fs []rank.Filter
	if len(c.Exclude) > 0 {
		fs = append(fs, rank.ExcludeItems(c.Exclude))
	}
	for _, tf := range []struct {
		tags  []string
		build func(...string) (rank.Filter, error)
	}{{c.Allow, fx.Tags.Allow}, {c.Deny, fx.Tags.Deny}} {
		if len(tf.tags) > 0 {
			f, err := tf.build(tf.tags...)
			if err != nil {
				t.Fatal(err)
			}
			fs = append(fs, f)
		}
	}
	return fs
}

// outside removes what an item-range implementation does not own.
type outside struct{ lo, hi int }

func (o outside) Excluded(item int) bool { return item < o.lo || item >= o.hi }

// Want is the reference answer to c under model m: the trained heap
// model's own scorer, rank.Select under the case's filters, then r's
// stages. No file, no cache, no codec, no partition: whatever file format
// is served, every served score must be the heap model's bits.
func (fx *Fixture) Want(t testing.TB, m *core.Model, r *Ranker, c *Case) []List {
	t.Helper()
	buf := make([]float64, m.NumItems())
	want := make([]List, len(c.Users))
	for n, u := range c.Users {
		if u < 0 || u >= m.NumUsers() {
			want[n].Err = "user out of range"
			continue
		}
		filters := fx.Filters(t, u, c)
		if r.Hi != 0 {
			filters = append(filters, outside{r.Lo, r.Hi})
		}
		m.ScoreUser(u, buf)
		items := rank.Select(buf, rank.StagesOverFetch(c.M, r.Stages), filters...)
		scores := make([]float64, len(items))
		for i, it := range items {
			scores[i] = buf[it]
		}
		want[n].Items, want[n].Scores = rank.MergeTopMStaged(c.M, r.Stages, rank.Partial{Items: items, Scores: scores})
	}
	return want
}

// Check asks r to rank c and holds its answer to the reference (Compare),
// returning it for what else the caller checks.
func (fx *Fixture) Check(t testing.TB, label string, r *Ranker, m *core.Model, c *Case) Answer {
	t.Helper()
	ans := r.Rank(t, c)
	fx.Compare(t, label, r, m, c, ans)
	return ans
}

// Compare holds r's answer to c to the reference under model m: the same
// items, the same float64 score bits, the same list lengths, a failed slot
// exactly where the reference has one and nothing degraded; and, where no
// stage moves scores, every score equal to the model's Predict, the
// per-item path /v1/explain reports.
func (fx *Fixture) Compare(t testing.TB, label string, r *Ranker, m *core.Model, c *Case, ans Answer) {
	t.Helper()
	want := fx.Want(t, m, r, c)
	if ans.Status != 200 || len(ans.Lists) != len(want) {
		t.Errorf("%s: status %d %q with %d lists, want 200 with %d", label, ans.Status, ans.Error, len(ans.Lists), len(want))
		return
	}
	for n, got := range ans.Lists {
		slot := fmt.Sprintf("%s slot %d (user %d)", label, n, c.Users[n])
		if want[n].Err != "" {
			if got.Err == "" || len(got.Items) != 0 {
				t.Errorf("%s: served %d items with error %q, want a failed slot", slot, len(got.Items), got.Err)
			}
			continue
		}
		if got.Err != "" || got.Degraded {
			t.Errorf("%s: error %q degraded %v on a healthy implementation", slot, got.Err, got.Degraded)
			continue
		}
		if !slices.Equal(got.Items, want[n].Items) {
			t.Errorf("%s: items %v, reference %v", slot, got.Items, want[n].Items)
			continue
		}
		for i, it := range got.Items {
			if math.Float64bits(got.Scores[i]) != math.Float64bits(want[n].Scores[i]) {
				t.Errorf("%s rank %d: score %v, reference %v (must be bit-identical)", slot, i, got.Scores[i], want[n].Scores[i])
			}
			// (A boost stage moves scores off the model's on purpose.)
			if p := m.Predict(c.Users[n], it); len(r.Stages) == 0 && got.Scores[i] != p {
				t.Errorf("%s rank %d: score %v, the model's Predict %v", slot, i, got.Scores[i], p)
			}
		}
	}
}

// repeats reports whether slot n's user appears elsewhere in users.
func repeats(users []int, n int) bool {
	for i, u := range users {
		if i != n && u == users[n] {
			return true
		}
	}
	return false
}

// Conformance holds one implementation to the suite, each leg where the
// implementation has the dimension:
//
//   - every case equals the reference (Check), a batch therefore its
//     singles slot for slot — a repeated user included — and an
//     out-of-range user fails its slot alone;
//   - a first sight is not cached; a repeat is answered cached exactly
//     where the implementation has a cache, with the same bits;
//   - every refusal row is refused with its status, code and message;
//   - across a rollout the answers are the OLD model's — out of the cache,
//     where there is one — until the implementation's flip and the NEW
//     model's after it, cold again: never a mix, never a stale hit.
//
// It leaves the implementation serving Fixture.Next when it has a Roll.
func Conformance(t *testing.T, fx *Fixture, r *Ranker) {
	pass := func(name string, m *core.Model, cached bool) {
		t.Run(name, func(t *testing.T) {
			for i := range Cases {
				c := &Cases[i]
				if len(c.Users) > 1 && (r.Single || r.RefusesBadUser && slices.Contains(c.Users, BadUser)) {
					continue // not a request r takes, or one it refuses: a refusal row
				}
				ans := fx.Check(t, c.Name, r, m, c)
				for n, l := range ans.Lists {
					// On a first pass, which sight of a repeated user leads the
					// computation and which shares it is the scheduler's choice.
					if l.Err != "" || !cached && repeats(c.Users, n) {
						continue
					}
					if l.Cached != cached {
						t.Errorf("%s slot %d (user %d): cached = %v, want %v", c.Name, n, c.Users[n], l.Cached, cached)
					}
				}
			}
		})
	}
	pass("cold", fx.Cur, false)
	pass("repeat", fx.Cur, r.Cache)
	if r.Who != "" {
		t.Run("refusals", func(t *testing.T) { Refused(t, r, refusals(r)...) })
	}
	if r.Roll == nil {
		return
	}
	if err := fx.Install(fx.Next); err != nil {
		t.Fatal(err)
	}
	r.Roll(t, false)
	pass("landed", fx.Cur, r.Cache)
	r.Roll(t, true)
	pass("flipped", fx.Next, false)
	pass("flipped repeat", fx.Next, r.Cache)
}

// refusals is the one refusal table, for r: the limits every implementation
// enforces, their owner named in the messages, the rows r's request shape
// cannot express left out, r's own rows appended.
func refusals(r *Ranker) []Refusal {
	big := make([]int, 1000)
	for i := range big {
		big[i] = i % 50
	}
	rows := []Refusal{
		{Case{Name: "oversized body", Users: []int{1}, Exclude: big}, 400, "", fmt.Sprintf("request body exceeds %d bytes", MaxBody)},
		{Case{Name: "m over the cap", Users: []int{1}, M: MaxM + 1}, 400, "", fmt.Sprintf("m=%d exceeds the %s cap of %d", MaxM+1, r.Who, MaxM)},
	}
	if r.Single || r.RefusesBadUser {
		rows = append(rows, Refusal{Case{Name: "user out of range", Users: []int{BadUser}}, 400, "", fmt.Sprintf("user %d out of range", BadUser)})
	}
	if !r.Single {
		rows = append(rows,
			Refusal{Case{Name: "empty users", M: 5}, 400, "", "users must be non-empty"},
			Refusal{Case{Name: "batch over the cap", Users: big[:MaxBatch+1]}, 400, "", fmt.Sprintf("batch of %d users exceeds the %s cap of %d", MaxBatch+1, r.Who, MaxBatch)})
	}
	return append(rows, r.Refusals...)
}

// The filter rows are for the implementations that validate a request's
// filters before they rank any of it — not a tenant's batch (each user's
// own arm validates them: the slots fail) nor, for tags, a router's batch
// (the table is the shards', whose 400 fails every slot).
var (
	ExcludeOutOfRange = Refusal{Case{Name: "exclude out of range", Users: []int{1}, Exclude: []int{99999}}, 400, "", "exclude item 99999 out of range"}
	UnknownTag        = Refusal{Case{Name: "unknown tag", Users: []int{1}, Deny: []string{"no-such-tag"}}, 400, "", `unknown tag "no-such-tag"`}
)

// Refused requires r to refuse every row as the row says. That the refusal
// is a JSON error body on every codec is the HTTP clients' to check: they
// fail a non-200 answer they cannot decode as one.
func Refused(t testing.TB, r *Ranker, rows ...Refusal) {
	t.Helper()
	for _, row := range rows {
		got := r.Rank(t, &row.Case)
		if got.Status != row.Status || got.Code != row.Code || !strings.Contains(got.Error, row.Message) {
			t.Errorf("%s: status %d code %q error %q; want %d %q …%s…",
				row.Name, got.Status, got.Code, got.Error, row.Status, row.Code, row.Message)
		}
	}
}
