package ranktest

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"repro/internal/rank"
	"repro/internal/wire"
)

// The suite's HTTP client: the serve tier's public routes and a shard's
// two, spoken from the outside — JSON bodies spelled by key, frames
// through internal/wire — so one client drives every server, shard and
// router, and the plain helpers below are defined once for all their tests.

// FrameContentType is what a frame body is labelled with, both ways.
const FrameContentType = "application/x-ocular-frame"

// PostRaw posts body and returns the status, the answer's Content-Type
// and its bytes.
func PostRaw(t testing.TB, url, contentType string, body []byte, header map[string]string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), data
}

// PostJSON posts body as JSON and, when out is non-nil, decodes the answer
// — whatever its status — into it.
func PostJSON(t testing.TB, url string, body, out any) (status int) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	status, _, data := PostRaw(t, url, "application/json", b, nil)
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("POST %s: decoding %q: %v", url, data, err)
		}
	}
	return status
}

// Frame encodes a request the test knows to be representable.
func Frame(t testing.TB, req *wire.BatchRequest) []byte {
	t.Helper()
	frame, err := wire.AppendBatchRequest(nil, req)
	if err != nil {
		t.Fatalf("append request: %v", err)
	}
	return frame
}

// PostFrame posts one request frame.
func PostFrame(t testing.TB, url string, req *wire.BatchRequest) (status int, contentType string, body []byte) {
	t.Helper()
	return PostRaw(t, url, FrameContentType, Frame(t, req), nil)
}

// DecodeFrame decodes a 200 body as a response frame.
func DecodeFrame(t testing.TB, data []byte) *wire.BatchResponse {
	t.Helper()
	var out wire.BatchResponse
	if err := wire.DecodeBatchResponse(data, &out); err != nil {
		t.Fatalf("decoding response frame: %v", err)
	}
	return &out
}

// Codec is one route and the request shape it takes.
type Codec struct {
	Name, Path string
	Single     bool // one "user", not "users"
	Frame      bool // frames, not JSON
}

// The public routes of a full server and of a router, and a shard's pair.
var (
	Recommend  = Codec{Name: "recommend", Path: "/v1/recommend", Single: true}
	BatchJSON  = Codec{Name: "batch", Path: "/v1/batch"}
	BatchFrame = Codec{Name: "v2batch", Path: "/v2/batch", Frame: true}
	ShardJSON  = Codec{Name: "shard", Path: "/v1/shard/topm", Single: true}
	ShardFrame = Codec{Name: "v2shard", Path: "/v2/shard/topm", Frame: true}

	Codecs = []Codec{Recommend, BatchJSON, BatchFrame}
)

type jsonFilter struct {
	Allow []string `json:"allow_tags,omitempty"`
	Deny  []string `json:"deny_tags,omitempty"`
}

type jsonRequest struct {
	User    *int        `json:"user,omitempty"`
	Users   []int       `json:"users,omitempty"`
	M       int         `json:"m,omitempty"`
	Exclude []int       `json:"exclude_items,omitempty"`
	Filter  *jsonFilter `json:"filter,omitempty"`
	Tenant  string      `json:"tenant,omitempty"`
	Pin     uint64      `json:"expect_version,omitempty"`
}

type jsonList struct {
	User  int
	Items []struct {
		Item  int
		Score float64
	}
	Cached, Degraded bool
	Error            string
}

func (jl *jsonList) list() List {
	l := List{Cached: jl.Cached, Degraded: jl.Degraded, Err: jl.Error}
	for _, it := range jl.Items {
		l.Items, l.Scores = append(l.Items, it.Item), append(l.Scores, it.Score)
	}
	return l
}

// Client returns the Ranker.Rank that posts each case to base over cd.
func (cd Codec) Client(base string) RankFunc {
	return func(t testing.TB, c *Case) Answer { return cd.post(t, base, c) }
}

func (cd Codec) post(t testing.TB, base string, c *Case) Answer {
	t.Helper()
	var body []byte
	contentType := "application/json"
	if cd.Frame {
		contentType = FrameContentType
		req := wire.BatchRequest{M: uint32(c.M), AllowTags: c.Allow, DenyTags: c.Deny, Tenant: c.Tenant, ExpectVersion: c.Pin}
		for _, u := range c.Users {
			req.Users = append(req.Users, uint32(u))
		}
		for _, x := range c.Exclude {
			req.Exclude = append(req.Exclude, uint32(x))
		}
		body = Frame(t, &req)
	} else {
		req := jsonRequest{Users: c.Users, M: c.M, Exclude: c.Exclude, Tenant: c.Tenant, Pin: c.Pin}
		if cd.Single {
			req.User, req.Users = &c.Users[0], nil
		}
		if len(c.Allow)+len(c.Deny) > 0 {
			req.Filter = &jsonFilter{c.Allow, c.Deny}
		}
		var err error
		if body, err = json.Marshal(req); err != nil {
			t.Fatal(err)
		}
	}
	status, gotType, data := PostRaw(t, base+cd.Path, contentType, body, c.Header)
	ans := Answer{Status: status}
	switch {
	case status != http.StatusOK:
		// Only 200s carry frames: a refusal is a JSON error body on every codec.
		var e struct{ Code, Error string }
		if err := json.Unmarshal(data, &e); err != nil || gotType != "application/json" {
			t.Errorf("%s %s: status %d answered %s %q, want a JSON error body", cd.Path, c.Name, status, gotType, data)
		}
		ans.Code, ans.Error = e.Code, e.Error
	case cd.Frame:
		if gotType != FrameContentType {
			t.Errorf("%s %s: a frame was answered with Content-Type %q", cd.Path, c.Name, gotType)
		}
		resp, off := DecodeFrame(t, data), 0
		for i, n := range resp.Counts {
			l := List{Cached: resp.Status[i]&wire.StatusCached != 0, Degraded: resp.Status[i]&wire.StatusDegraded != 0}
			if resp.Status[i]&wire.StatusError != 0 {
				l.Err = "status bit"
			}
			for r := off; r < off+int(n); r++ {
				l.Items, l.Scores = append(l.Items, int(resp.Items[r])), append(l.Scores, resp.Scores[r])
			}
			off += int(n)
			ans.Lists = append(ans.Lists, l)
		}
	default:
		var reply struct {
			jsonList
			Results []jsonList
		}
		if err := json.Unmarshal(data, &reply); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", cd.Path, c.Name, data, err)
		}
		if cd.Single {
			reply.Results = []jsonList{reply.jsonList}
		}
		for n := range reply.Results {
			if got := reply.Results[n].User; got != c.Users[n] {
				t.Errorf("%s %s: slot %d answers for user %d, asked about %d", cd.Path, c.Name, n, got, c.Users[n])
			}
			ans.Lists = append(ans.Lists, reply.Results[n].list())
		}
	}
	return ans
}

// WithTenant routes every case that names no tenant through tenant.
func WithTenant(rank RankFunc, tenant string) RankFunc {
	return func(t testing.TB, c *Case) Answer {
		cc := *c
		if cc.Tenant == "" {
			cc.Tenant = tenant
		}
		return rank(t, &cc)
	}
}

// ShardSet is a router's core loop without the router: scatter a case to
// every shard over one shard codec, pinned to a model version, and merge
// the partials with rank.MergeTopM. Its Rank and Roll make a Ranker.
type ShardSet struct {
	Codec Codec
	Bases []string
	Pin   uint64 // the version every request pins; shards start at 1
}

// Rank scatters c and merges; a shard's refusal is the set's.
func (s *ShardSet) Rank(t testing.TB, c *Case) Answer {
	t.Helper()
	cc := *c
	if cc.Pin == 0 {
		cc.Pin = s.Pin
	}
	parts := make([][]rank.Partial, len(c.Users))
	for _, base := range s.Bases {
		ans := s.Codec.post(t, base, &cc)
		if ans.Status != http.StatusOK || len(ans.Lists) != len(c.Users) {
			return ans
		}
		for n, l := range ans.Lists {
			parts[n] = append(parts[n], rank.Partial{Items: l.Items, Scores: l.Scores})
		}
	}
	ans := Answer{Status: http.StatusOK, Lists: make([]List, len(c.Users))}
	for n := range parts {
		ans.Lists[n].Items, ans.Lists[n].Scores = rank.MergeTopM(c.M, parts[n]...)
	}
	return ans
}

// Roll reloads every shard, then — the flip — pins their new version; in
// between, the shards answer the old pin out of their two-deep history.
func (s *ShardSet) Roll(t testing.TB, flip bool) {
	t.Helper()
	if flip {
		s.Pin++
		return
	}
	for _, base := range s.Bases {
		if st := PostJSON(t, base+"/v1/reload", nil, nil); st != http.StatusOK {
			t.Fatalf("shard %s reload: status %d", base, st)
		}
	}
}
