package ranktest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/rank"
	"repro/internal/wire"
)

// The suite's HTTP client: the serve tier's public routes and a shard's
// two, spoken from the outside — JSON bodies spelled by key, frames and
// stream messages through internal/wire — so one client drives every
// server, shard and router, and the plain helpers below are defined once
// for all their tests.

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
	Stream     bool // over a frame stream (GET Path upgraded), not a POST
}

// The public routes of a full server and of a router, and a shard's two:
// JSON and a frame on a stream.
var (
	Recommend   = Codec{Name: "recommend", Path: "/v1/recommend", Single: true}
	BatchJSON   = Codec{Name: "batch", Path: "/v1/batch"}
	BatchFrame  = Codec{Name: "v2batch", Path: "/v2/batch", Frame: true}
	ShardJSON   = Codec{Name: "shard", Path: "/v1/shard/topm", Single: true}
	ShardStream = Codec{Name: "v2stream", Path: "/v2/shard/topm", Frame: true, Stream: true}

	Codecs = []Codec{Recommend, BatchJSON, BatchFrame}
)

// Stream is the client end of a frame stream (wire.StreamProtocol).
type Stream struct {
	net.Conn
	br *bufio.Reader
}

// OpenStream upgrades GET url to a frame stream; t ends it.
func OpenStream(t testing.TB, rawURL string) *Stream {
	t.Helper()
	u, err := url.Parse(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", u.Host)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(time.Minute)) // a hung test fails, never hangs
	up := "GET " + u.Path + " HTTP/1.1\r\nHost: " + u.Host + "\r\nConnection: Upgrade\r\nUpgrade: " + wire.StreamProtocol + "\r\n\r\n"
	if _, err := io.WriteString(conn, up); err != nil {
		t.Fatal(err)
	}
	s := &Stream{Conn: conn, br: bufio.NewReader(conn)}
	resp, err := http.ReadResponse(s.br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		t.Fatalf("GET %s with Upgrade: %s answered %s", rawURL, wire.StreamProtocol, resp.Status)
	}
	return s
}

// Send writes one request message carrying frame.
func (s *Stream) Send(t testing.TB, budgetMs uint32, traceID string, frame []byte) {
	t.Helper()
	msg, err := wire.AppendStreamRequest(nil, budgetMs, traceID, frame)
	if err == nil {
		_, err = s.Write(msg)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// Answer reads one answer: its status and body, or the error that cut it
// short (io.EOF at a message boundary: the server ended the stream).
func (s *Stream) Answer() (status int, body []byte, err error) {
	var p [wire.StreamAnswerLen]byte
	if _, err := io.ReadFull(s.br, p[:]); err != nil {
		return 0, nil, err
	}
	n, st := wire.ParseStreamAnswer(p[:])
	if n > wire.MaxFrameLen {
		return int(st), nil, fmt.Errorf("stream answer declares %d bytes", n)
	}
	body = make([]byte, n)
	_, err = io.ReadFull(s.br, body)
	return int(st), body, err
}

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
	var status int
	var gotType string
	var data []byte
	if cd.Stream {
		if len(c.Header) > 0 {
			t.Fatalf("%s %s: a stream message carries no headers", cd.Path, c.Name)
		}
		s := OpenStream(t, base+cd.Path)
		s.Send(t, 0, "", body)
		var err error
		if status, data, err = s.Answer(); err != nil {
			t.Fatalf("%s %s: reading the stream's answer: %v", cd.Path, c.Name, err)
		}
		_ = s.Close()
		// A stream answer has no Content-Type: only a 200 carries a frame.
		gotType = "application/json"
		if status == http.StatusOK {
			gotType = FrameContentType
		}
	} else {
		status, gotType, data = PostRaw(t, base+cd.Path, contentType, body, c.Header)
	}
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

// Overlapped sends every case n times at once and answers the first copy's
// answer, after checking that every copy answered alike: requests in flight
// together on one implementation answer as one alone does. Its Ranker must
// not cache, since which copy fills a cache entry is the scheduler's choice.
// Below 2, it is rank.
func Overlapped(rank RankFunc, n int) RankFunc {
	if n < 2 {
		return rank
	}
	return func(t testing.TB, c *Case) Answer {
		t.Helper()
		ans := make([]Answer, n)
		var wg sync.WaitGroup
		for i := range ans {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ans[i] = rank(t, c)
			}()
		}
		wg.Wait()
		for i := 1; i < n; i++ {
			if !reflect.DeepEqual(ans[i], ans[0]) {
				t.Errorf("%s: copy %d of %d in flight answered %+v, copy 0 %+v", c.Name, i, n, ans[i], ans[0])
			}
		}
		return ans[0]
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
