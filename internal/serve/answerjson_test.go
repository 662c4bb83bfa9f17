package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ranktest"
)

// structJSON is the oracle of the front's JSON answers: a assembled into
// the documented structs — key order, omitempty decisions and all — and
// encoded by a json.Encoder with HTML escaping off, as the front answered
// before it appended from the columns.
func structJSON(a *Answer, users []int, recommend bool) ([]byte, error) {
	scored := func(off, n int) []ScoredItem {
		items := make([]ScoredItem, n)
		for j := range items {
			items[j] = ScoredItem{Item: int(a.Cols.Items[off+j]), Score: a.Cols.Scores[off+j]}
		}
		return items
	}
	var v any
	if recommend {
		sl := &a.Slots[0]
		resp := RecommendResponse{User: users[0], Items: scored(0, int(a.Cols.Counts[0])), Cached: a.Cols.Cached[0],
			ModelVersion: a.ModelVersion, RouteEpoch: a.RouteEpoch, Degraded: sl.Degraded}
		if arm := sl.arm; arm != nil {
			resp.ModelVersion = sl.armVersion
			resp.Tenant, resp.Experiment, resp.Arm, resp.Model = arm.tenant, arm.expName, arm.name, arm.model.name
		}
		v = resp
	} else {
		results, off := make([]BatchResult, len(users)), 0
		for i, u := range users {
			sl, n := &a.Slots[i], int(a.Cols.Counts[i])
			res := BatchResult{User: u, Degraded: sl.Degraded}
			if sl.Err != nil {
				res.Error = sl.Err.Error()
			} else {
				res.Items, res.Cached = scored(off, n), a.Cols.Cached[i]
			}
			if sl.arm != nil {
				res.Arm = sl.arm.name
				if sl.Err == nil {
					res.ArmModelVersion = sl.armVersion
				}
			}
			results[i] = res
			off += n
		}
		v = BatchResponse{Results: results, ModelVersion: a.ModelVersion, RouteEpoch: a.RouteEpoch}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// answerGen draws answers of every producer — a server's, a tenant-routed
// server's, a router's and a degraded router's — from a seeded source, its
// strings (error messages, arm, experiment, tenant and model names) and
// scores from the pools it is given.
type answerGen struct {
	r       *rand.Rand
	strs    []string
	scores  []float64
	fresh   bool // also draw random strings and float bits
	maxUser int
}

func (g *answerGen) str() string {
	if g.fresh && g.r.IntN(4) == 0 {
		b := make([]byte, g.r.IntN(12))
		for i := range b {
			b[i] = byte(g.r.Uint32())
		}
		return string(b)
	}
	return g.strs[g.r.IntN(len(g.strs))]
}

func (g *answerGen) score() float64 {
	if g.fresh && g.r.IntN(3) == 0 {
		if f := math.Float64frombits(g.r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			return f
		}
		return g.r.Float64()
	}
	return g.scores[g.r.IntN(len(g.scores))]
}

func (g *answerGen) version() uint64 {
	switch g.r.IntN(4) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return math.MaxUint64
	}
	return g.r.Uint64()
}

func (g *answerGen) user() int {
	switch g.r.IntN(4) {
	case 0:
		return 0
	case 1:
		return -1 - g.r.IntN(1<<20) // a batch refuses it in its slot
	case 2:
		return math.MaxInt64
	}
	return g.r.IntN(g.maxUser)
}

func (g *answerGen) item() uint32 {
	switch g.r.IntN(4) {
	case 0:
		return 0
	case 1:
		return math.MaxUint32
	}
	return g.r.Uint32N(100000)
}

// answer draws one answer: a recommend's one served user, or a batch of up
// to 6 users some of which failed (an error slot may carry an empty
// message), with lists of 0 to 4 items.
func (g *answerGen) answer(recommend bool) (*Answer, []int) {
	n := 1
	if !recommend {
		n = 1 + g.r.IntN(6)
	}
	a := new(Answer)
	a.Reset(n)
	users := make([]int, n)
	producer := g.r.IntN(4) // server, tenant, router, degraded router
	if producer <= 1 {
		a.ModelVersion = g.version()
	} else {
		a.RouteEpoch = g.version()
	}
	for i := range users {
		users[i] = g.user()
		sl := &a.Slots[i]
		if !recommend && g.r.IntN(4) == 0 {
			sl.Err = &Error{Status: http.StatusBadRequest, Msg: g.str()}
			a.Cols.Counts = append(a.Cols.Counts, 0)
		} else {
			count := g.r.IntN(5)
			a.Cols.Counts = append(a.Cols.Counts, uint32(count))
			for range count {
				a.Cols.Items = append(a.Cols.Items, g.item())
				a.Cols.Scores = append(a.Cols.Scores, g.score())
			}
		}
		a.Cols.Cached = append(a.Cols.Cached, g.r.IntN(2) == 0)
		switch producer {
		case 1:
			sl.arm = &arm{name: g.str(), expName: g.str(), tenant: g.str(), model: &namedModel{name: g.str()}}
			sl.armVersion = g.version()
		case 3:
			sl.Degraded = g.r.IntN(2) == 0
		}
	}
	return a, users
}

// checkIdentity requires the appender to write exactly what structJSON
// does — or, for a score encoding/json refuses, to refuse it with the same
// error.
func checkIdentity(t *testing.T, a *Answer, users []int, recommend bool) {
	t.Helper()
	want, wantErr := structJSON(a, users, recommend)
	var got []byte
	var err error
	if recommend {
		got, err = a.appendRecommend([]byte("stale"), users[0])
	} else {
		got, err = a.appendBatch([]byte("stale"), users)
	}
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("appender error %v, encoding/json's %v", err, wantErr)
	}
	if err == nil && !bytes.Equal(got[len("stale"):], want) {
		t.Fatalf("appender wrote\n%q\nencoding/json writes\n%q", got[len("stale"):], want)
	}
}

// identityStrings are the names and messages the property test draws:
// empty, plain, and every class of byte encoding/json escapes or replaces.
var identityStrings = []string{
	"", "control", "ranker-v2", `quo"te`, `back\slash`, `"\"`,
	string([]byte{0, 1, 0x1f, 0x7f}), "\b\f\n\r\t", "<html> & 'single'",
	string([]byte{'b', 'a', 'd', 0xff, 0xfe}), string([]byte{0xed, 0xa0, 0x80}), string([]byte{0xe2, 0x82}),
	"line" + string(rune(0x2028)) + "para" + string(rune(0x2029)), "héllo wörld", string(rune(0x1F600)),
	string(rune(0xFFFD)),
}

// identityScores are the scores it draws: the boundaries of encoding/json's
// float rule, subnormals and a negative zero among them.
var identityScores = []float64{
	0, 1, 0.5, 0.123456789, 1.0 / 3, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 1e-7, 9.99999e-7, 1e-6, 1.0000001e-6,
	1e-300, 1e20, 999999999999999999999.0, 1e21, 1.5e300, math.MaxFloat64,
	float64(float32(0.7)), 1 - 1e-16,
}

// TestAppenderMatchesEncodingJSON: on 5,000 random answers of every
// producer — recommends and batches, error slots with and without a
// message, empty lists, hostile names, boundary scores, versions and
// epochs 0 and not — the front's appender writes encoding/json's bytes.
func TestAppenderMatchesEncodingJSON(t *testing.T) {
	g := &answerGen{r: rand.New(rand.NewPCG(29, 1)), strs: identityStrings, scores: identityScores, fresh: true, maxUser: 1 << 30}
	for i := range 5000 {
		recommend := i%3 == 0
		a, users := g.answer(recommend)
		checkIdentity(t, a, users, recommend)
	}
}

// TestAppenderEdgeCases pins the cases the property test could draw only
// by luck: an error slot with an empty message (omitted, as omitempty
// drops it), an empty list on a recommend ([]) and in a batch slot
// (omitted), and each non-finite score (refused with encoding/json's
// error, never written).
func TestAppenderEdgeCases(t *testing.T) {
	a := new(Answer)
	a.Reset(3)
	a.Cols.Counts = append(a.Cols.Counts, 0, 0, 1)
	a.Cols.Items = append(a.Cols.Items, 7)
	a.Cols.Scores = append(a.Cols.Scores, 1e-7)
	a.Cols.Cached = append(a.Cols.Cached, true, false, false)
	a.Slots[0].Err = &Error{}
	a.ModelVersion = 3
	users := []int{4, 5, 6}
	checkIdentity(t, a, users, false)
	got, _ := a.appendBatch(nil, users)
	if want := `{"results":[{"user":4},{"user":5},{"user":6,"items":[{"item":7,"score":1e-7}]}],"model_version":3}` + "\n"; string(got) != want {
		t.Errorf("batch: %s, want %s", got, want)
	}
	one := new(Answer)
	one.Reset(1)
	one.Cols.Append(nil, nil, true)
	one.ModelVersion = 3
	checkIdentity(t, one, users[:1], true)
	got, _ = one.appendRecommend(nil, 4)
	if want := `{"user":4,"items":[],"cached":true,"model_version":3}` + "\n"; string(got) != want {
		t.Errorf("recommend: %s, want %s", got, want)
	}
	one.Cols.Reset()
	one.Cols.Append([]int{7}, []float64{0.5}, false)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a.Cols.Scores[0], one.Cols.Scores[0] = bad, bad
		checkIdentity(t, a, users, false)
		checkIdentity(t, one, users[:1], true)
	}
}

// FuzzFrontJSON: whatever answer the seed draws, with the fuzzer's score,
// error message and names in it, the appender writes encoding/json's bytes
// or refuses encoding/json's way.
func FuzzFrontJSON(f *testing.F) {
	f.Add(uint64(1), 0.5, "", "control")
	f.Add(uint64(2), 1e-7, "user 99999 out of range (120 users)", `a"b\c`)
	f.Add(uint64(3), math.SmallestNonzeroFloat64, string([]byte{0xff, 0}), "line"+string(rune(0x2028)))
	f.Add(uint64(4), math.NaN(), "x", "")
	f.Add(uint64(5), 1e21, "<&>", string(rune(0x2029)))
	f.Fuzz(func(t *testing.T, seed uint64, score float64, msg, name string) {
		g := &answerGen{r: rand.New(rand.NewPCG(seed, 2)), strs: []string{msg, name, ""},
			scores: []float64{score, 0, 1}, maxUser: 1000}
		for i := range 4 {
			recommend := i%2 == 0
			a, users := g.answer(recommend)
			checkIdentity(t, a, users, recommend)
		}
	})
}

// TestFrontRefusesNonFiniteScore: an answer holding a score encoding/json
// cannot write is a 500 carrying encoding/json's error on both JSON routes,
// never a 200 with an empty or NaN-bearing body; a finite answer goes out
// in one write with its Content-Length.
func TestFrontRefusesNonFiniteScore(t *testing.T) {
	bad := 0.5
	pipe := func(r *http.Request, req *BatchRequest, m, workers int, a *Answer) error {
		a.Reset(len(req.Users))
		for range req.Users {
			a.Cols.Append([]int{1, 2}, []float64{0.25, bad}, false)
		}
		a.ModelVersion = 1
		return nil
	}
	endpoints := []string{"recommend", "batch", "batch_binary"}
	mux := http.NewServeMux()
	NewFront(NewEdge("server", 1<<20, 100, 100, nil, endpoints), pipe, 1).Mount(mux, nil)
	post := func(path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec
	}
	for _, path := range []string{"/v1/recommend", "/v1/batch"} {
		body := `{"users":[1,2]}`
		if path == "/v1/recommend" {
			body = `{"user":1}`
		}
		bad = 0.5
		rec := post(path, body)
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Length") != strconv.Itoa(rec.Body.Len()) {
			t.Errorf("%s: status %d, Content-Length %q for %d bytes", path, rec.Code, rec.Header().Get("Content-Length"), rec.Body.Len())
		}
		for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			bad = f
			rec := post(path, body)
			want := fmt.Sprintf(`{"error":"json: unsupported value: %s"}`+"\n", strconv.FormatFloat(f, 'g', -1, 64))
			if rec.Code != http.StatusInternalServerError || rec.Body.String() != want {
				t.Errorf("%s with score %v: %d %q, want 500 %q", path, f, rec.Code, rec.Body, want)
			}
		}
	}
}

// TestWriteJSONRefusesBeforeWriting: WriteJSON encodes before it writes, so
// a value encoding/json refuses is a 500 with the error, not a 200 with an
// empty body; an accepted value goes out with its Content-Length.
func TestWriteJSONRefusesBeforeWriting(t *testing.T) {
	rec := httptest.NewRecorder()
	if st := WriteJSON(rec, http.StatusOK, FoldInResponse{Bias: math.Inf(1)}); st != http.StatusInternalServerError {
		t.Errorf("WriteJSON reported status %d, want 500", st)
	}
	if want := `{"error":"json: unsupported value: +Inf"}` + "\n"; rec.Code != http.StatusInternalServerError || rec.Body.String() != want {
		t.Errorf("got %d %q, want 500 %q", rec.Code, rec.Body, want)
	}
	rec = httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, ErrorBody{Error: "<ok>"})
	if want := `{"error":"<ok>"}` + "\n"; rec.Code != http.StatusOK || rec.Body.String() != want ||
		rec.Header().Get("Content-Length") != strconv.Itoa(len(want)) {
		t.Errorf("got %d %q (Content-Length %q), want 200 %q", rec.Code, rec.Body, rec.Header().Get("Content-Length"), want)
	}
}

// batchJSONServer serves the conformance fixture's model with a cache of
// cacheSize lists, ranking a batch on the request's goroutine, and posts
// /v1/batch bodies to it through a recorder.
func batchJSONServer(tb testing.TB, cacheSize int) (post func(body []byte) *httptest.ResponseRecorder, users int) {
	fx := ranktest.New(tb, ranktest.Variant{F32: true})
	srv, err := NewFromFile(Config{ModelPath: fx.Path, Train: fx.Train, CacheSize: cacheSize, Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	h := srv.Handler()
	return func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			tb.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec
	}, fx.Train.Rows()
}

// batchBody is a /v1/batch body asking for m items of each of users.
func batchBody(users []int, m int) []byte {
	b := []byte(`{"users":[`)
	for i, u := range users {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(u), 10)
	}
	return fmt.Appendf(b, `],"m":%d}`, m)
}

// TestBatchJSONAllocsPerUser: a /v1/batch decodes into the answer's pooled
// request and encodes from its columns into its pooled buffer, so on a full
// cache one more user costs no allocation, hit or miss — 32 users cost
// what 1 does. Each size is measured three times and its least count kept,
// so a pool the GC emptied does not show as a user's cost.
func TestBatchJSONAllocsPerUser(t *testing.T) {
	skipUnderRace(t)
	post, rows := batchJSONServer(t, 16)
	const m = 10
	next := 0
	fresh := func(n int) []byte { // n users the cache has most likely evicted
		users := make([]int, n)
		for i := range users {
			users[i], next = next, (next+1)%rows
		}
		return batchBody(users, m)
	}
	hot := func(n int) []byte { return batchBody(make([]int, n), m) } // user 0, n times
	for range 4 {
		post(fresh(32)) // the cache full, every pool and buffer grown
	}
	for _, tc := range []struct {
		name string
		body func(int) []byte
	}{{"misses", fresh}, {"hits", hot}} {
		allocs := func(n int) float64 {
			least := math.Inf(1)
			for range 3 {
				bodies := make([][]byte, 8) // built outside the measured calls
				for i := range bodies {
					bodies[i] = tc.body(n)
				}
				i := 0
				least = min(least, testing.AllocsPerRun(len(bodies)-1, func() { post(bodies[i]); i++ }))
			}
			return least
		}
		if one, all := allocs(1), allocs(32); one != all {
			t.Errorf("%s: a batch of 1 costs %v allocations, of 32 %v: %v per user, want 0", tc.name, one, all, (all-one)/31)
		}
	}
}

// BenchmarkFrontBatchJSON: one 32-user /v1/batch of m = 20 through a full
// server's handler into a recorder, every user a cache hit — decode, the
// cached ranking, encode and the write, without a socket.
func BenchmarkFrontBatchJSON(b *testing.B) {
	post, _ := batchJSONServer(b, 1024)
	users := make([]int, 32)
	for i := range users {
		users[i] = i
	}
	body := batchBody(users, 20)
	post(body) // every user cached
	b.ReportAllocs()
	for b.Loop() {
		post(body)
	}
}
