package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// client is the load generator's HTTP side: one keep-alive connection
// per worker, no compression, bodies read in full.
type client struct{ hc *http.Client }

func newClient(conns int) *client {
	return &client{hc: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        4 * conns,
			MaxIdleConnsPerHost: 4 * conns,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post returns the status and the response body appended to buf[:0].
func (c *client) post(url, ctype string, body, buf []byte) (int, []byte, error) {
	resp, err := c.hc.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		return 0, buf[:0], err
	}
	defer resp.Body.Close()
	b := bytes.NewBuffer(buf[:0])
	_, err = b.ReadFrom(resp.Body)
	return resp.StatusCode, b.Bytes(), err
}

func (c *client) getJSON(url string, out any) error {
	resp, err := c.hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(out)
}

// endpoint is where a phase sends its calls and how it encodes them.
type endpoint struct {
	URL    string
	Frames bool // binary frames (POST /v2/batch) instead of JSON
	Batch  bool // batch body shape
}

func (e endpoint) contentType() string {
	if e.Frames {
		return frameContentType
	}
	return "application/json"
}

func (e endpoint) encode(c call, dst []byte) ([]byte, error) {
	if e.Frames {
		return c.frameBody(dst[:0])
	}
	return c.jsonBody(dst[:0], e.Batch), nil
}

// kept is a response held back for the deep check after the phase.
type kept struct {
	Call call
	Body []byte
}

// phase is what one load phase observed.
type phase struct {
	LatNs     []int64 // open loop: completion minus due time, per request
	LateNs    []int64 // open loop: send time minus due time
	Attempted int
	Failed    int // transport error or non-200
	Users     int // users in successfully answered calls
	Elapsed   time.Duration
	AllocB    uint64 // Go heap bytes allocated in the process during the phase
	Kept      []kept
}

func (p *phase) merge(q *phase) {
	p.LatNs = append(p.LatNs, q.LatNs...)
	p.LateNs = append(p.LateNs, q.LateNs...)
	p.Attempted += q.Attempted
	p.Failed += q.Failed
	p.Users += q.Users
	p.Kept = append(p.Kept, q.Kept...)
}

const heapAllocs = "/gc/heap/allocs:bytes"

func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: heapAllocs}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// Deep-check sampling per worker and phase: every keepEvery-th response,
// at most maxKept of them — a hot phase answers a hundred thousand users
// a second, and the reference costs a full score sweep per list.
const (
	keepEvery = 16
	maxKept   = 6
)

// runWorkers runs one load loop per connection and merges what they saw.
func runWorkers(conns int, loop func(w int, p *phase)) phase {
	parts := make([]phase, conns)
	alloc0 := heapAllocBytes()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			loop(w, &parts[w])
		}(w)
	}
	wg.Wait()
	var out phase
	out.Elapsed = time.Since(start)
	out.AllocB = heapAllocBytes() - alloc0
	for i := range parts {
		out.merge(&parts[i])
	}
	return out
}

// send issues one call and books it; it returns when the reply is read.
func send(cl *client, ep endpoint, c call, body []byte, rbuf *[]byte, p *phase) {
	p.Attempted++
	status, reply, err := cl.post(ep.URL, ep.contentType(), body, *rbuf)
	*rbuf = reply
	if err != nil || status != http.StatusOK {
		p.Failed++
		return
	}
	p.Users += len(c.Users)
	if p.Attempted%keepEvery == 0 && len(p.Kept) < maxKept {
		p.Kept = append(p.Kept, kept{Call: c, Body: append([]byte(nil), reply...)})
	}
}

// openLoop sends single-user calls on a fixed arrival schedule: request i
// is due at start + i/rate whatever happened to the ones before it, and
// its latency runs from that due time, so a stall is charged to every
// request it delays. Each connection owns every conns-th slot.
//
// The phase ends after dur, or as soon as stop (when non-nil) is set.
func openLoop(cl *client, ep endpoint, st *stream, rate float64, dur time.Duration, conns int, stop *atomic.Bool) phase {
	start := time.Now().Add(2 * time.Millisecond)
	gap := float64(time.Second) / rate
	return runWorkers(conns, func(w int, p *phase) {
		var body, rbuf []byte
		for i := w; ; i += conns {
			due := start.Add(time.Duration(float64(i) * gap))
			if due.Sub(start) >= dur || (stop != nil && stop.Load()) {
				return
			}
			c := st.next(1)
			var err error
			if body, err = ep.encode(c, body); err != nil {
				p.Attempted++
				p.Failed++
				continue
			}
			sleepUntil(due)
			p.LateNs = append(p.LateNs, time.Since(due).Nanoseconds())
			send(cl, ep, c, body, &rbuf, p)
			p.LatNs = append(p.LatNs, time.Since(due).Nanoseconds())
		}
	})
}

// closedLoop has every connection send 32-user batches back to back
// until the deadline: each waits for its reply before the next send.
func closedLoop(cl *client, ep endpoint, st *stream, dur time.Duration, conns int) phase {
	deadline := time.Now().Add(dur)
	return runWorkers(conns, func(w int, p *phase) {
		var body, rbuf []byte
		for time.Now().Before(deadline) {
			c := st.next(batchUsers)
			var err error
			if body, err = ep.encode(c, body); err != nil {
				p.Attempted++
				p.Failed++
				continue
			}
			send(cl, ep, c, body, &rbuf, p)
		}
	})
}

// ---- deep check ----

type scoredItem struct {
	Item  int     `json:"item"`
	Score float64 `json:"score"`
}

// reply is the union of the single-user and batch JSON response shapes
// of both front ends.
type reply struct {
	User     int          `json:"user"`
	Items    []scoredItem `json:"items"`
	Degraded bool         `json:"degraded"`
	Results  []struct {
		User     int          `json:"user"`
		Items    []scoredItem `json:"items"`
		Degraded bool         `json:"degraded"`
		Error    string       `json:"error"`
	} `json:"results"`
}

// checker compares kept responses with the oracle, bit for bit.
type checker struct {
	o        *oracle
	Checked  int // user lists compared
	Wrong    int // lists that differ from the reference, or error slots
	Degraded int
}

func (ck *checker) list(user int, c call, items []int, bits []uint64) {
	ck.Checked++
	wantItems, wantBits := ck.o.topM(user, c)
	if len(items) != len(wantItems) {
		ck.Wrong++
		return
	}
	for i := range items {
		if items[i] != wantItems[i] || bits[i] != wantBits[i] {
			ck.Wrong++
			return
		}
	}
}

func split(in []scoredItem) ([]int, []uint64) {
	items, bits := make([]int, len(in)), make([]uint64, len(in))
	for i, s := range in {
		items[i], bits[i] = s.Item, math.Float64bits(s.Score)
	}
	return items, bits
}

// verify deep-checks every kept response of a phase: single answers,
// every slot of a JSON batch, and every slot of a frame batch against
// the same reference — which is what makes batch slots equal single
// answers and frames equal JSON.
func (ck *checker) verify(ep endpoint, keptResponses []kept) {
	for _, k := range keptResponses {
		switch {
		case ep.Frames:
			var fr frameResponse
			if err := decodeFrame(k.Body, &fr); err != nil || len(fr.Counts) != len(k.Call.Users) {
				ck.Checked++
				ck.Wrong++
				continue
			}
			at := 0
			for n, u := range k.Call.Users {
				cnt := int(fr.Counts[n])
				if fr.Status[n]&frameStatusError != 0 {
					ck.Checked++
					ck.Wrong++
				} else {
					items, bits := make([]int, cnt), make([]uint64, cnt)
					for j := 0; j < cnt; j++ {
						items[j], bits[j] = int(fr.Items[at+j]), math.Float64bits(fr.Scores[at+j])
					}
					ck.list(u, k.Call, items, bits)
				}
				if fr.Status[n]&frameDegraded != 0 {
					ck.Degraded++
				}
				at += cnt
			}
		case ep.Batch:
			var r reply
			if err := json.Unmarshal(k.Body, &r); err != nil || len(r.Results) != len(k.Call.Users) {
				ck.Checked++
				ck.Wrong++
				continue
			}
			for n, u := range k.Call.Users {
				slot := r.Results[n]
				if slot.Error != "" || slot.User != u {
					ck.Checked++
					ck.Wrong++
					continue
				}
				if slot.Degraded {
					ck.Degraded++
				}
				items, bits := split(slot.Items)
				ck.list(u, k.Call, items, bits)
			}
		default:
			var r reply
			if err := json.Unmarshal(k.Body, &r); err != nil || r.User != k.Call.Users[0] {
				ck.Checked++
				ck.Wrong++
				continue
			}
			if r.Degraded {
				ck.Degraded++
			}
			items, bits := split(r.Items)
			ck.list(r.User, k.Call, items, bits)
		}
	}
}
