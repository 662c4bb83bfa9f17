package main

import (
	"math/rand/v2"
	"strconv"
	"sync"
)

const (
	listLen    = 20      // m of every request
	batchUsers = 32      // users per capacity-phase batch
	denyTag    = "promo" // carried by every 10th item of the tag table
	nExclude   = 10      // exclude_items on a filtered request
	filterStep = 4       // every 4th request of a filtered stream is filtered
)

// call is one generated request: a single user or a batch, with the
// per-request filters the stream attached.
type call struct {
	Users   []int
	Exclude []int
	Deny    bool
}

// stream generates a workload's requests from the seed alone. Cold
// streams walk a fixed permutation of all users, so with more users
// than cache entries an LRU never sees a key again before evicting it;
// hot streams draw Zipf(1.1) ranks over the first hotUsers of the
// permutation, few enough to stay cached once each has been asked for.
// One stream feeds both phases of a round so the walk never restarts.
type stream struct {
	mu       sync.Mutex
	rng      *rand.Rand
	zipf     *rand.Zipf
	perm     []int
	items    int
	cursor   int
	calls    int
	filtered bool
}

// hotUsers is the support of a hot stream: half the default cache.
const hotUsers = 2048

// newStream: the permutation depends on the seed alone, so every stream
// of a run shares one hot set; salt separates the streams' draws and
// where a cold walk starts.
func newStream(seed, salt uint64, users, items int, zipf, filtered bool) *stream {
	perm := rand.New(rand.NewPCG(seed, 0)).Perm(users)
	r := rand.New(rand.NewPCG(seed, salt))
	s := &stream{rng: r, perm: perm, items: items, filtered: filtered, cursor: r.IntN(users)}
	if zipf {
		s.perm = perm[:min(users, hotUsers)]
		s.zipf = rand.NewZipf(r, 1.1, 1, uint64(len(s.perm)-1))
	}
	return s
}

// support lists the users a hot stream can draw; nil for a cold walk.
func (s *stream) support() []int {
	if s.zipf == nil {
		return nil
	}
	return s.perm
}

func (s *stream) user() int {
	if s.zipf != nil {
		return s.perm[s.zipf.Uint64()]
	}
	u := s.perm[s.cursor]
	s.cursor = (s.cursor + 1) % len(s.perm)
	return u
}

// next returns the stream's next call over n users.
func (s *stream) next(n int) call {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := call{Users: make([]int, n)}
	for i := range c.Users {
		c.Users[i] = s.user()
	}
	s.calls++
	if s.filtered && s.calls%filterStep == 0 {
		c.Deny = true
		c.Exclude = make([]int, nExclude)
		for i := range c.Exclude {
			c.Exclude[i] = s.rng.IntN(s.items)
		}
	}
	return c
}

// jsonBody encodes c for POST /v1/recommend (one user) or /v1/batch.
func (c call) jsonBody(dst []byte, batch bool) []byte {
	if batch {
		dst = append(dst, `{"users":[`...)
		for i, u := range c.Users {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(u), 10)
		}
		dst = append(dst, ']')
	} else {
		dst = append(dst, `{"user":`...)
		dst = strconv.AppendInt(dst, int64(c.Users[0]), 10)
	}
	dst = append(dst, `,"m":`...)
	dst = strconv.AppendInt(dst, listLen, 10)
	if len(c.Exclude) > 0 {
		dst = append(dst, `,"exclude_items":[`...)
		for i, it := range c.Exclude {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(it), 10)
		}
		dst = append(dst, ']')
	}
	if c.Deny {
		dst = append(dst, `,"filter":{"deny_tags":["`+denyTag+`"]}`...)
	}
	return append(dst, '}')
}
