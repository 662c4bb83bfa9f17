package rank

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/sparse"
)

// refCache is FuzzListCache's model of the table: per shard, a plain list of
// published keys and the list each holds, most recently used first.
type refCache struct {
	c                *ListCache
	perShard         int
	shards           [][]refEntry
	hits, misses     int64
	coalesced, ranks int64
}

type refEntry struct {
	key   requestKey
	items []int
}

func (r *refCache) shard(k requestKey) *[]refEntry {
	return &r.shards[(k.hash()>>32)&r.c.cache.mask]
}

// get is a hit: the entry moves to the front.
func (r *refCache) get(k requestKey) ([]int, bool) {
	s := r.shard(k)
	for n, e := range *s {
		if e.key == k {
			copy((*s)[1:n+1], (*s)[:n])
			(*s)[0] = e
			return e.items, true
		}
	}
	return nil, false
}

// publish puts k in front, dropping the least recently used past capacity.
func (r *refCache) publish(k requestKey, items []int) {
	s := r.shard(k)
	*s = append([]refEntry{{k, items}}, *s...)
	if len(*s) > r.perShard {
		*s = (*s)[:r.perShard]
	}
}

// check holds the table to the model: every shard's LRU in the model's order
// with the model's lists, no node left pending, the counters the model's.
func (r *refCache) check(t *testing.T, op int) {
	t.Helper()
	total := 0
	for i := range r.c.cache.shards {
		s, want := &r.c.cache.shards[i], r.shards[i]
		var got []refEntry
		for n := s.lru.next; n != &s.lru; n = n.next {
			got = append(got, refEntry{n.key, n.items})
		}
		if len(got) != len(want) || s.n != len(want) {
			t.Fatalf("op %d shard %d: %d published (n=%d), model holds %d", op, i, len(got), s.n, len(want))
		}
		for j := range got {
			if got[j].key != want[j].key || !slices.Equal(got[j].items, want[j].items) {
				t.Fatalf("op %d shard %d LRU position %d: %+v, model %+v", op, i, j, got[j], want[j])
			}
		}
		chained := 0
		for _, n := range s.buckets {
			for ; n != nil; n = n.chain {
				if n.pending {
					t.Fatalf("op %d shard %d: key %+v left pending", op, i, n.key)
				}
				chained++
			}
		}
		if chained != len(want) {
			t.Fatalf("op %d shard %d: %d nodes chained, %d published", op, i, chained, len(want))
		}
		total += len(want)
	}
	st := r.c.Stats()
	if got := r.c.Len(); got != total || got > len(r.shards)*r.perShard {
		t.Fatalf("op %d: Len %d, model %d, capacity %d", op, got, total, len(r.shards)*r.perShard)
	}
	if st.Hits() != r.hits || st.Misses() != r.misses || st.Coalesced() != r.coalesced || st.Ranked() != r.ranks {
		t.Fatalf("op %d: hits/misses/coalesced/ranked %d/%d/%d/%d, model %d/%d/%d/%d", op,
			st.Hits(), st.Misses(), st.Coalesced(), st.Ranked(), r.hits, r.misses, r.coalesced, r.ranks)
	}
}

// FuzzListCache drives a table of 1–2 shards and capacity 1–4 with a
// sequence of calls decoded from bytes, against refCache. The first byte
// picks the table; then each call is an op byte — bits 0–1 a single get, a
// batch, a batch whose compute marks some lists NoShare, or a batch whose
// compute panics; bits 2–4 the batch size less one; bit 5 the fingerprint —
// and a byte per user: the user is its value mod 6 (so batches repeat users
// and hit each other's lists), bit 6 a slot the caller failed, bit 7 a NoShare
// list. Every list handed out must be its key's in the model (each
// computation's list is distinct, so a stale or foreign list shows), the
// LRU order and the counters the model's, hits + misses + coalesced the
// slots answered. Every list handed out is also kept and checked again
// after the last call: the caller owns it, so no later eviction, recycling
// or publication may change it.
func FuzzListCache(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		shards, capacity := 1+int(data[0]&1), 1+int(data[0]>>1&3)
		c := NewListCache(capacity, shards, nil)
		r := &refCache{c: c, perShard: (capacity + shards - 1) / shards, shards: make([][]refEntry, shards)}
		serial, lookups := 0, int64(0)
		type handed struct {
			op     int
			e      ListEntry
			want   []int
			scores []float64
		}
		var kept []handed
		data = data[1:]
		for op := 0; len(data) > 0; op++ {
			code := data[0]
			kind, n, fp := code&3, 1, ""
			if kind > 0 {
				n = 1 + int(code>>2&7)
			}
			if code&0x20 != 0 {
				fp = "x"
			}
			data = data[1:]
			if n > len(data) {
				n = len(data)
			}
			if n == 0 {
				break
			}
			users, out := make([]int, n), make([]ListEntry, n)
			noShare := make([]bool, n)
			for i, b := range data[:n] {
				users[i], noShare[i] = int(b%6), kind == 2 && b&0x80 != 0
				if b&0x40 != 0 {
					out[i].Err = fmt.Errorf("slot %d failed by the caller", i)
				}
			}
			data = data[n:]
			key := func(i int) requestKey { return requestKey{user: users[i], m: 5, filters: fp} }

			// The model's answer, slot by slot, before the call.
			want := make([][]int, n)
			var lead, dups []int
			from := map[int]int{}
			for i := range users {
				if out[i].Err != nil {
					continue
				}
				if items, ok := r.get(key(i)); ok {
					want[i], r.hits = items, r.hits+1
					lookups++
				} else if j, ok := from[users[i]]; ok {
					dups = append(dups, i, j)
				} else {
					from[users[i]] = i
					lead = append(lead, i)
				}
			}
			calls, panicked := 0, false
			func() {
				defer func() { panicked = recover() != nil }()
				c.GetOrComputeBatch(users, 5, fp, true, out, func(idx []int) {
					if calls++; calls > 1 || !slices.Equal(idx, lead) {
						t.Fatalf("op %d: compute call %d over %v, model leads %v", op, calls, idx, lead)
					}
					if kind == 3 {
						panic("compute failed")
					}
					for _, i := range idx {
						serial++
						e := &out[i]
						e.Items, e.Scores = append(e.Items[:0], users[i], serial), append(e.Scores[:0], float64(serial))
						e.NoShare = noShare[i]
					}
				})
			}()
			if len(lead) == 0 && calls != 0 || panicked != (kind == 3 && len(lead) > 0) {
				t.Fatalf("op %d: %d compute calls, panicked %v, model leads %v", op, calls, panicked, lead)
			}
			r.misses += int64(len(lead))
			r.ranks += int64(len(lead))
			lookups += int64(len(lead))
			if panicked { // nothing published, the repeats never answered
				r.check(t, op)
				continue
			}
			for _, i := range lead {
				want[i] = []int{users[i], out[i].Items[1]}
				if !noShare[i] {
					r.publish(key(i), want[i])
				}
			}
			for j := 0; j < len(dups); j += 2 {
				i, l := dups[j], dups[j+1]
				want[i] = want[l]
				if noShare[l] {
					r.misses++
				} else {
					r.coalesced++
				}
				lookups++
			}
			for i := range users {
				e := out[i]
				if e.Err != nil {
					if e.Items != nil {
						t.Fatalf("op %d slot %d: a failed slot was served %v", op, i, e.Items)
					}
					continue
				}
				if !slices.Equal(e.Items, want[i]) || len(e.Items) == 0 || e.Items[0] != users[i] {
					t.Fatalf("op %d slot %d (user %d): handed %v, the key's list is %v", op, i, users[i], e.Items, want[i])
				}
				kept = append(kept, handed{op, e, want[i], []float64{float64(want[i][1])}})
			}
			r.check(t, op)
			if st := c.Stats(); st.Hits()+st.Misses()+st.Coalesced() != lookups {
				t.Fatalf("op %d: hits + misses + coalesced = %d, %d slots answered", op, st.Hits()+st.Misses()+st.Coalesced(), lookups)
			}
		}
		for _, h := range kept {
			if !slices.Equal(h.e.Items, h.want) || !slices.Equal(h.e.Scores, h.scores) {
				t.Fatalf("the list handed out at op %d as %v %v reads %v %v after the last call",
					h.op, h.want, h.scores, h.e.Items, h.e.Scores)
			}
		}
	})
}

// TestListCacheWaiterNeverReadsARecycledNode: a waiter that sleeps through
// its node's publication, eviction, reuse for another key and publication
// under that key wakes to a new generation, and computes for itself instead
// of reading the other key's list. The test holds the shard lock across all
// four steps, so the waiter sees them together whenever it runs.
func TestListCacheWaiterNeverReadsARecycledNode(t *testing.T) {
	c := NewListCache(1, 1, nil)
	s := &c.cache.shards[0]
	keyOf := func(u int) (requestKey, uint64) { k := requestKey{user: u, m: 5}; return k, k.hash() }
	ka, ha := keyOf(1)
	s.mu.Lock()
	na := s.insert(ka, ha, nil, 0)
	gen := na.gen
	s.mu.Unlock()
	got := make(chan []int)
	go func() {
		var e ListEntry
		s.mu.Lock()
		s.await(na, gen, &e)
		s.mu.Unlock()
		got <- e.Items
	}()
	runtime.Gosched()
	s.mu.Lock()
	s.publish(na, []int{1}, []float64{1})
	kb, hb := keyOf(2)
	s.put(kb, hb, []int{2}, []float64{2}) // capacity 1: evicts user 1
	kc, hc := keyOf(3)
	nc := s.insert(kc, hc, nil, 0)
	if nc != na {
		t.Error("the evicted node was not recycled for the next miss")
	}
	s.publish(nc, []int{3}, []float64{3})
	s.mu.Unlock()
	if items := <-got; items != nil {
		t.Errorf("a waiter for user 1 read %v from its node after the node moved to another key", items)
	}
}

// TestListCacheWaitersUnderEviction: at capacity 1, concurrent callers over
// three keys keep publishing, evicting and recycling each other's nodes
// while others wait on them. Run under -race: whatever the interleaving, no
// call is handed another key's list, and the counters add up.
func TestListCacheWaitersUnderEviction(t *testing.T) {
	c := NewListCache(1, 1, nil)
	const goroutines, rounds = 8, 300
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				users := []int{(g + r) % 3, (g + 2*r + 1) % 3}
				out := make([]ListEntry, len(users))
				c.GetOrComputeBatch(users, 5, "", true, out, func(idx []int) {
					runtime.Gosched() // let the others reach the pending node
					for _, i := range idx {
						out[i].Items, out[i].Scores = []int{users[i]}, []float64{float64(users[i])}
					}
				})
				for i, e := range out {
					if len(e.Items) != 1 || e.Items[0] != users[i] {
						t.Errorf("goroutine %d round %d: user %d was handed %v", g, r, users[i], e.Items)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if got := st.Hits() + st.Misses() + st.Coalesced(); got != goroutines*rounds*2 {
		t.Errorf("hits + misses + coalesced = %d for %d lookups", got, goroutines*rounds*2)
	}
}

// TestListCacheHandedListsOutliveRecycling: at capacity 1, readers keep
// every list they were handed and re-verify all of them after each call,
// while the other goroutines evict and recycle the same nodes, copying
// other users' lists into their buffers. Run under -race: a handed list is
// its reader's copy, so nothing the table does later changes it or races
// with reading it.
func TestListCacheHandedListsOutliveRecycling(t *testing.T) {
	c := NewListCache(1, 1, nil)
	const goroutines, rounds = 6, 150
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var kept []ListEntry
			var keptUsers []int
			for r := range rounds {
				users := []int{(g + r) % 4, (3*g + r + 1) % 4}
				out := make([]ListEntry, len(users))
				c.GetOrComputeBatch(users, 5, "", true, out, func(idx []int) {
					for _, i := range idx {
						out[i].Items = append(out[i].Items, users[i], 10*users[i])
						out[i].Scores = append(out[i].Scores, float64(users[i]))
					}
				})
				kept, keptUsers = append(kept, out...), append(keptUsers, users...)
				for k, e := range kept {
					u := keptUsers[k]
					if !slices.Equal(e.Items, []int{u, 10 * u}) || !slices.Equal(e.Scores, []float64{float64(u)}) {
						t.Errorf("goroutine %d round %d: user %d's list, handed out %d calls ago, reads %v %v",
							g, r, u, r-k/len(users), e.Items, e.Scores)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Hits()+st.Coalesced() == 0 || c.Len() != 1 {
		t.Errorf("hits %d coalesced %d over %d cached lists: the readers never shared a node", st.Hits(), st.Coalesced(), c.Len())
	}
}

// TestListCacheAllocsPerSlot: on a full table GetOrComputeBatch allocates
// nothing — not for a hit, which copies the node's list into the slot's
// buffers, and not for a miss, which compute writes into the slot's buffers
// and the table copies into the buffers of the node its eviction recycles.
func TestListCacheAllocsPerSlot(t *testing.T) {
	skipUnderRace(t)
	c := NewListCache(64, 4, nil)
	users, out := make([]int, 32), make([]ListEntry, 32)
	next := 0
	call := func(fresh bool) {
		for i := range users {
			if fresh {
				users[i], next = next, next+1
			}
			out[i] = ListEntry{Items: out[i].Items[:0], Scores: out[i].Scores[:0]}
		}
		c.GetOrComputeBatch(users, 5, "fp", true, out, func(idx []int) {
			for _, i := range idx {
				out[i].Items = append(out[i].Items, users[i], users[i]+1)
				out[i].Scores = append(out[i].Scores, 1, 0.5)
			}
		})
	}
	for range 8 { // fill the table
		call(true)
	}
	if allocs := testing.AllocsPerRun(50, func() { call(true) }); allocs != 0 {
		t.Errorf("a batch of 32 misses on a full table allocates %v times, want 0", allocs)
	}
	call(false)
	if allocs := testing.AllocsPerRun(50, func() { call(false) }); allocs != 0 {
		t.Errorf("a batch of 32 hits allocates %v times, want 0", allocs)
	}
	if st := c.Stats(); st.Hits() == 0 || st.Misses() == 0 || c.Len() != 64 {
		t.Errorf("hits %d misses %d over a table of %d, want both and 64", st.Hits(), st.Misses(), c.Len())
	}
	for i, e := range out {
		if !e.Cached || !slices.Equal(e.Items, []int{users[i], users[i] + 1}) {
			t.Fatalf("slot %d (user %d): %v cached=%v, want its own list as a hit", i, users[i], e.Items, e.Cached)
		}
	}
}

// formulaScorer scores any user over n items by a formula: a catalogue
// with as many users as a test wants.
type formulaScorer int

func (f formulaScorer) ScoreUser(u int, dst []float64) {
	for i := range dst {
		dst[i] = float64((u*31+i*17)%97) / 97
	}
}
func (f formulaScorer) NumItems() int { return int(f) }

// TestCachedTopMBatchAllocsPerUser: on a full cache, what a user adds to a
// TopMBatch call that owns the training row and shares one request filter
// is nothing, hit or miss — a miss ranks in the scratch and its list is
// copied into the buffers of the node its eviction recycles, a hit is
// copied from the node into the scratch, and the memoised fingerprint and
// the row walked in place cost nothing either.
func TestCachedTopMBatchAllocsPerUser(t *testing.T) {
	skipUnderRace(t)
	const users, items = 1 << 14, 64
	tb := sparse.NewBuilder(users, items)
	for u := range users {
		tb.Add(u, u%items)
		tb.Add(u, (u*7+3)%items)
	}
	train := tb.Build()
	filters := []Filter{ExcludeItems([]int{5, 9})}
	filtersFor := func(int) ([]Filter, bool) { return filters, true }
	for _, workers := range []int{1, 3} {
		e := NewEngine(formulaScorer(items), Config{CacheSize: 256, Train: train})
		batch, next := make([]int, 32), 0
		var cols BatchCols
		rank := func(n int, fresh bool) {
			for i := range batch[:n] {
				if fresh {
					batch[i], next = next%users, next+1
				}
			}
			cols.Reset()
			e.TopMBatch(batch[:n], 10, workers, nil, filtersFor, &cols)
		}
		for range 32 { // fill the cache
			rank(32, true)
		}
		allocs := func(n int, fresh bool) float64 { return testing.AllocsPerRun(40, func() { rank(n, fresh) }) }
		if few, all := allocs(workers, true), allocs(32, true); few != all {
			t.Errorf("workers=%d: misses: %v allocations for %d users, %v for 32 — %v per user, want 0",
				workers, few, workers, all, (all-few)/float64(32-workers))
		}
		rank(32, true)
		if few, all := allocs(workers, false), allocs(32, false); few != all {
			t.Errorf("workers=%d: hits: %v allocations for %d users, %v for 32, want the same", workers, few, workers, all)
		}
		if e.CacheLen() != 256 || !slices.Contains(cols.Cached, true) || slices.Contains(cols.Cached, false) {
			t.Errorf("workers=%d: %d cached lists, last batch cached %v; want a full cache of 256 and all hits", workers, e.CacheLen(), cols.Cached)
		}
	}
}
