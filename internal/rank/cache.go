package rank

import (
	"container/list"
	"sync"
)

// requestKey identifies one cacheable ranking request: user, list length,
// and the fingerprint of its flattened filter set. Covering the filters in
// the key makes filtered requests cacheable rather than wrong — two
// requests for the same (user, m) with different exclusion sets never
// share an entry.
type requestKey struct {
	user, m int
	filters string
}

func (k requestKey) hash() uint64 {
	// FNV-1a over the filter fingerprint, then Fibonacci-mix the
	// typically-sequential user ids in.
	h := uint64(14695981039346656037)
	for i := 0; i < len(k.filters); i++ {
		h ^= uint64(k.filters[i])
		h *= 1099511628211
	}
	return (h ^ (uint64(k.user)*2 + uint64(k.m))) * 0x9E3779B97F4A7C15
}

// topCache is a sharded LRU cache of precomputed top-M lists keyed by
// requestKey. Sharding bounds lock contention on the hot path: concurrent
// requests for different users hash to different shards with high
// probability. A cache belongs to one Engine — the serving layer installs
// a fresh engine per model snapshot, so invalidation is wholesale and
// race-free (requests still running against the old snapshot keep hitting
// the old, still-consistent cache).
type topCache struct {
	shards []cacheShard
	mask   uint64
}

type cacheEntry struct {
	key    requestKey
	items  []int
	scores []float64
}

type cacheShard struct {
	mu    sync.Mutex
	cap   int
	order list.List // front = most recently used
	byKey map[requestKey]*list.Element
}

// CacheShards is the shard count of every serving cache: the engine's and
// the router's. Only tests pick another (one shard makes LRU order
// observable).
const CacheShards = 16

// newTopCache builds a cache holding about capacity entries total across
// shards shards (rounded up to a power of two). capacity <= 0 returns nil
// — a nil *topCache is a valid always-miss cache.
func newTopCache(capacity, shards int) *topCache {
	if capacity <= 0 {
		return nil
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := (capacity + n - 1) / n
	c := &topCache{shards: make([]cacheShard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].byKey = make(map[requestKey]*list.Element, perShard)
	}
	return c
}

func (c *topCache) shard(k requestKey) *cacheShard {
	return &c.shards[(k.hash()>>32)&c.mask]
}

// get returns the cached list for k. The returned slices are shared and
// must not be modified.
func (c *topCache) get(k requestKey) (items []int, scores []float64, ok bool) {
	if c == nil {
		return nil, nil, false
	}
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byKey[k]
	if !ok {
		return nil, nil, false
	}
	s.order.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.items, e.scores, true
}

// put stores the list for k, evicting the least recently used entry of the
// shard when full. The slices are retained; callers must not modify them
// afterwards.
func (c *topCache) put(k requestKey, items []int, scores []float64) {
	if c == nil {
		return
	}
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.byKey[k]; ok {
		s.order.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		e.items, e.scores = items, scores
		return
	}
	if s.order.Len() >= s.cap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.byKey, oldest.Value.(*cacheEntry).key)
	}
	s.byKey[k] = s.order.PushFront(&cacheEntry{key: k, items: items, scores: scores})
}

// ListCache is the engine's cache-and-coalesce machinery exported for
// ranked lists assembled outside an Engine — the scatter-gather router
// caches merged top-M lists it gathered from shard partials, under the
// same sharded LRU and singleflight discipline the engine applies to
// lists it ranked itself. Keys are (user, m, fingerprint); the caller
// owns the fingerprint's contents (the router folds its route epoch in,
// which is what makes mixed-epoch cache hits impossible). All methods are
// safe for concurrent use.
type ListCache struct {
	cache  *topCache
	flight flightGroup
	stats  *Stats
}

// NewListCache builds a list cache of about capacity entries across
// shards shards (see newTopCache for the conventions; capacity <= 0
// disables caching, leaving only the compute path). A nil stats allocates
// private counters.
func NewListCache(capacity, shards int, stats *Stats) *ListCache {
	if stats == nil {
		stats = &Stats{}
	}
	return &ListCache{cache: newTopCache(capacity, shards), stats: stats}
}

// Stats returns the cache's counters (hits, misses, coalesced waiters,
// and computations run).
func (c *ListCache) Stats() *Stats { return c.stats }

// Len returns the number of cached lists.
func (c *ListCache) Len() int { return c.cache.len() }

// ListEntry is one user's slot in a GetOrComputeBatch call: the list (shared
// with the cache, read-only) or why there is none.
type ListEntry struct {
	Items  []int
	Scores []float64
	// Cached reports a cache hit or a share of another computation.
	Cached bool
	// NoShare, set by compute, marks a result that may be served to its own
	// request but never cached or handed to waiters — the router's degraded
	// merges, assembled from the surviving shards only.
	NoShare bool
	// Err, set by the caller before the call, skips the slot (a user that
	// failed validation); set by compute, it fails the slot. Errors are
	// never cached.
	Err error
}

// shareable reports whether compute left a result that may be cached and
// handed to other requests.
func (e *ListEntry) shareable() bool { return e.Err == nil && !e.NoShare }

// GetOrComputeBatch fills out[i] with the list cached under (users[i], m,
// fp) for every slot the caller has not failed, running compute over the
// slots that miss. compute receives the indices it must fill (Items and
// Scores, or Err, plus NoShare) and is called at most twice: once for the
// keys this call leads, and once more for keys whose foreign leader
// failed. A user repeated in the batch is computed once and its later
// slots copy the first.
//
// One key is computed once across concurrent calls (single or batch): a
// miss either joins the flight another call leads, or leads its own. A
// batch publishes or abandons every flight it leads before it waits on a
// foreign one, so two overlapping batches can never wait on each other.
// With cacheable false (an oversized fingerprint) or the cache disabled,
// every live slot is a miss and is computed.
func (c *ListCache) GetOrComputeBatch(users []int, m int, fp string, cacheable bool, out []ListEntry, compute func(idx []int)) {
	run := func(idx []int) {
		c.stats.misses.Add(int64(len(idx)))
		c.stats.ranked.Add(int64(len(idx)))
		compute(idx)
	}
	var lead, wait []int
	if c.cache == nil || !cacheable {
		for i := range out {
			if out[i].Err == nil {
				lead = append(lead, i)
			}
		}
		if len(lead) > 0 {
			run(lead)
		}
		return
	}
	key := func(i int) requestKey { return requestKey{user: users[i], m: m, filters: fp} }
	var calls []*flightCall // per slot, the flight it leads or waits on; nil while every slot hits
	var first map[int]int   // user -> the slot leading its flight in this batch
	var dups []int
	for i := range out {
		if out[i].Err != nil {
			continue
		}
		if items, scores, ok := c.cache.get(key(i)); ok {
			c.stats.hits.Add(1)
			out[i] = ListEntry{Items: items, Scores: scores, Cached: true}
			continue
		}
		if _, ok := first[users[i]]; ok {
			dups = append(dups, i)
			continue
		}
		call, leader := c.flight.join(key(i))
		if calls == nil {
			calls = make([]*flightCall, len(users))
		}
		calls[i] = call
		if !leader {
			wait = append(wait, i)
			continue
		}
		// The straggler rule of getOrCompute: the previous leader may have
		// filled the cache and retired between our miss and our join.
		if items, scores, ok := c.cache.get(key(i)); ok {
			c.stats.hits.Add(1)
			c.flight.publish(key(i), call, items, scores)
			out[i] = ListEntry{Items: items, Scores: scores, Cached: true}
			continue
		}
		if first == nil {
			first = make(map[int]int)
		}
		first[users[i]] = i
		lead = append(lead, i)
	}
	if len(lead) > 0 {
		settled := false
		defer func() {
			if !settled { // compute panicked: waiters recompute for themselves
				for _, i := range lead {
					c.flight.abandon(key(i), calls[i])
				}
			}
		}()
		run(lead)
		for _, i := range lead {
			if e := &out[i]; e.shareable() {
				c.cache.put(key(i), e.Items, e.Scores)
				c.flight.publish(key(i), calls[i], e.Items, e.Scores)
			} else {
				c.flight.abandon(key(i), calls[i])
			}
		}
		settled = true
	}
	for _, i := range dups {
		out[i] = out[first[users[i]]]
		if e := &out[i]; e.shareable() {
			e.Cached = true
			c.stats.coalesced.Add(1)
		} else {
			c.stats.misses.Add(1)
		}
	}
	var retry []int
	for _, i := range wait {
		<-calls[i].done
		if call := calls[i]; call.ok {
			c.stats.coalesced.Add(1)
			out[i] = ListEntry{Items: call.items, Scores: call.scores, Cached: true}
		} else {
			// The leader failed, panicked or produced an unshareable result;
			// compute independently rather than inheriting its failure.
			retry = append(retry, i)
		}
	}
	if len(retry) > 0 {
		run(retry)
		for _, i := range retry {
			if e := &out[i]; e.shareable() {
				c.cache.put(key(i), e.Items, e.Scores)
			}
		}
	}
}

// getOrCompute is the single-key cache-and-coalesce sequence — hit, share
// an in-flight leader's result, or lead and publish — behind Engine.topM;
// GetOrComputeBatch is its many-key sibling over the same cache and
// flights. coalesced tells a shared in-flight result from a cache hit
// (both report cached). compute cannot fail and its result is always
// shareable: unshareable results and errors are GetOrComputeBatch's
// business. Counting a computation as ranked is compute's own: the engine
// counts inside its rank pass. The engine never comes here without a cache
// (Engine.list: a list no cache will hold is not copied for one).
func (c *ListCache) getOrCompute(key requestKey, compute func() (items []int, scores []float64)) (items []int, scores []float64, cached, coalesced bool) {
	if items, scores, ok := c.cache.get(key); ok {
		c.stats.hits.Add(1)
		return items, scores, true, false
	}
	call, leader := c.flight.join(key)
	if !leader {
		<-call.done
		if call.ok {
			c.stats.coalesced.Add(1)
			return call.items, call.scores, true, true
		}
		// The leader abandoned its call (it panicked, or it was a batch
		// whose result could not be shared); compute independently.
		c.stats.misses.Add(1)
		items, scores = compute()
		c.cache.put(key, items, scores)
		return items, scores, false, false
	}
	// A straggler can miss the cache, lose the CPU, and join only after
	// the previous leader filled the cache and retired its call — it then
	// leads a call nobody needs. Look again before computing, so one key is
	// computed once however the scheduler interleaves its requests.
	if items, scores, ok := c.cache.get(key); ok {
		c.stats.hits.Add(1)
		c.flight.publish(key, call, items, scores)
		return items, scores, true, false
	}
	c.stats.misses.Add(1)
	published := false
	defer func() {
		if !published { // compute panicked: waiters recompute for themselves
			c.flight.abandon(key, call)
		}
	}()
	items, scores = compute()
	c.cache.put(key, items, scores)
	c.flight.publish(key, call, items, scores)
	published = true
	return items, scores, false, false
}

// len returns the total number of cached entries.
func (c *topCache) len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}
