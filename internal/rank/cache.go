package rank

import "sync"

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

// topCache is a sharded table of top-M lists keyed by requestKey, and its
// own singleflight. A miss inserts a pending node under its shard's lock, so
// finding a list, joining the computation of one and leading it are one
// atomic step; the leader publishes into the node, which links it into the
// shard's LRU, and waiters sleep on the shard's condition variable until it
// does. Nodes are recycled with their list buffers: eviction frees one for
// the next miss, so a full table allocates nothing. A list enters a node by
// copy and leaves it by copy, under the shard lock, into buffers its reader
// owns, so nothing outside the table ever aliases a node's list and
// recycling one cannot change a list a reader holds. Sharding bounds lock
// contention: concurrent requests for different users hash to different
// shards with high probability. An engine's table is its own — the
// serving layer installs a fresh engine per model snapshot, so
// invalidation is wholesale and race-free (requests still running against
// the old snapshot keep hitting the old, still-consistent table).
type topCache struct {
	shards []cacheShard
	mask   uint64
}

type cacheShard struct {
	mu      sync.Mutex
	wake    sync.Cond // on mu: a pending node was published or abandoned
	cap     int       // published nodes kept; a pending node is never evicted
	n       int       // published nodes
	buckets []*node   // hash chains of every node, pending or published
	shift   uint      // a key's bucket is its hash >> shift
	lru     node      // sentinel: lru.next is the most recently used
	free    *node     // recycled nodes, chained through chain
}

// node is one key's slot in a shard: pending while its leader computes,
// then published into the LRU until eviction recycles it.
type node struct {
	key  requestKey
	hash uint64
	// The published list: the node's own buffers, kept across recycling.
	items  []int
	scores []float64
	// gen advances whenever the node leaves its key (evicted or abandoned):
	// a waiter holding the node reads it only under the gen it joined.
	gen     uint64
	pending bool
	// A pending node's leader: the call's first slot, and the slot it
	// computes — how a batch finds its own repeats of a user.
	owner      *ListEntry
	slot       int
	chain      *node // hash chain, or the free list
	prev, next *node // LRU, published nodes only
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
	buckets, shift := 1, uint(64)
	for buckets < perShard {
		buckets, shift = buckets<<1, shift-1
	}
	c := &topCache{shards: make([]cacheShard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		s := &c.shards[i]
		s.wake.L, s.cap = &s.mu, perShard
		s.buckets, s.shift = make([]*node, buckets), shift
		s.lru.prev, s.lru.next = &s.lru, &s.lru
	}
	return c
}

// shard picks a key's shard by the middle bits of its hash; its bucket is
// picked by the top ones.
func (c *topCache) shard(h uint64) *cacheShard {
	return &c.shards[(h>>32)&c.mask]
}

func (s *cacheShard) find(k requestKey, h uint64) *node {
	for n := s.buckets[h>>s.shift]; n != nil; n = n.chain {
		if n.hash == h && n.key == k {
			return n
		}
	}
	return nil
}

// insert chains a pending node for k, a recycled one when there is one.
func (s *cacheShard) insert(k requestKey, h uint64, owner *ListEntry, slot int) *node {
	n := s.free
	if n != nil {
		s.free = n.chain
	} else {
		n = new(node)
	}
	n.key, n.hash, n.pending, n.owner, n.slot = k, h, true, owner, slot
	b := &s.buckets[h>>s.shift]
	n.chain, *b = *b, n
	return n
}

// publish copies a list into pending node n, makes it the most recently
// used, evicts the least recently used node past capacity and wakes the
// waiters.
func (s *cacheShard) publish(n *node, items []int, scores []float64) {
	n.store(items, scores)
	n.pending, n.owner = false, nil
	s.pushFront(n)
	if s.n++; s.n > s.cap {
		old := s.lru.prev
		s.unlink(old)
		s.n--
		s.recycle(old)
	}
	s.wake.Broadcast()
}

// abandon retires pending node n without a list; its waiters compute for
// themselves.
func (s *cacheShard) abandon(n *node) {
	s.recycle(n)
	s.wake.Broadcast()
}

// recycle unchains n, which has left the LRU if it was ever in it, and
// frees it for the next miss under a new generation, keeping its buffers.
func (s *cacheShard) recycle(n *node) {
	p := &s.buckets[n.hash>>s.shift]
	for *p != n {
		p = &(*p).chain
	}
	*p = n.chain
	*n = node{gen: n.gen + 1, chain: s.free, items: n.items[:0], scores: n.scores[:0]}
	s.free = n
}

// store copies a list into n's own buffers.
func (n *node) store(items []int, scores []float64) {
	n.items, n.scores = append(n.items[:0], items...), append(n.scores[:0], scores...)
}

// await sleeps on the shard lock until n, joined under gen, settles, and
// copies its list into e when it was published for the key joined; false
// when it left that key first (abandoned, or published, evicted and
// recycled before the waiter woke).
func (s *cacheShard) await(n *node, gen uint64, e *ListEntry) bool {
	for n.gen == gen && n.pending {
		s.wake.Wait()
	}
	if n.gen != gen {
		return false
	}
	e.share(n.items, n.scores, true)
	return true
}

// put stores a list computed outside a flight — a waiter's own after its
// leader failed — unless a leader is computing the key right now.
func (s *cacheShard) put(k requestKey, h uint64, items []int, scores []float64) {
	switch n := s.find(k, h); {
	case n == nil:
		s.publish(s.insert(k, h, nil, 0), items, scores)
	case !n.pending:
		n.store(items, scores)
		s.touch(n)
	}
}

// touch makes published node n the most recently used.
func (s *cacheShard) touch(n *node) {
	s.unlink(n)
	s.pushFront(n)
}

func (s *cacheShard) unlink(n *node) { n.prev.next, n.next.prev = n.next, n.prev }

func (s *cacheShard) pushFront(n *node) {
	n.prev, n.next = &s.lru, s.lru.next
	n.next.prev, s.lru.next = n, n
}

// len returns the total number of published entries.
func (c *topCache) len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.n
		s.mu.Unlock()
	}
	return n
}

// ListCache is the engine's cache-and-coalesce machinery exported for
// ranked lists assembled outside an Engine — the scatter-gather router
// caches merged top-M lists it gathered from shard partials, under the
// same table and flight discipline the engine applies to lists it ranked
// itself. Keys are (user, m, fingerprint); the caller owns the
// fingerprint's contents (the router folds its route epoch in, which is
// what makes mixed-epoch cache hits impossible). All methods are safe for
// concurrent use.
type ListCache struct {
	cache *topCache
	stats *Stats
	// ranks counts every computation as ranked; an engine counts inside
	// its own rank pass instead.
	ranks bool
	calls sync.Pool // *batchCall
}

// NewListCache builds a list cache of about capacity entries across
// shards shards (see newTopCache for the conventions; capacity <= 0
// disables caching, leaving only the compute path). A nil stats allocates
// private counters.
func NewListCache(capacity, shards int, stats *Stats) *ListCache {
	if stats == nil {
		stats = &Stats{}
	}
	return &ListCache{cache: newTopCache(capacity, shards), stats: stats, ranks: true}
}

// Stats returns the cache's counters (hits, misses, coalesced waiters,
// and computations run).
func (c *ListCache) Stats() *Stats { return c.stats }

// Len returns the number of cached lists.
func (c *ListCache) Len() int { return c.cache.len() }

// ListEntry is one user's slot in a GetOrComputeBatch call: the list or why
// there is none. Items and Scores are the caller's buffers: the call copies
// a cached or shared list into them, reusing their capacity, and compute
// ranks or merges into them; the cache keeps a copy of its own.
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
	// coalesced narrows Cached to a share of another computation.
	coalesced bool
}

// shareable reports whether compute left a result that may be cached and
// handed to other requests.
func (e *ListEntry) shareable() bool { return e.Err == nil && !e.NoShare }

// share makes e a copy, in its own buffers, of a list the cache or another
// slot holds: a hit, or with coalesced a share of another computation. It
// sets the fields one by one: a composite literal costs a struct copy.
func (e *ListEntry) share(items []int, scores []float64, coalesced bool) {
	e.Items, e.Scores = append(e.Items[:0], items...), append(e.Scores[:0], scores...)
	e.Cached, e.coalesced, e.NoShare, e.Err = true, coalesced, false, nil
}

// batchCall is the pooled bookkeeping of one GetOrComputeBatch call.
type batchCall struct {
	lead, retry []int   // slots this call computes
	led         []*node // lead's pending nodes, in lead's order
	dups        []int   // pairs: a repeated user's slot, the slot leading it
	waits       []waiter
}

// waiter is a slot sharing the flight another call leads.
type waiter struct {
	slot  int
	shard *cacheShard
	n     *node
	gen   uint64
}

// GetOrComputeBatch fills out[i] with the list cached under (users[i], m,
// fp) for every slot the caller has not failed, running compute over the
// slots that miss. compute receives the indices it must fill (Items and
// Scores, or Err, plus NoShare) and is called at most twice: once for the
// keys this call leads, and once more for keys whose foreign leader
// failed. A user repeated in the batch is computed once and its later
// slots copy the first. Every list reaches out by copy, into the slot's own
// buffers (see ListEntry), and the table copies what compute left, so no
// slice is ever shared between the caller and the cache.
//
// One key is computed once across concurrent calls (single or batch): a
// miss either joins the flight another call leads, or leads its own. A
// batch publishes or abandons every flight it leads before it waits on a
// foreign one, so two overlapping batches can never wait on each other.
// With cacheable false (an oversized fingerprint) or the cache disabled,
// every live slot is a miss and is computed. Once the table is full and the
// slots' buffers have grown to the lists' length, the call allocates
// nothing: a miss's list goes into the buffers of the node its eviction
// recycles.
func (c *ListCache) GetOrComputeBatch(users []int, m int, fp string, cacheable bool, out []ListEntry, compute func(idx []int)) {
	b, _ := c.calls.Get().(*batchCall)
	if b == nil {
		b = new(batchCall)
	}
	defer c.release(b)
	run := func(idx []int) {
		c.stats.misses.Add(int64(len(idx)))
		if c.ranks {
			c.stats.ranked.Add(int64(len(idx)))
		}
		compute(idx)
	}
	if c.cache == nil || !cacheable {
		for i := range out {
			if out[i].Err == nil {
				b.lead = append(b.lead, i)
			}
		}
		if len(b.lead) > 0 {
			run(b.lead)
		}
		return
	}
	for i := range out {
		if out[i].Err != nil {
			continue
		}
		k := requestKey{user: users[i], m: m, filters: fp}
		h := k.hash()
		s := c.cache.shard(h)
		s.mu.Lock()
		switch n := s.find(k, h); {
		case n == nil:
			b.lead, b.led = append(b.lead, i), append(b.led, s.insert(k, h, &out[0], i))
		case !n.pending:
			s.touch(n)
			c.stats.hits.Add(1)
			out[i].share(n.items, n.scores, false)
		case n.owner == &out[0]:
			b.dups = append(b.dups, i, n.slot)
		default:
			b.waits = append(b.waits, waiter{slot: i, shard: s, n: n, gen: n.gen})
		}
		s.mu.Unlock()
	}
	if len(b.lead) > 0 {
		settled := false
		defer func() {
			if !settled { // compute panicked: waiters compute for themselves
				for _, n := range b.led {
					s := c.cache.shard(n.hash)
					s.mu.Lock()
					s.abandon(n)
					s.mu.Unlock()
				}
			}
		}()
		run(b.lead)
		for j, i := range b.lead {
			n, e := b.led[j], &out[i]
			s := c.cache.shard(n.hash)
			s.mu.Lock()
			if e.shareable() {
				s.publish(n, e.Items, e.Scores)
			} else {
				s.abandon(n)
			}
			s.mu.Unlock()
		}
		settled = true
	}
	for j := 0; j < len(b.dups); j += 2 {
		e, lead := &out[b.dups[j]], &out[b.dups[j+1]]
		e.share(lead.Items, lead.Scores, true)
		if lead.shareable() {
			c.stats.coalesced.Add(1)
		} else {
			e.Cached, e.coalesced, e.NoShare, e.Err = false, false, lead.NoShare, lead.Err
			c.stats.misses.Add(1)
		}
	}
	for _, w := range b.waits {
		w.shard.mu.Lock()
		ok := w.shard.await(w.n, w.gen, &out[w.slot])
		w.shard.mu.Unlock()
		if ok {
			c.stats.coalesced.Add(1)
		} else {
			// The leader failed, panicked, produced an unshareable result, or
			// its list was evicted before this waiter woke; compute
			// independently rather than inheriting any of that.
			b.retry = append(b.retry, w.slot)
		}
	}
	if len(b.retry) > 0 {
		run(b.retry)
		for _, i := range b.retry {
			if e := &out[i]; e.shareable() {
				k := requestKey{user: users[i], m: m, filters: fp}
				h := k.hash()
				s := c.cache.shard(h)
				s.mu.Lock()
				s.put(k, h, e.Items, e.Scores)
				s.mu.Unlock()
			}
		}
	}
}

// release returns b to the pool; the pool must not pin nodes.
func (c *ListCache) release(b *batchCall) {
	clear(b.led)
	clear(b.waits)
	b.lead, b.retry, b.led, b.dups, b.waits = b.lead[:0], b.retry[:0], b.led[:0], b.dups[:0], b.waits[:0]
	c.calls.Put(b)
}
