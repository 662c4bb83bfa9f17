package rank

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sparse"
)

// Filter removes candidate items from a ranking. The engine evaluates
// filters between scoring and selection: an item excluded by any filter of
// a request never appears in the result, however high it scores.
//
// Implementations may additionally provide either of two optional
// fast paths the engine exploits when present:
//
//   - Sorted: the exclusions as an ascending []int32; the selection scan
//     walks it with a cursor instead of calling Excluded per item (the
//     training-row walk of the offline evaluator).
//   - Keyed: a stable fingerprint making requests with this filter
//     cacheable. A request is cached (and duplicate misses coalesced) only
//     when every filter is Keyed.
type Filter interface {
	// Excluded reports whether item must be removed from the candidates.
	Excluded(item int) bool
}

// Sorted is the sorted-iteration fast path of a Filter: ExcludedList
// returns the excluded items ascending and duplicate-free, letting the
// selection scan advance a cursor in O(1) amortized per item instead of
// calling Excluded.
type Sorted interface {
	Filter
	// ExcludedList returns the excluded items in ascending order without
	// duplicates. The slice may alias internal storage; callers must not
	// modify it.
	ExcludedList() []int32
}

// Keyed is the cacheability fast path of a Filter: CacheKey returns a
// fingerprint that uniquely identifies the filter's exclusion set for the
// lifetime of one Engine. Two filters with equal keys must exclude exactly
// the same items against that engine's scorer. An empty key marks the
// filter uncacheable.
type Keyed interface {
	Filter
	CacheKey() string
}

// bounder is implemented by the provided filters so selection can size its
// sort-versus-heap decision without a counting pass. maxExcluded returns an
// upper bound on how many of numItems items the filter excludes.
type bounder interface {
	maxExcluded(numItems int) int
}

// TrainRow excludes the items user u has a training positive for in train —
// the offline evaluation protocol's candidate set (rank the unknowns), and
// the serving default of never recommending an item back to its owner.
func TrainRow(train *sparse.Matrix, u int) Filter {
	return rowFilter{row: train.Row(u), user: u}
}

type rowFilter struct {
	row  []int32 // sorted, duplicate-free (CSR row invariant)
	user int
}

func (f rowFilter) Excluded(item int) bool {
	n := sort.Search(len(f.row), func(i int) bool { return int(f.row[i]) >= item })
	return n < len(f.row) && int(f.row[n]) == item
}

func (f rowFilter) ExcludedList() []int32 { return f.row }

// CacheKey identifies the row by user index: within one engine the train
// matrix is fixed, so the user uniquely determines the exclusion set.
func (f rowFilter) CacheKey() string { return "train:" + strconv.Itoa(f.user) }

func (f rowFilter) maxExcluded(int) int { return len(f.row) }

// ExcludeItems excludes an explicit per-request item list (a client's "do
// not recommend these" set, or a fold-in user's history). The input is
// copied, sorted and deduplicated; out-of-range items are the caller's
// responsibility to reject.
func ExcludeItems(items []int) Filter {
	list := make([]int32, 0, len(items))
	for _, i := range items {
		list = append(list, int32(i))
	}
	sort.Slice(list, func(a, b int) bool { return list[a] < list[b] })
	dst := 0
	for n, v := range list {
		if n > 0 && v == list[n-1] {
			continue
		}
		list[dst] = v
		dst++
	}
	list = list[:dst]
	// The key spells the exact item set out, so distinct exclusion lists
	// can never collide in the cache (a hash could). Built once here, not
	// per CacheKey call — a batch fingerprints the same filter once per
	// user.
	var b strings.Builder
	b.WriteString("ex:")
	for n, i := range list {
		if n > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(i)))
	}
	return itemsFilter{list: list, key: b.String()}
}

type itemsFilter struct {
	list []int32 // sorted, duplicate-free
	key  string
}

func (f itemsFilter) Excluded(item int) bool {
	n := sort.Search(len(f.list), func(i int) bool { return int(f.list[i]) >= item })
	return n < len(f.list) && int(f.list[n]) == item
}

func (f itemsFilter) ExcludedList() []int32 { return f.list }

func (f itemsFilter) CacheKey() string { return f.key }

func (f itemsFilter) maxExcluded(numItems int) int {
	if len(f.list) > numItems {
		return numItems
	}
	return len(f.list)
}

// OffsetRange adapts a filter expressed over global item ids to the local
// index space of an item partition [lo, hi): local index n stands for
// global item n+lo. The sharded serving tier scores only its partition —
// the rank engine there sees local indices 0..hi-lo — while request
// filters (training rows, exclusion lists, tag tables) speak global ids;
// this adapter bridges the two without the filters knowing about shards.
//
// A Sorted inner filter keeps its fast path without being copied: the
// result is the window list[a:b] of the global exclusion list that falls in
// [lo, hi) — two binary searches at construction — and lo, the base the
// selection scan adds to a local index before it compares, so the scan
// still advances a cursor instead of probing a predicate per item. Other
// filters are wrapped as shifted predicates. The result is deliberately
// unkeyed — shards serve cacheless by design (the router owns the
// fingerprint cache), so spending work on a range-qualified cache key would
// buy nothing.
func OffsetRange(f Filter, lo, hi int) Filter {
	if sf, ok := f.(Sorted); ok {
		list := sf.ExcludedList()
		a := sort.Search(len(list), func(i int) bool { return int(list[i]) >= lo })
		b := sort.Search(len(list), func(i int) bool { return int(list[i]) >= hi })
		return windowFilter{list: list[a:b], lo: lo}
	}
	return offsetFilter{inner: f, lo: lo}
}

// windowFilter is a Sorted filter seen from a partition: list aliases the
// inner filter's global ids inside the range, local index n standing for
// global item n+lo. The exclusion scan reads the two fields directly.
type windowFilter struct {
	list []int32
	lo   int
}

func (f windowFilter) Excluded(local int) bool {
	_, found := slices.BinarySearch(f.list, int32(local+f.lo))
	return found
}

func (f windowFilter) maxExcluded(int) int { return len(f.list) }

// offsetFilter shifts a predicate-only filter into partition-local index
// space.
type offsetFilter struct {
	inner Filter
	lo    int
}

func (f offsetFilter) Excluded(local int) bool { return f.inner.Excluded(local + f.lo) }

func (f offsetFilter) maxExcluded(numItems int) int {
	if b, ok := f.inner.(bounder); ok {
		return b.maxExcluded(numItems)
	}
	return numItems
}

// Union composes filters: the result excludes an item iff any member does.
// The engine flattens unions, so members keep their individual sorted and
// keyed fast paths; a Union is cacheable exactly when all members are.
func Union(filters ...Filter) Filter {
	return unionFilter(filters)
}

type unionFilter []Filter

func (u unionFilter) Excluded(item int) bool {
	for _, f := range u {
		if f != nil && f.Excluded(item) {
			return true
		}
	}
	return false
}

// flatten appends filters to dst with unions expanded and nil filters
// dropped: the flat list the selection scan and the request fingerprint
// operate on.
func flatten(dst, filters []Filter) []Filter {
	for _, f := range filters {
		switch v := f.(type) {
		case nil:
		case unionFilter:
			dst = flatten(dst, v)
		default:
			dst = append(dst, f)
		}
	}
	return dst
}

// maxFingerprintLen caps the bytes a request fingerprint may pin in the
// cache. The LRU bounds entry count, not entry size; without a cap, a
// stream of distinct huge exclude_items lists could pin CacheSize ×
// body-size bytes of key strings. Oversized fingerprints make the request
// uncacheable instead — correct, just uncached.
const maxFingerprintLen = 4096

// appendKeys appends to dst the cache keys of a flat filter list and then
// of a stage list; ok = false when a filter is not Keyed.
func appendKeys(dst []string, flat []Filter, stages []Stage) (keys []string, ok bool) {
	for _, f := range flat {
		k, ok := f.(Keyed)
		if !ok {
			return dst, false
		}
		dst = append(dst, k.CacheKey())
	}
	for _, st := range stages {
		dst = append(dst, st.CacheKey())
	}
	return dst, true
}

// encodeKeys builds the cache-key contribution of a request from its
// component keys — the first nf its filters', the rest its stages' (see
// fingerprintStaged) — reporting cacheable=false when a key is empty or
// the result would exceed maxFingerprintLen. Keys are length-prefixed
// before concatenation so the encoding stays injective whatever bytes a
// key contains (a tag literally named "a|deny:b" must not collide with the
// allow:a + deny:b filter pair). No keys is cacheable with an empty
// fingerprint — the plain (user, m) request of the unfiltered hot path.
func encodeKeys(keys []string, nf int) (fp string, cacheable bool) {
	size := 0
	for _, k := range keys {
		if k == "" {
			return "", false
		}
		size += len(k)
	}
	if size > maxFingerprintLen {
		return "", false
	}
	if len(keys) == 0 {
		return "", true
	}
	var b strings.Builder
	var num [20]byte
	b.Grow(size + 5*len(keys) + 3)
	for i, key := range keys {
		if i == nf {
			b.WriteString("|s|")
		}
		if b.Len()+len(key) > maxFingerprintLen {
			return "", false
		}
		b.Write(strconv.AppendInt(num[:0], int64(len(key)), 10))
		b.WriteByte(':')
		b.WriteString(key)
	}
	return b.String(), true
}
