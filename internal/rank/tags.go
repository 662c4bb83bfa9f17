package rank

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// TagTable is an item name/tag table: per-item display names plus an
// inverted tag index, the metadata source behind allow- and deny-list
// filters ("only recommend items tagged kids", "never recommend
// discontinued"). Tables are immutable after loading and safe for
// concurrent use.
type TagTable struct {
	numItems int
	names    map[int]string
	tags     map[string]tagSet
}

// tagSet is a bitset over items plus its precomputed population count.
type tagSet struct {
	bits  []uint64
	count int
}

func (s tagSet) has(item int) bool {
	w := item >> 6
	return w < len(s.bits) && s.bits[w]>>(uint(item)&63)&1 == 1
}

// LoadTagTable parses an item metadata table. The format is line-oriented:
//
//	item,name[,tag[,tag...]]
//
// where item is the zero-based item index, name is a display name (may be
// empty), and the remaining fields are tags. Blank lines and lines starting
// with '#' are skipped. Items may repeat (tags accumulate); items absent
// from the table simply have no name and no tags. numItems bounds the valid
// item indices; pass the catalogue size.
func LoadTagTable(r io.Reader, numItems int) (*TagTable, error) {
	t := &TagTable{
		numItems: numItems,
		names:    make(map[int]string),
		tags:     make(map[string]tagSet),
	}
	words := (numItems + 63) / 64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, ",")
		item, err := strconv.Atoi(strings.TrimSpace(fields[0]))
		if err != nil {
			return nil, fmt.Errorf("rank: tag table line %d: bad item %q", line, fields[0])
		}
		if item < 0 || item >= numItems {
			return nil, fmt.Errorf("rank: tag table line %d: item %d out of range (%d items)", line, item, numItems)
		}
		if len(fields) > 1 {
			if name := strings.TrimSpace(fields[1]); name != "" {
				t.names[item] = name
			}
		}
		for _, raw := range fields[2:] {
			tag := strings.TrimSpace(raw)
			if tag == "" {
				continue
			}
			s, ok := t.tags[tag]
			if !ok {
				s = tagSet{bits: make([]uint64, words)}
			}
			if !s.has(item) {
				s.bits[item>>6] |= 1 << (uint(item) & 63)
				s.count++
			}
			t.tags[tag] = s
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("rank: reading tag table: %w", err)
	}
	return t, nil
}

// LoadTagTableFile is LoadTagTable over a file path.
func LoadTagTableFile(path string, numItems int) (*TagTable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := LoadTagTable(f, numItems)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// NumItems returns the catalogue size the table was loaded against.
func (t *TagTable) NumItems() int { return t.numItems }

// NumTags returns the number of distinct tags.
func (t *TagTable) NumTags() int { return len(t.tags) }

// Name returns the display name of item, or "" when the table has none.
func (t *TagTable) Name(item int) string { return t.names[item] }

// Allow returns a filter excluding every item NOT carrying at least one of
// the given tags — an allow-list. Unknown tags are an error (a typo would
// otherwise silently empty the allow set).
func (t *TagTable) Allow(tags ...string) (Filter, error) {
	set, key, err := t.union(tags)
	if err != nil {
		return nil, err
	}
	return tagFilter{set: set, invert: true, key: allowLabel + key}, nil
}

// Deny returns a filter excluding every item carrying at least one of the
// given tags — a deny-list. Unknown tags are an error.
func (t *TagTable) Deny(tags ...string) (Filter, error) {
	set, key, err := t.union(tags)
	if err != nil {
		return nil, err
	}
	return tagFilter{set: set, invert: false, key: denyLabel + key}, nil
}

// allowLabel and denyLabel head the cache keys of the two tag filters.
const allowLabel, denyLabel = "allow:", "deny:"

// canonTags returns tags sorted and deduplicated, and the key spelling of
// that set — so {a,b} and {b,a,b} share a cache entry.
func canonTags(tags []string) (canon []string, key string) {
	canon = slices.Clone(tags)
	sort.Strings(canon)
	canon = slices.Compact(canon)
	return canon, strings.Join(canon, ",")
}

// union ORs the bitsets of tags into a fresh set, keyed by canonTags.
func (t *TagTable) union(tags []string) (tagSet, string, error) {
	if len(tags) == 0 {
		return tagSet{}, "", fmt.Errorf("rank: empty tag list")
	}
	canon, key := canonTags(tags)
	words := (t.numItems + 63) / 64
	u := tagSet{bits: make([]uint64, words)}
	for _, tag := range canon {
		s, ok := t.tags[tag]
		if !ok {
			return tagSet{}, "", fmt.Errorf("rank: unknown tag %q", tag)
		}
		for w := range s.bits {
			u.bits[w] |= s.bits[w]
		}
	}
	for _, w := range u.bits {
		u.count += bits.OnesCount64(w)
	}
	return u, key, nil
}

// tagFilter excludes by bitset membership: invert=false denies the set's
// items, invert=true allows only them (excludes the complement). Items
// beyond the table's range carry no tags: a deny keeps them, an allow
// excludes them.
type tagFilter struct {
	set    tagSet
	invert bool
	key    string
}

func (f tagFilter) Excluded(item int) bool { return f.set.has(item) != f.invert }

func (f tagFilter) CacheKey() string { return f.key }

func (f tagFilter) maxExcluded(numItems int) int {
	if f.invert {
		return numItems - f.set.count
	}
	return f.set.count
}
