package rank

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// TagTable is an item tag table: an inverted tag index, the metadata
// source behind allow- and deny-list filters ("only recommend items tagged
// kids", "never recommend discontinued"). The name column of its file
// format is accepted and ignored. Tables are immutable after loading and
// safe for concurrent use.
type TagTable struct {
	numItems int
	tags     map[string]tagSet
}

// tagSet is a bitset over items.
type tagSet []uint64

func (s tagSet) has(item int) bool {
	w := item >> 6
	return w < len(s) && s[w]>>(uint(item)&63)&1 == 1
}

// LoadTagTable parses an item metadata table. The format is line-oriented:
//
//	item,name[,tag[,tag...]]
//
// where item is the zero-based item index, name is a display name (may be
// empty; nothing reads it, so it is not stored), and the remaining fields
// are tags. Blank lines and lines starting with '#' are skipped. Items may
// repeat (tags accumulate); items absent from the table simply have no
// tags. numItems bounds the valid item indices; pass the catalogue size.
func LoadTagTable(r io.Reader, numItems int) (*TagTable, error) {
	t := &TagTable{
		numItems: numItems,
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
		for _, raw := range fields[min(2, len(fields)):] {
			tag := strings.TrimSpace(raw)
			if tag == "" {
				continue
			}
			s, ok := t.tags[tag]
			if !ok {
				s = make(tagSet, words)
				t.tags[tag] = s
			}
			s[item>>6] |= 1 << (uint(item) & 63)
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
		return nil, "", fmt.Errorf("rank: empty tag list")
	}
	canon, key := canonTags(tags)
	words := (t.numItems + 63) / 64
	u := make(tagSet, words)
	for _, tag := range canon {
		s, ok := t.tags[tag]
		if !ok {
			return nil, "", fmt.Errorf("rank: unknown tag %q", tag)
		}
		for w := range s {
			u[w] |= s[w]
		}
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
