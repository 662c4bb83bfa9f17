package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// CheckExposition validates a Prometheus text exposition: metric-name
// and label-name syntax, known TYPE lines, one contiguous block per
// family, no series sampled twice (one name, one label set in any
// order), histograms with increasing le bounds, non-decreasing
// cumulative counts, a closing +Inf bucket that matches _count, and a
// _sum sample. It is the in-repo stand-in for a real scraper in CI —
// strict enough to catch a malformed exposition, zero dependencies.
func CheckExposition(r io.Reader) error {
	c := &expoChecker{
		types:  map[string]string{},
		closed: map[string]bool{},
		series: map[string]bool{},
		hists:  map[string]map[string]*histSeries{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if err := c.checkLine(sc.Text()); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if line == 0 {
		return fmt.Errorf("empty exposition")
	}
	return c.finish()
}

type histSeries struct {
	les      []float64
	counts   []uint64
	sum      bool
	count    uint64
	hasCount bool
}

type expoChecker struct {
	types   map[string]string
	closed  map[string]bool
	series  map[string]bool // name{labelKey}: every sample seen
	current string
	hists   map[string]map[string]*histSeries
}

var promTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true,
	"summary": true, "untyped": true,
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}

func (c *expoChecker) checkLine(s string) error {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	if strings.HasPrefix(s, "#") {
		fields := strings.Fields(s)
		if len(fields) >= 2 && (fields[1] == "TYPE" || fields[1] == "HELP") {
			if len(fields) < 3 {
				return fmt.Errorf("malformed %s line", fields[1])
			}
			name := fields[2]
			if !validMetricName(name) {
				return fmt.Errorf("invalid metric name %q", name)
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("malformed TYPE line")
				}
				if !promTypes[fields[3]] {
					return fmt.Errorf("unknown metric type %q", fields[3])
				}
				if _, dup := c.types[name]; dup {
					return fmt.Errorf("duplicate TYPE for %q", name)
				}
				if c.closed[name] {
					return fmt.Errorf("TYPE for %q after its samples ended", name)
				}
				c.types[name] = fields[3]
				c.enter(name)
			}
		}
		return nil
	}
	name, labels, value, err := parseSample(s)
	if err != nil {
		return err
	}
	if !validMetricName(name) {
		return fmt.Errorf("invalid metric name %q", name)
	}
	id := name + "{" + labelKey(labels) + "}"
	if c.series[id] {
		return fmt.Errorf("series %s sampled twice", id)
	}
	c.series[id] = true
	fam := c.familyOf(name)
	if _, ok := c.types[fam]; !ok {
		return fmt.Errorf("sample %q has no TYPE line", name)
	}
	if err := c.enterErr(fam); err != nil {
		return err
	}
	if c.types[fam] == "histogram" {
		return c.histSample(fam, name, labels, value)
	}
	return nil
}

// enter switches the contiguity tracker to family name, closing the
// previous one.
func (c *expoChecker) enter(name string) {
	if c.current != "" && c.current != name {
		c.closed[c.current] = true
	}
	c.current = name
}

func (c *expoChecker) enterErr(name string) error {
	if c.closed[name] && c.current != name {
		return fmt.Errorf("family %q is not contiguous", name)
	}
	c.enter(name)
	return nil
}

// familyOf resolves a sample name to its family: histogram samples
// carry _bucket/_sum/_count suffixes.
func (c *expoChecker) familyOf(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base, ok := strings.CutSuffix(name, suf)
		if ok && c.types[base] == "histogram" {
			return base
		}
	}
	return name
}

func (c *expoChecker) histSample(fam, name string, labels map[string]string, value string) error {
	series := c.hists[fam]
	if series == nil {
		series = map[string]*histSeries{}
		c.hists[fam] = series
	}
	le, hasLE := labels["le"]
	delete(labels, "le")
	key := labelKey(labels)
	h := series[key]
	if h == nil {
		h = &histSeries{}
		series[key] = h
	}
	switch {
	case strings.HasSuffix(name, "_bucket"):
		if !hasLE {
			return fmt.Errorf("histogram bucket %q lacks an le label", name)
		}
		lef, err := parseLE(le)
		if err != nil {
			return fmt.Errorf("bucket %q: %w", name, err)
		}
		n, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			return fmt.Errorf("bucket %q has non-integer count %q", name, value)
		}
		h.les = append(h.les, lef)
		h.counts = append(h.counts, n)
	case strings.HasSuffix(name, "_sum"):
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return fmt.Errorf("%q has non-numeric value %q", name, value)
		}
		h.sum = true
	case strings.HasSuffix(name, "_count"):
		n, err := strconv.ParseUint(value, 10, 64)
		if err != nil {
			return fmt.Errorf("%q has non-integer value %q", name, value)
		}
		h.count = n
		h.hasCount = true
	default:
		return fmt.Errorf("sample %q inside histogram family %q", name, fam)
	}
	return nil
}

// labelKey writes a label set in one canonical order, whatever order the
// sample wrote it in: k=v; pairs sorted by name.
func labelKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sk strings.Builder
	for _, k := range keys {
		sk.WriteString(k)
		sk.WriteByte('=')
		sk.WriteString(labels[k])
		sk.WriteByte(';')
	}
	return sk.String()
}

func parseLE(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad le bound %q", s)
	}
	return f, nil
}

func (c *expoChecker) finish() error {
	for fam, series := range c.hists {
		for key, h := range series {
			where := fam
			if key != "" {
				where = fam + "{" + key + "}"
			}
			if len(h.les) == 0 {
				return fmt.Errorf("histogram %s has no buckets", where)
			}
			for i := 1; i < len(h.les); i++ {
				if h.les[i] <= h.les[i-1] {
					return fmt.Errorf("histogram %s: le bounds not increasing", where)
				}
				if h.counts[i] < h.counts[i-1] {
					return fmt.Errorf("histogram %s: bucket counts decrease at le=%g", where, h.les[i])
				}
			}
			last := h.les[len(h.les)-1]
			if !math.IsInf(last, 1) {
				return fmt.Errorf("histogram %s lacks the +Inf bucket", where)
			}
			if !h.hasCount {
				return fmt.Errorf("histogram %s lacks a _count sample", where)
			}
			if h.counts[len(h.counts)-1] != h.count {
				return fmt.Errorf("histogram %s: +Inf bucket %d != _count %d",
					where, h.counts[len(h.counts)-1], h.count)
			}
			if !h.sum {
				return fmt.Errorf("histogram %s lacks a _sum sample", where)
			}
		}
	}
	return nil
}

// parseSample splits a sample line into name, labels and value,
// validating label syntax and escapes. Timestamps (a trailing integer
// field) are accepted and ignored.
func parseSample(s string) (name string, labels map[string]string, value string, err error) {
	labels = map[string]string{}
	i := 0
	for i < len(s) && s[i] != '{' && s[i] != ' ' {
		i++
	}
	name = s[:i]
	if i < len(s) && s[i] == '{' {
		i++
		for {
			for i < len(s) && s[i] == ' ' {
				i++
			}
			if i < len(s) && s[i] == '}' {
				i++
				break
			}
			j := i
			for j < len(s) && s[j] != '=' {
				j++
			}
			if j == len(s) {
				return "", nil, "", fmt.Errorf("unterminated label set")
			}
			lname := strings.TrimSpace(s[i:j])
			if !validLabelName(lname) {
				return "", nil, "", fmt.Errorf("invalid label name %q", lname)
			}
			i = j + 1
			if i >= len(s) || s[i] != '"' {
				return "", nil, "", fmt.Errorf("label %q value is not quoted", lname)
			}
			i++
			var val strings.Builder
			for {
				if i >= len(s) {
					return "", nil, "", fmt.Errorf("unterminated label value for %q", lname)
				}
				c := s[i]
				if c == '"' {
					i++
					break
				}
				if c == '\\' {
					i++
					if i >= len(s) {
						return "", nil, "", fmt.Errorf("dangling escape in label %q", lname)
					}
					switch s[i] {
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					case 'n':
						val.WriteByte('\n')
					default:
						return "", nil, "", fmt.Errorf("bad escape \\%c in label %q", s[i], lname)
					}
					i++
					continue
				}
				val.WriteByte(c)
				i++
			}
			labels[lname] = val.String()
			if i < len(s) && s[i] == ',' {
				i++
			}
		}
	}
	rest := strings.Fields(s[i:])
	if len(rest) < 1 || len(rest) > 2 {
		return "", nil, "", fmt.Errorf("expected value (and optional timestamp) after %q", name)
	}
	value = rest[0]
	if _, ferr := strconv.ParseFloat(strings.TrimPrefix(value, "+"), 64); ferr != nil && value != "+Inf" && value != "-Inf" && value != "NaN" {
		return "", nil, "", fmt.Errorf("non-numeric sample value %q", value)
	}
	if len(rest) == 2 {
		if _, terr := strconv.ParseInt(rest[1], 10, 64); terr != nil {
			return "", nil, "", fmt.Errorf("bad timestamp %q", rest[1])
		}
	}
	return name, labels, value, nil
}
