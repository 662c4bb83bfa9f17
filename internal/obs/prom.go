package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
)

// Prometheus text exposition (format version 0.0.4), rendered from the
// very same map[string]any snapshot tree the JSON /metrics serves —
// one snapshot source, two encodings, so the views can never disagree.
//
// Mapping rules: nested map keys join with '_' into the metric name
// (sanitized to the prom charset); numbers and bools become untyped
// samples; strings become info-style samples (name{value="..."} 1);
// HistSnapshot values become real histogram families with cumulative
// le buckets in microseconds; Labeled / LabeledList subtrees render
// their child keys as a label instead of a name segment, which is how
// per-endpoint and per-shard rows keep one family per field.

// Labeled marks a subtree whose Rows should render as one label per
// row key (e.g. endpoint="recommend") rather than as name segments.
// JSON marshalling passes the rows through untouched.
type Labeled struct {
	Label string
	Rows  map[string]map[string]any
}

// MarshalJSON emits the raw rows, keeping the JSON view identical to
// the unwrapped map.
func (l Labeled) MarshalJSON() ([]byte, error) {
	return marshalRows(l.Rows)
}

// LabeledList is Labeled for row slices: each row's Key field supplies
// the label value and the remaining fields become families. JSON
// marshalling again passes the rows through untouched.
type LabeledList struct {
	Label string
	Key   string
	Rows  []map[string]any
}

// MarshalJSON emits the raw rows.
func (l LabeledList) MarshalJSON() ([]byte, error) {
	return marshalRows(l.Rows)
}

// marshalRows encodes rows without escaping HTML characters: the encoder
// around a Marshaler escapes them again if it is set to, and WriteMetrics'
// is not, so a row key such as a tenant named "a&b" reads as it would in
// an unwrapped map.
func marshalRows(rows any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(rows); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(b.Bytes(), []byte("\n")), nil
}

// ContentType is the exposition's Content-Type header value.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

type promFamily struct {
	typ   string
	lines []string
}

// AppendExposition renders tree as Prometheus text exposition onto b.
// prefix (typically "ocular") heads every metric name. Samples of one
// family are emitted contiguously with a single # TYPE line, as the
// format requires, in first-seen walk order; map keys are walked
// sorted so the output is deterministic.
func AppendExposition(b []byte, prefix string, tree map[string]any) []byte {
	fams := map[string]*promFamily{}
	var order []string
	family := func(name, typ string) *promFamily {
		f := fams[name]
		if f == nil {
			f = &promFamily{typ: typ}
			fams[name] = f
			order = append(order, name)
		}
		return f
	}
	var walk func(name, labels string, v any)
	sample := func(name, labels, value string) {
		f := family(name, "untyped")
		var line []byte
		line = append(line, name...)
		if labels != "" {
			line = append(line, '{')
			line = append(line, labels...)
			line = append(line, '}')
		}
		line = append(line, ' ')
		line = append(line, value...)
		f.lines = append(f.lines, string(line))
	}
	addLabel := func(labels, k, v string) string {
		pair := sanitizeName(k) + `="` + escapeLabel(v) + `"`
		if labels == "" {
			return pair
		}
		return labels + "," + pair
	}
	walk = func(name, labels string, v any) {
		switch x := v.(type) {
		case map[string]any:
			keys := make([]string, 0, len(x))
			for k := range x {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				walk(name+"_"+sanitizeName(k), labels, x[k])
			}
		case Labeled:
			keys := make([]string, 0, len(x.Rows))
			for k := range x.Rows {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				rl := addLabel(labels, x.Label, k)
				walk(name, rl, map[string]any(x.Rows[k]))
			}
		case LabeledList:
			for _, row := range x.Rows {
				key, _ := row[x.Key].(string)
				rl := addLabel(labels, x.Label, key)
				rest := make(map[string]any, len(row))
				for k, v := range row {
					if k != x.Key {
						rest[k] = v
					}
				}
				walk(name, rl, rest)
			}
		case HistSnapshot:
			appendHistFamily(family(name, "histogram"), name, labels, x)
		case *HistSnapshot:
			if x != nil {
				appendHistFamily(family(name, "histogram"), name, labels, *x)
			}
		case bool:
			if x {
				sample(name, labels, "1")
			} else {
				sample(name, labels, "0")
			}
		case string:
			sample(name, addLabel(labels, "value", x), "1")
		case float64:
			sample(name, labels, strconv.FormatFloat(x, 'g', -1, 64))
		case float32:
			sample(name, labels, strconv.FormatFloat(float64(x), 'g', -1, 64))
		case int:
			sample(name, labels, strconv.FormatInt(int64(x), 10))
		case int64:
			sample(name, labels, strconv.FormatInt(x, 10))
		case uint64:
			sample(name, labels, strconv.FormatUint(x, 10))
		case uint32:
			sample(name, labels, strconv.FormatUint(uint64(x), 10))
		case nil:
			// skip
		default:
			// Unknown leaf types are skipped rather than guessed at;
			// the JSON view still carries them.
		}
	}
	walk(sanitizeName(prefix), "", tree)
	for _, name := range order {
		f := fams[name]
		b = append(b, "# TYPE "...)
		b = append(b, name...)
		b = append(b, ' ')
		b = append(b, f.typ...)
		b = append(b, '\n')
		for _, line := range f.lines {
			b = append(b, line...)
			b = append(b, '\n')
		}
	}
	return b
}

// appendHistFamily renders one HistSnapshot as _bucket/_sum/_count
// samples; bucket bounds are the µs upper bounds, cumulative, with the
// mandatory le="+Inf" bucket equal to _count.
func appendHistFamily(f *promFamily, name, labels string, s HistSnapshot) {
	withLE := func(le string) string {
		pair := `le="` + le + `"`
		if labels == "" {
			return pair
		}
		return labels + "," + pair
	}
	cum := uint64(0)
	for i, n := range s.Buckets {
		cum += n
		le := "+Inf"
		if i < len(bucketBoundsMicros) {
			le = strconv.FormatInt(bucketBoundsMicros[i], 10)
		}
		f.lines = append(f.lines,
			name+"_bucket{"+withLE(le)+"} "+strconv.FormatUint(cum, 10))
	}
	suffix := " "
	if labels != "" {
		suffix = "{" + labels + "} "
	}
	f.lines = append(f.lines, name+"_sum"+suffix+strconv.FormatInt(s.SumMicros, 10))
	f.lines = append(f.lines, name+"_count"+suffix+strconv.FormatUint(s.Count, 10))
}

// sanitizeName maps an arbitrary key into the prom name charset
// [a-zA-Z0-9_]; anything else becomes '_', and a leading digit gets a
// '_' prefix.
func sanitizeName(s string) string {
	if s == "" {
		return "_"
	}
	out := []byte(s)
	changed := false
	for i := 0; i < len(out); i++ {
		c := out[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9' && i > 0)
		if !ok {
			out[i] = '_'
			changed = true
		}
	}
	if !changed {
		return s
	}
	return string(out)
}

func escapeLabel(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, c)
		}
	}
	return string(out)
}

// WriteMetrics answers a GET /metrics from one snapshot tree, so the two
// views can never disagree: Prometheus text exposition when the query
// says format=prometheus, JSON — the default — otherwise. It returns the
// HTTP status for instrumented handlers.
func WriteMetrics(w http.ResponseWriter, r *http.Request, tree map[string]any) int {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", ContentType)
		_, _ = w.Write(AppendExposition(nil, "ocular", tree))
		return http.StatusOK
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(tree)
	return http.StatusOK
}
