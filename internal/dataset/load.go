package dataset

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/sparse"
)

// LoadOptions controls parsing of rating files.
type LoadOptions struct {
	// Sep is the field separator. MovieLens 1M uses "::"; CSV uses ",".
	Sep string
	// Threshold is the minimum rating treated as a positive example. The
	// paper binarizes MovieLens and Netflix with ratings >= 3 as positives
	// and discards the rest (Section VII-A). For datasets that are already
	// one-class (CiteULike), use Threshold 0 with two-column lines.
	Threshold float64
	// Comment, when non-empty, causes lines starting with it to be skipped.
	Comment string
	// SkipHeader skips the first non-comment line (CSV headers).
	SkipHeader bool
}

// MovieLensOptions are the options for the MovieLens 1M ratings.dat format
// ("userID::movieID::rating::timestamp") with the paper's >=3 binarization.
func MovieLensOptions() LoadOptions { return LoadOptions{Sep: "::", Threshold: 3} }

// LoadRatings parses a ratings stream into a Dataset named name. Each line
// holds at least user and item fields and, unless the file is one-class, a
// rating field. User and item identifiers are arbitrary strings and are
// mapped to dense indices in first-seen order; the mapping is recorded in
// UserNames/ItemNames.
//
// Lines with a rating below opts.Threshold are ignored entirely, matching
// the paper's protocol of treating sub-threshold ratings as unknowns rather
// than negatives.
func LoadRatings(src io.Reader, name string, opts LoadOptions) (*Dataset, error) {
	if opts.Sep == "" {
		return nil, fmt.Errorf("dataset: empty separator")
	}
	type pair struct{ u, i int }
	userIdx := make(map[string]int)
	itemIdx := make(map[string]int)
	var userNames, itemNames []string
	var pairs []pair

	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	headerSkipped := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if opts.Comment != "" && strings.HasPrefix(line, opts.Comment) {
			continue
		}
		if opts.SkipHeader && !headerSkipped {
			headerSkipped = true
			continue
		}
		fields := strings.Split(line, opts.Sep)
		if len(fields) < 2 {
			return nil, fmt.Errorf("dataset: line %d: want at least 2 fields, got %d", lineNo, len(fields))
		}
		if opts.Threshold > 0 {
			if len(fields) < 3 {
				return nil, fmt.Errorf("dataset: line %d: rating field required with threshold %v", lineNo, opts.Threshold)
			}
			rating, err := strconv.ParseFloat(strings.TrimSpace(fields[2]), 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: bad rating %q: %v", lineNo, fields[2], err)
			}
			if rating < opts.Threshold {
				continue
			}
		}
		uKey := strings.TrimSpace(fields[0])
		iKey := strings.TrimSpace(fields[1])
		u, ok := userIdx[uKey]
		if !ok {
			u = len(userNames)
			userIdx[uKey] = u
			userNames = append(userNames, uKey)
		}
		i, ok := itemIdx[iKey]
		if !ok {
			i = len(itemNames)
			itemIdx[iKey] = i
			itemNames = append(itemNames, iKey)
		}
		pairs = append(pairs, pair{u, i})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: reading ratings: %w", err)
	}
	b := sparse.NewBuilder(len(userNames), len(itemNames))
	for _, p := range pairs {
		b.Add(p.u, p.i)
	}
	return &Dataset{Name: name, R: b.Build(), UserNames: userNames, ItemNames: itemNames}, nil
}
