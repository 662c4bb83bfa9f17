package fsutil_test

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/feed"
	"repro/internal/fsutil"
	"repro/internal/sparse"
)

// tmpName matches the model save's temp file (core.saveTempPath).
var tmpName = regexp.MustCompile(`<dir>/model\.bin\.tmp\.[0-9a-f.]+`)

// TestDurableWriteOrder is the fsync-before-rename invariant of the model
// save and the feed as the operations they report through fsutil.Record:
// the bytes are written, the file is fsynced before it is renamed into
// place (or before the feed moves past it), and the directory that holds
// the new entry — the one the file lives in, not another — is synced last.
// In the expected lists "<tmp>" is the save's temp file beside the model,
// and "<dir>" the test's directory.
func TestDurableWriteOrder(t *testing.T) {
	b := sparse.NewBuilder(4, 3)
	for _, rc := range [][2]int{{0, 0}, {1, 1}, {2, 2}, {3, 0}} {
		b.Add(rc[0], rc[1])
	}
	res, err := core.Train(b.Build(), core.Config{K: 2, Lambda: 1, MaxIter: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	event := feed.Event{User: 1, Item: 2}
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T, dir string) func() error // returns the step under test
		want  []string
	}{
		{"model save", func(t *testing.T, dir string) func() error {
			return func() error { return res.Model.SaveModelFile(filepath.Join(dir, "model.bin")) }
		}, []string{"write <tmp>", "fsync <tmp>", "rename <dir>/model.bin", "syncdir <dir>"}},
		{"feed open", func(t *testing.T, dir string) func() error {
			return func() error { _, err := feed.Open(dir, feed.Options{}); return err }
		}, []string{"write <dir>/00000001.seg", "syncdir <dir>"}},
		{"feed rotation", func(t *testing.T, dir string) func() error {
			l, err := feed.Open(dir, feed.Options{SegmentBytes: 8 + 12})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { l.Close() })
			return func() error { return l.Append(event) }
		}, []string{"write <dir>/00000001.seg", "fsync <dir>/00000001.seg",
			"write <dir>/00000002.seg", "syncdir <dir>"}},
		{"feed sync", func(t *testing.T, dir string) func() error {
			l, err := feed.Open(dir, feed.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { l.Close() })
			if err := l.Append(event); err != nil {
				t.Fatal(err)
			}
			return l.Sync
		}, []string{"write <dir>/00000001.seg", "fsync <dir>/00000001.seg"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			step := tc.setup(t, dir)
			var got []string
			fsutil.Record = func(op, path string) { got = append(got, op+" "+path) }
			defer func() { fsutil.Record = nil }()
			if err := step(); err != nil {
				t.Fatal(err)
			}
			fsutil.Record = nil
			tmps := map[string]bool{}
			for i, g := range got {
				g = strings.ReplaceAll(g, dir, "<dir>")
				if m := tmpName.FindString(g); m != "" {
					tmps[m] = true
					g = strings.ReplaceAll(g, m, "<tmp>")
				}
				got[i] = g
			}
			if len(tmps) > 1 {
				t.Fatalf("operations on %d temp files, want one: %q", len(tmps), got)
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("operations %q, want %q", got, tc.want)
			}
		})
	}
}
