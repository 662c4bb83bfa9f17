package feed

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func collect(t testing.TB, dir string) []Event {
	t.Helper()
	evs, err := Events(dir)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{{1, 2}, {3, 4}, {0, 0}, {1 << 20, 7}}
	if err := l.Append(want[:2]...); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(want[2:]...); err != nil {
		t.Fatal(err)
	}
	if got := l.Count(); got != int64(len(want)) {
		t.Fatalf("Count() = %d, want %d", got, len(want))
	}
	// Package-level replay sees flushed appends without a Close.
	got := collect(t, dir)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replay = %v, want %v", got, want)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen recovers the count.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.Count(); got != int64(len(want)) {
		t.Fatalf("reopened Count() = %d, want %d", got, len(want))
	}
}

func TestAppendRejectsHugeIDs(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(Event{MaxID, 0}); err == nil {
		t.Error("user at MaxID accepted")
	}
	if err := l.Append(Event{0, MaxID}); err == nil {
		t.Error("item at MaxID accepted")
	}
	if got := l.Count(); got != 0 {
		t.Errorf("rejected events counted: %d", got)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	// Room for 3 records per segment.
	l, err := Open(dir, Options{SegmentBytes: magicSize + 3*recordSize})
	if err != nil {
		t.Fatal(err)
	}
	var want []Event
	for i := 0; i < 10; i++ {
		e := Event{uint32(i), uint32(i * 2)}
		want = append(want, e)
		if err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if segs := l.Segments(); segs < 4 {
		t.Fatalf("Segments() = %d, want >= 4 after 10 records at 3/segment", segs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := collect(t, dir)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replay across segments = %v, want %v", got, want)
	}
	n, err := Count(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(want)) {
		t.Fatalf("Count(dir) = %d, want %d", n, len(want))
	}
	// Reopen continues in a fresh segment (the last rotated at capacity)
	// and appends land after the existing records.
	l2, err := Open(dir, Options{SegmentBytes: magicSize + 3*recordSize})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.Append(Event{99, 99}); err != nil {
		t.Fatal(err)
	}
	got = collect(t, dir)
	if len(got) != len(want)+1 || got[len(got)-1] != (Event{99, 99}) {
		t.Fatalf("append after reopen: replay = %v", got)
	}
}

// lastSegment returns the path of the highest-numbered segment file.
func lastSegment(t testing.TB, dir string) string {
	t.Helper()
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	return filepath.Join(dir, segs[len(segs)-1].name)
}

// TestTornTailRecovery is the crash-recovery contract: a torn tail on the
// active segment (short record, corrupted checksum, or even a torn magic)
// is truncated on Open, replay sees exactly the intact prefix, and the
// log keeps accepting appends afterwards — so a crashed writer replays
// idempotently into the same training matrix.
func TestTornTailRecovery(t *testing.T) {
	cases := []struct {
		name string
		tear func(t *testing.T, path string)
	}{
		{"short record", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte{1, 2, 3, 4, 5}); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}},
		{"corrupt checksum", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			// A full-size record whose checksum cannot match.
			if _, err := f.Write(make([]byte, recordSize)); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := []Event{{1, 1}, {2, 2}, {3, 3}}
			if err := l.Append(want...); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			tc.tear(t, lastSegment(t, dir))

			// A reader sees only the intact prefix even before recovery.
			if got := collect(t, dir); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("replay before recovery = %v, want %v", got, want)
			}

			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := l2.Count(); got != int64(len(want)) {
				t.Fatalf("recovered Count() = %d, want %d", got, len(want))
			}
			if err := l2.Append(Event{4, 4}); err != nil {
				t.Fatal(err)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			got := collect(t, dir)
			want = append(want, Event{4, 4})
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("replay after recovery+append = %v, want %v", got, want)
			}
		})
	}
}

func TestTornMagicRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash between segment creation and a durable magic: the
	// file exists with a partial magic.
	path := lastSegment(t, dir)
	if err := os.WriteFile(path, []byte("OCF"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, dir); len(got) != 0 {
		t.Fatalf("replay of torn-magic segment = %v, want empty", got)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.Append(Event{7, 7}); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, dir); len(got) != 1 || got[0] != (Event{7, 7}) {
		t.Fatalf("replay after torn-magic recovery = %v", got)
	}
}

func TestSealedSegmentCorruptionIsAnError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: magicSize + 2*recordSize})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ { // several sealed segments
		if err := l.Append(Event{uint32(i), 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("want >= 3 segments, got %d", len(segs))
	}
	// Corrupt a record in the FIRST (sealed, fsynced) segment: rotation
	// promised durability, so this is damage, not a crash artifact.
	first := filepath.Join(dir, segs[0].name)
	f, err := os.OpenFile(first, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, magicSize+2); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Events(dir); err == nil {
		t.Fatal("replay of corrupt sealed segment succeeded")
	}
	// A sealed segment that lost bytes (torn size) is caught by Open's
	// framing check as well.
	if err := os.Truncate(first, segs[0].size-3); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open with torn sealed segment succeeded")
	}
}

func TestCountMissingDirIsZero(t *testing.T) {
	n, err := Count(filepath.Join(t.TempDir(), "nope"))
	if err != nil || n != 0 {
		t.Fatalf("Count(missing) = %d, %v; want 0, nil", n, err)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Open(t.TempDir(), Options{SegmentBytes: 5}); err == nil {
		t.Fatal("tiny SegmentBytes accepted")
	}
}

// TestWriterRepairsAfterFailedAppend: a transient write failure (bufio's
// sticky error) must not brick the log for the life of the process — the
// next operation rescans the active segment, truncates whatever partial
// bytes the failed write left, and appends cleanly.
func TestWriterRepairsAfterFailedAppend(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Event{User: 1, Item: 1}, Event{User: 2, Item: 2}); err != nil {
		t.Fatal(err)
	}
	// Simulate the aftermath of a failed flush: some garbage reached the
	// file and the writer is marked broken.
	l.mu.Lock()
	if _, err := l.f.Write([]byte{9, 9, 9, 9, 9}); err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	l.size += 5
	l.broken = true
	l.mu.Unlock()

	// The next append repairs (truncating the partial bytes) and lands.
	if err := l.Append(Event{User: 3, Item: 3}); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	if got := l.Count(); got != 3 {
		t.Errorf("Count() = %d after repair, want 3", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := collect(t, dir)
	want := []Event{{1, 1}, {2, 2}, {3, 3}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replay after repair = %v, want %v", got, want)
	}
}
