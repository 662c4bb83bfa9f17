package feed

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWalkSegment throws arbitrary bytes at the one reader of segment
// files, as the only (hence active) segment of a feed directory. The
// invariants under fuzz: the walker never panics; the offset it reports
// is inside the file, on a record boundary and consistent with its
// count; "clean" means exactly "the file ends there"; and the repaired
// outcome holds end to end — Open on those bytes leaves a log that
// accepts an Append and replays the walker's intact prefix plus that one
// record, whatever followed the prefix.
func FuzzWalkSegment(f *testing.F) {
	dir := f.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	if err := l.Append(Event{1, 2}, Event{3, 4}, Event{1 << 20, 7}); err != nil {
		f.Fatal(err)
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	clean, err := os.ReadFile(lastSegment(f, dir))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(clean)
	f.Add(clean[:len(clean)-5]) // torn tail
	badCRC := append([]byte(nil), clean...)
	badCRC[magicSize+recordSize+2] ^= 0xFF // second of three records
	f.Add(badCRC)
	badMagic := append([]byte(nil), clean...)
	badMagic[3] = 'X'
	f.Add(badMagic)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var prefix []Event
		good, n, clean, err := walkSegment(path, func(e Event) error {
			prefix = append(prefix, e)
			return nil
		})
		if err != nil {
			t.Fatalf("walk: %v", err)
		}
		size := int64(len(data))
		switch {
		case good > size:
			t.Fatalf("offset %d past the file size %d", good, size)
		case good == 0 && n != 0:
			t.Fatalf("%d records behind a refused magic", n)
		case good != 0 && good != magicSize+n*recordSize:
			t.Fatalf("offset %d is not the boundary after %d records", good, n)
		case int64(len(prefix)) != n:
			t.Fatalf("delivered %d records, counted %d", len(prefix), n)
		case clean != (good >= magicSize && good == size):
			t.Fatalf("clean=%v with offset %d of %d bytes", clean, good, size)
		}

		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if got := l.Count(); got != n {
			t.Fatalf("recovered Count() = %d, want %d", got, n)
		}
		added := Event{MaxID - 1, MaxID - 1}
		if err := l.Append(added); err != nil {
			t.Fatalf("Append after recovery: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if got, want := collect(t, dir), append(prefix, added); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("replay after recovery = %v, want %v", got, want)
		}
	})
}
