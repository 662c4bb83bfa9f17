// Package feed is the interaction log of the continuous-training
// pipeline: an append-only, checksummed record of new positive examples
// (user, item pairs) arriving after the served model was trained. The
// serving layer appends through /v1/ingest; the trainer replays the log,
// folds it into the training matrix, and retrains.
//
// The log is a directory of numbered segment files. Each segment starts
// with an 8-byte magic and holds fixed-size 12-byte records: user and
// item as little-endian uint32 followed by a CRC-32 (IEEE) of the two.
// Appends are batched through a buffered writer and flushed to the OS on
// every Append call (so same-machine readers see them immediately);
// durability points are segment rotation, Sync and Close, which fsync.
// A crash can therefore tear only the tail of the active (last) segment,
// and only past the last Sync; sealed segments (everything but the last)
// were fsynced by rotation.
//
// One walker (walkSegment) reads every segment, and what it finds sorts a
// segment into exactly one of three outcomes:
//
//   - good: the file ends on a record boundary and every record's
//     checksum holds. Nothing to do.
//   - repaired: the ACTIVE segment has a short, checksum-failing or
//     missing-magic tail. That is what a crash or a failed write leaves,
//     so a reader stops at the last intact record and the writer (Open,
//     and the next operation after a failed Append) truncates the tail
//     there — or recreates the file if not even its magic survived.
//   - refused: a SEALED segment with any of the same damage. Rotation
//     promised durability, so this is corruption, not a crash artifact:
//     Open and Replay return an error and change nothing.
//
// Replay is idempotent by construction downstream: records are (user,
// item) positives, and the training matrix builder deduplicates, so
// replaying a prefix twice or appending the same pair again cannot
// change the trained model.
//
// A log has a single writer process; Open does not lock the directory.
// Concurrent readers (Replay, Count) are safe from any process.
package feed

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/fsutil"
)

const (
	segMagic   = "OCFEED:1"
	magicSize  = 8
	recordSize = 12
	segSuffix  = ".seg"
)

// MaxID bounds user and item ids, mirroring the model reader's dimension
// guard: an id at or above MaxID can never index a servable model, so it
// is rejected at the door rather than poisoning the training matrix.
const MaxID = 1 << 28

// DefaultSegmentBytes is the rotation threshold when Options.SegmentBytes
// is zero: ~5.6M records per segment.
const DefaultSegmentBytes = 64 << 20

// Event is one logged positive example.
type Event struct {
	User, Item uint32
}

// Options tunes a Log. The zero value uses DefaultSegmentBytes.
type Options struct {
	// SegmentBytes is the size at which the active segment is sealed
	// (fsynced, closed) and a new one started. 0 means
	// DefaultSegmentBytes; values below one record's worth are rejected.
	SegmentBytes int64
}

// Log is the single-writer handle of a feed directory. All methods are
// safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	mu     sync.Mutex
	f      *os.File      // active segment
	w      *bufio.Writer // buffers record batches into f
	size   int64         // bytes in the active segment (including buffered)
	seq    int           // active segment sequence number
	count  int64         // records across all segments (including buffered)
	sealed int           // sealed (rotated) segments
	closed bool
	// countSealed is the record count across sealed segments only; the
	// repair path recomputes count as countSealed plus a rescan of the
	// active segment.
	countSealed int64
	// broken marks a failed write or flush on the active segment: the
	// bufio error is sticky and an unknown prefix of the batch may have
	// reached the file, so the next operation re-opens and re-scans the
	// active segment (truncating any torn tail) instead of wedging every
	// later append behind one transient ENOSPC.
	broken bool
}

// Open opens (creating if needed) the feed log in dir and recovers from a
// crash: the tail of the last segment is truncated at the first torn or
// checksum-failing record, so the next Append lands after the last intact
// one and a replay never observes partial writes.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes == 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SegmentBytes < magicSize+recordSize {
		return nil, fmt.Errorf("feed: SegmentBytes %d below one record's worth (%d)", opts.SegmentBytes, magicSize+recordSize)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("feed: %w", err)
	}
	segs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts}
	if len(segs) == 0 {
		if err := l.startSegment(1); err != nil {
			return nil, err
		}
		return l, nil
	}
	// Sealed segments were fsynced by rotation; only count them.
	for _, s := range segs[:len(segs)-1] {
		n, err := sealedCount(filepath.Join(dir, s.name), s.size)
		if err != nil {
			return nil, err
		}
		l.countSealed += n
		l.sealed++
	}
	if err := l.recoverActive(segs[len(segs)-1].seq); err != nil {
		return nil, err
	}
	return l, nil
}

// recoverActive is the "repaired" outcome of the package comment, run by
// Open on the last segment and by repairLocked after a failed write: walk
// segment seq, cut whatever follows its last intact record (recreating
// the file if not even the magic survived), reopen it for append and set
// the counters from what the walk found. Caller holds l.mu (or the log is
// not yet shared).
func (l *Log) recoverActive(seq int) error {
	path := filepath.Join(l.dir, segName(seq))
	good, n, clean, err := walkSegment(path, nil)
	if err != nil {
		return err
	}
	if good < magicSize {
		// The magic write itself is only fsynced with the first Sync or
		// rotation, so a crash can leave a created-but-empty segment.
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("feed: recreating torn segment %s: %w", segName(seq), err)
		}
		if err := l.startSegment(seq); err != nil {
			return err
		}
	} else {
		if !clean {
			if err := os.Truncate(path, good); err != nil {
				return fmt.Errorf("feed: truncating torn tail of %s: %w", segName(seq), err)
			}
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			return fmt.Errorf("feed: %w", err)
		}
		l.f, l.w, l.size, l.seq = f, bufio.NewWriterSize(f, 1<<16), good, seq
	}
	l.count = l.countSealed + n
	return nil
}

// startSegment creates segment seq and installs it as the active one.
// Caller holds l.mu (or the log is not yet shared).
func (l *Log) startSegment(seq int) error {
	f, w, err := l.createSegment(seq)
	if err != nil {
		return err
	}
	l.f, l.w, l.size, l.seq = f, w, magicSize, seq
	return nil
}

// createSegment creates segment seq, writes its magic and makes the file
// durable in the directory, without touching the log's state — so a
// failed creation (ENOSPC, a full directory fsync) leaves the current
// active segment untouched and usable.
func (l *Log) createSegment(seq int) (*os.File, *bufio.Writer, error) {
	path := filepath.Join(l.dir, segName(seq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("feed: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<16)
	if _, err := w.WriteString(segMagic); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("feed: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("feed: %w", err)
	}
	if err := fsutil.SyncDir(l.dir); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("feed: %w", err)
	}
	return f, w, nil
}

// Append logs a batch of events. The batch is buffered and flushed to the
// operating system before Append returns (readers on the same machine see
// it); it becomes crash-durable at the next rotation, Sync or Close. The
// active segment rotates automatically once it reaches SegmentBytes.
func (l *Log) Append(events ...Event) error {
	if len(events) == 0 {
		return nil
	}
	for _, e := range events {
		if e.User >= MaxID || e.Item >= MaxID {
			return fmt.Errorf("feed: event (%d,%d) exceeds id bound %d", e.User, e.Item, MaxID)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("feed: log is closed")
	}
	if err := l.repairLocked(); err != nil {
		return err
	}
	var buf [recordSize]byte
	for _, e := range events {
		binary.LittleEndian.PutUint32(buf[0:], e.User)
		binary.LittleEndian.PutUint32(buf[4:], e.Item)
		binary.LittleEndian.PutUint32(buf[8:], crc32.ChecksumIEEE(buf[:8]))
		if _, err := l.w.Write(buf[:]); err != nil {
			l.broken = true
			return fmt.Errorf("feed: %w", err)
		}
	}
	if err := l.w.Flush(); err != nil {
		l.broken = true
		return fmt.Errorf("feed: %w", err)
	}
	// Counters advance only after a successful flush: on failure an
	// unknown prefix of the batch reached the file, and the repair rescan
	// (not an optimistic increment) decides what actually counts.
	l.size += int64(len(events)) * recordSize
	l.count += int64(len(events))
	if l.size >= l.opts.SegmentBytes {
		return l.rotateLocked()
	}
	return nil
}

// repairLocked recovers a writer marked broken: it abandons the current
// handle and recovers the active segment exactly like Open does. Caller
// holds l.mu.
func (l *Log) repairLocked() error {
	if !l.broken {
		return nil
	}
	l.f.Close() // best effort; the handle is being abandoned either way
	if err := l.recoverActive(l.seq); err != nil {
		return fmt.Errorf("feed: repairing after write failure: %w", err)
	}
	l.broken = false
	return nil
}

// Sync makes every appended record durable (fsync of the active segment).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("feed: log is closed")
	}
	if err := l.repairLocked(); err != nil {
		return err
	}
	if err := l.w.Flush(); err != nil {
		l.broken = true
		return fmt.Errorf("feed: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("feed: %w", err)
	}
	return nil
}

// rotateLocked seals the active segment (flush, fsync, close) and starts
// the next one. Appends after a crash can then only tear the new segment.
func (l *Log) rotateLocked() error {
	if err := l.w.Flush(); err != nil {
		l.broken = true
		return fmt.Errorf("feed: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("feed: %w", err)
	}
	// Create the next segment before retiring this one: if creation fails
	// (disk full), the log keeps appending to the current segment and the
	// next Append retries the rotation — a transient condition must not
	// leave the log pointing at a closed file.
	f, w, err := l.createSegment(l.seq + 1)
	if err != nil {
		return err
	}
	// The new segment is installed even if closing the old one fails: the
	// old one is synced, and abandoning the fresh segment over a close
	// error would lose more than it saves.
	cerr := l.f.Close()
	l.f, l.w, l.size, l.seq = f, w, magicSize, l.seq+1
	l.sealed++
	l.countSealed = l.count
	if cerr != nil {
		return fmt.Errorf("feed: closing sealed segment: %w", cerr)
	}
	return nil
}

// Close flushes, fsyncs and closes the active segment. The log must not
// be used afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.repairLocked(); err != nil {
		l.f.Close()
		return err
	}
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return fmt.Errorf("feed: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		l.f.Close()
		return fmt.Errorf("feed: %w", err)
	}
	return l.f.Close()
}

// Count returns the number of records appended across all segments,
// including records not yet crash-durable.
func (l *Log) Count() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// Segments returns the number of segment files (sealed plus active).
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sealed + 1
}

// --- Package-level readers (cross-process: the trainer) -----------------

type segInfo struct {
	name string
	seq  int
	size int64
}

// segments lists the segment files of dir ascending by sequence number.
func segments(dir string) ([]segInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("feed: %w", err)
	}
	var segs []segInfo
	for _, e := range entries {
		name := e.Name()
		var seq int
		if _, err := fmt.Sscanf(name, "%08d.seg", &seq); err != nil || segName(seq) != name {
			continue // not a segment file
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("feed: %w", err)
		}
		segs = append(segs, segInfo{name: name, seq: seq, size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	for i, s := range segs {
		if s.seq != i+1 {
			return nil, fmt.Errorf("feed: segment sequence gap: found %s at position %d", s.name, i)
		}
	}
	return segs, nil
}

func segName(seq int) string { return fmt.Sprintf("%08d%s", seq, segSuffix) }

// sealedCount is Open's cheap check of a sealed segment: its size must
// frame whole records behind an intact magic, or the segment is refused.
// It reads no records; Replay is the reader that verifies checksums.
func sealedCount(path string, size int64) (int64, error) {
	if size < magicSize || (size-magicSize)%recordSize != 0 {
		return 0, fmt.Errorf("feed: sealed segment %s has torn size %d", filepath.Base(path), size)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("feed: %w", err)
	}
	defer f.Close()
	var magic [magicSize]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return 0, fmt.Errorf("feed: reading magic of %s: %w", filepath.Base(path), err)
	}
	if string(magic[:]) != segMagic {
		return 0, fmt.Errorf("feed: %s is not a feed segment (magic %q)", filepath.Base(path), magic)
	}
	return (size - magicSize) / recordSize, nil
}

// walkSegment is the one reader of segment bytes: the magic, then records
// up to the first that is short or fails its checksum, each intact one
// handed to fn (nil to only measure; an error from fn aborts the walk).
// It returns the offset just past the last intact record — 0 when the
// magic itself is missing or mangled — the intact count, and whether the
// file ended cleanly on that record boundary. What an unclean segment
// means (repair or refuse, see the package comment) is the caller's call.
func walkSegment(path string, fn func(Event) error) (good, records int64, clean bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("feed: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	var rec [recordSize]byte
	if _, err := io.ReadFull(br, rec[:magicSize]); err != nil || string(rec[:magicSize]) != segMagic {
		return 0, 0, false, nil
	}
	good = magicSize
	for {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return good, records, err == io.EOF, nil // clean end, or a short tail
		}
		if crc32.ChecksumIEEE(rec[:8]) != binary.LittleEndian.Uint32(rec[8:]) {
			return good, records, false, nil
		}
		if fn != nil {
			if err := fn(Event{
				User: binary.LittleEndian.Uint32(rec[0:]),
				Item: binary.LittleEndian.Uint32(rec[4:]),
			}); err != nil {
				return good, records, false, err
			}
		}
		good += recordSize
		records++
	}
}

// Replay reads every record of the feed at dir in append order, calling
// fn for each; a non-nil error from fn aborts the replay. The torn tail
// of the last segment (a writer crash, or a writer racing the read) is
// skipped; a sealed segment that does not end cleanly is an error.
// Returns the number of records delivered.
func Replay(dir string, fn func(Event) error) (int64, error) {
	segs, err := segments(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for si, s := range segs {
		good, n, clean, err := walkSegment(filepath.Join(dir, s.name), fn)
		total += n
		if err != nil {
			return total, err
		}
		if !clean && si < len(segs)-1 {
			return total, fmt.Errorf("feed: sealed segment %s is torn or corrupt at offset %d", s.name, good)
		}
	}
	return total, nil
}

// Events replays the feed at dir into a slice.
func Events(dir string) ([]Event, error) {
	var out []Event
	_, err := Replay(dir, func(e Event) error {
		out = append(out, e)
		return nil
	})
	return out, err
}

// Count estimates the record count of the feed at dir from segment sizes
// alone — the cheap poll the trainer's retrain trigger runs. It never
// reads record bytes, so a checksum-failing record in a torn tail is
// still counted; the replay that follows a triggered retrain is the
// precise reader. A missing directory counts as empty.
func Count(dir string) (int64, error) {
	segs, err := segments(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	var total int64
	for _, s := range segs {
		if s.size > magicSize {
			total += (s.size - magicSize) / recordSize
		}
	}
	return total, nil
}
