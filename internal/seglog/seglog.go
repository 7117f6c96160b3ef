// Package seglog is the segmented, checksummed, append-only log underneath
// both the store's write-ahead log and the audit log. A log rooted at base
// is a sequence of segment files — "<base>.000001", "<base>.000002", … —
// each a flat run of framed records:
//
//	uint32 LE payload length | uint32 LE CRC-32 (IEEE) of payload | payload
//
// The payload belongs to the caller (JSON for the store, a compact binary
// event for the audit log). Appends go to the highest-numbered (active)
// segment; once it crosses the size limit it is sealed (synced, closed,
// never written again) and a fresh segment is opened. Because sealed
// segments are immutable, reclaiming space deletes them outright instead of
// rewriting one growing file.
//
// Replay walks segments in index order and records in offset order. Batch
// appends are a single write(2) call, so the only failure mode a hard kill
// can produce is a torn record at the tail of the LAST segment — which the
// checksum (or a short read) detects and replay discards. A bad record
// anywhere in a sealed segment is real corruption (records after it were
// acknowledged) and fails the open instead of silently dropping them.
package seglog

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
)

// HeaderSize is the length of a record frame's header.
const HeaderSize = 8

// DefaultSegmentSize is the roll threshold when Options.SegmentSize is
// unset. Small enough that deleting sealed segments reclaims space
// promptly, large enough that a segment holds tens of thousands of typical
// records.
const DefaultSegmentSize int64 = 4 << 20

// ErrClosed is returned by appends to a log that has been closed or
// poisoned by an unrecoverable write failure.
var ErrClosed = errors.New("seglog: closed")

// AppendFrame appends payload to dst as one framed record.
func AppendFrame(dst, payload []byte) []byte {
	var h [HeaderSize]byte
	binary.LittleEndian.PutUint32(h[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[4:8], crc32.ChecksumIEEE(payload))
	return append(append(dst, h[:]...), payload...)
}

// Scan reads framed records from r, which holds size bytes, and calls fn
// with each intact payload in order; the payload is only valid during the
// call. It returns the offset just past the last record fn accepted. A
// short read, a length running past size, a checksum mismatch or fn
// returning false (an undecodable payload) ends the scan without error: the
// caller decides whether a short scan is a legal torn tail or corruption.
// Only an I/O error fails it.
func Scan(r io.Reader, size int64, fn func(payload []byte) bool) (int64, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var (
		header  [HeaderSize]byte
		payload []byte
		good    int64
	)
	for {
		if _, err := io.ReadFull(br, header[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return good, nil
			}
			return 0, fmt.Errorf("seglog: read: %w", err)
		}
		length := int64(binary.LittleEndian.Uint32(header[0:4]))
		sum := binary.LittleEndian.Uint32(header[4:8])
		if length > size-good-HeaderSize {
			// Runs past the end: a torn write, and reading it would only
			// allocate for bytes that are not there.
			return good, nil
		}
		if int64(cap(payload)) < length {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(br, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return good, nil
			}
			return 0, fmt.Errorf("seglog: read: %w", err)
		}
		if crc32.ChecksumIEEE(payload) != sum || !fn(payload) {
			return good, nil
		}
		good += HeaderSize + length
	}
}

// SyncDir makes the entries of directory dir durable. Syncing a file does
// not persist its name (fsync(2)): creating, renaming or removing a segment
// survives a power loss only once its directory is synced too. It is a
// variable so tests can make it fail.
var SyncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("seglog: sync dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("seglog: sync dir: %w", err)
	}
	return nil
}

// Segment describes one segment file.
type Segment struct {
	Index int
	Path  string
	Size  int64
}

// SegmentPath names segment index under base: "<base>.000042".
func SegmentPath(base string, index int) string {
	return fmt.Sprintf("%s.%06d", base, index)
}

// List finds the on-disk segments of the log rooted at base, ascending by
// index. Files whose suffix is not exactly six digits are not segments and
// are ignored.
func List(base string) ([]Segment, error) {
	matches, err := filepath.Glob(base + ".*")
	if err != nil {
		return nil, fmt.Errorf("seglog: scan %s: %w", base, err)
	}
	var segs []Segment
	for _, m := range matches {
		idx, ok := parseIndex(m[len(base)+1:])
		if !ok {
			continue
		}
		info, err := os.Stat(m)
		if err != nil || info.IsDir() {
			continue
		}
		segs = append(segs, Segment{Index: idx, Path: m, Size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Index < segs[j].Index })
	return segs, nil
}

// parseIndex accepts exactly six ASCII digits.
func parseIndex(s string) (int, bool) {
	if len(s) != 6 {
		return 0, false
	}
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// Options configures Open.
type Options struct {
	// SegmentSize is the byte threshold at which the active segment is
	// sealed (DefaultSegmentSize when <= 0). A batch never spans segments,
	// so a segment may overshoot it by up to one batch.
	SegmentSize int64
	// Fsync syncs the active segment after every append. Without it an
	// append is one write(2), which survives a process kill (the bytes live
	// in the page cache); sealing and Close sync either way.
	Fsync bool
	// ActiveOnly replays only the active segment at Open. Sealed segments
	// are listed but not read; a caller that reads them later does so with
	// Scan and decides itself what a damaged one means.
	ActiveOnly bool
}

// Log is an open segmented log. Its mutex keeps append I/O coherent with
// the structural operations (reset, drop, close) and the size readers.
type Log struct {
	mu       sync.Mutex
	base     string
	fsync    bool
	segLimit int64

	sealed      []Segment // immutable older segments, ascending index
	active      *os.File
	activeIndex int
	activeSize  int64
	closed      bool // Close was called
	poisoned    bool // an unrecoverable write failure; appends fail
}

// Open opens the segmented log rooted at base (creating segment 1 if the
// log is new), calls replay with every intact record in order, and
// truncates a torn or corrupt tail — legal only in the last segment — so
// the active segment ends on a record boundary ready for appends. replay
// returning false marks its payload undecodable, which ends that
// segment's scan like a bad checksum. A pre-segmentation flat log at base
// itself is adopted as the oldest segment.
func Open(base string, o Options, replay func(payload []byte) bool) (*Log, error) {
	if o.SegmentSize <= 0 {
		o.SegmentSize = DefaultSegmentSize
	}
	segs, err := List(base)
	if err != nil {
		return nil, err
	}
	if info, err := os.Stat(base); err == nil && !info.IsDir() {
		idx := 1
		if len(segs) > 0 {
			idx = segs[0].Index - 1
			if idx < 0 {
				return nil, fmt.Errorf("seglog: flat log %s conflicts with segment %s", base, segs[0].Path)
			}
		}
		legacy := Segment{Index: idx, Path: SegmentPath(base, idx), Size: info.Size()}
		if err := os.Rename(base, legacy.Path); err != nil {
			return nil, fmt.Errorf("seglog: adopt flat log: %w", err)
		}
		if err := SyncDir(filepath.Dir(base)); err != nil {
			return nil, err
		}
		segs = append([]Segment{legacy}, segs...)
	}

	l := &Log{base: base, fsync: o.Fsync, segLimit: o.SegmentSize}
	if len(segs) == 0 {
		f, err := os.OpenFile(SegmentPath(base, 1), os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return nil, fmt.Errorf("seglog: open: %w", err)
		}
		if err := SyncDir(filepath.Dir(base)); err != nil {
			f.Close()
			return nil, err
		}
		l.active, l.activeIndex = f, 1
		return l, nil
	}
	for i, seg := range segs {
		last := i == len(segs)-1
		if !last && o.ActiveOnly {
			l.sealed = append(l.sealed, seg)
			continue
		}
		f, err := os.OpenFile(seg.Path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("seglog: open segment: %w", err)
		}
		good, err := Scan(io.NewSectionReader(f, 0, seg.Size), seg.Size, replay)
		if err != nil {
			f.Close()
			return nil, err
		}
		if !last {
			// Sealed segments were synced whole before the next one took
			// appends: anything short of fully intact is real corruption.
			f.Close()
			if good != seg.Size {
				return nil, fmt.Errorf("seglog: segment %s corrupt at offset %d of %d", seg.Path, good, seg.Size)
			}
			l.sealed = append(l.sealed, seg)
			continue
		}
		// Last segment: discard the torn tail (a write in flight when the
		// process died) and keep the file active for appends.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("seglog: truncate tail: %w", err)
		}
		if _, err := f.Seek(good, io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("seglog: seek: %w", err)
		}
		l.active, l.activeIndex, l.activeSize = f, seg.Index, good
	}
	return l, nil
}

// AppendBatch writes buf — whole framed records — with a single write(2)
// and, when Fsync is on, a single Sync. On success the active segment is
// sealed and rolled if it crossed the size limit. A failed write is
// rewound to the last record boundary; a failed Sync poisons the log, so
// every later append fails with ErrClosed.
func (l *Log) AppendBatch(buf []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.poisoned {
		return ErrClosed
	}
	if _, err := l.active.Write(buf); err != nil {
		// A partial write (ENOSPC) would leave torn bytes that make every
		// LATER record unreachable at replay. Rewind to the last record
		// boundary; if even that fails, poison the log so writes fail
		// loudly instead of silently losing durability.
		if l.active.Truncate(l.activeSize) != nil {
			l.poisoned = true
		} else if _, serr := l.active.Seek(l.activeSize, io.SeekStart); serr != nil {
			l.poisoned = true
		}
		return fmt.Errorf("seglog: append: %w", err)
	}
	if l.fsync {
		if err := l.active.Sync(); err != nil {
			// Fail-stop: after a failed fsync the kernel may already have
			// dropped the dirty pages, so a later fsync can succeed without
			// the data, and the batch's bytes sit past activeSize where a
			// rewind cannot be trusted either. Poison the log; recovery
			// decides what survived.
			l.poisoned = true
			return fmt.Errorf("seglog: sync: %w", err)
		}
	}
	l.activeSize += int64(len(buf))
	if l.activeSize >= l.segLimit {
		if err := l.rollLocked(); err != nil {
			// The batch is written but the log cannot take further appends
			// coherently; poison it rather than risk appending to a
			// half-sealed segment.
			l.poisoned = true
			return err
		}
	}
	return nil
}

// rollLocked seals the active segment and opens the next one. Seal always
// syncs — even without the Fsync option — so replay can trust every
// non-final segment to be intact.
func (l *Log) rollLocked() error {
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("seglog: seal sync: %w", err)
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("seglog: seal close: %w", err)
	}
	l.sealed = append(l.sealed, Segment{
		Index: l.activeIndex,
		Path:  SegmentPath(l.base, l.activeIndex),
		Size:  l.activeSize,
	})
	f, err := os.OpenFile(SegmentPath(l.base, l.activeIndex+1), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("seglog: roll: %w", err)
	}
	l.active = f
	l.activeIndex++
	l.activeSize = 0
	// The records acknowledged into the new segment are only as durable as
	// its name.
	return SyncDir(filepath.Dir(l.base))
}

// Poison marks the log unusable so subsequent appends fail loudly.
func (l *Log) Poison() {
	l.mu.Lock()
	l.poisoned = true
	l.mu.Unlock()
}

// IsClosed reports whether the log has been closed or poisoned.
func (l *Log) IsClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed || l.poisoned
}

// TotalSize is the log's byte size across all segments.
func (l *Log) TotalSize() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := l.activeSize
	for _, seg := range l.sealed {
		n += seg.Size
	}
	return n
}

// SegmentCount is the number of segment files (sealed + active).
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sealed) + 1
}

// Sealed returns the sealed segments, oldest first.
func (l *Log) Sealed() []Segment {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Segment(nil), l.sealed...)
}

// ActiveIndex is the index of the segment appends currently land in; it
// moves on by one each time AppendBatch seals a segment.
func (l *Log) ActiveIndex() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.activeIndex
}

// DropSealed deletes the n oldest sealed segments (all of them when n
// exceeds their count). Sealed segments are immutable, so a caller that no
// longer needs their records removes them outright. A removal whose
// directory cannot be synced poisons the log.
func (l *Log) DropSealed(n int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropSealedLocked(n)
}

func (l *Log) dropSealedLocked(n int) error {
	n = min(n, len(l.sealed))
	if n == 0 {
		return nil
	}
	for i := 0; i < n; i++ {
		if err := os.Remove(l.sealed[0].Path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("seglog: drop segment: %w", err)
		}
		l.sealed = l.sealed[1:]
	}
	if err := SyncDir(filepath.Dir(l.base)); err != nil {
		l.poisoned = true
		return err
	}
	return nil
}

// Reset empties the log after its contents have been captured elsewhere
// (the store's snapshot): sealed segments are deleted outright and the
// active segment is truncated in place. Only called at moments when no
// append is in flight.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.poisoned {
		return ErrClosed
	}
	if err := l.dropSealedLocked(len(l.sealed)); err != nil {
		return err
	}
	l.sealed = nil
	if err := l.active.Truncate(0); err != nil {
		return fmt.Errorf("seglog: reset: %w", err)
	}
	if _, err := l.active.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("seglog: reset seek: %w", err)
	}
	if err := l.active.Sync(); err != nil {
		return fmt.Errorf("seglog: reset sync: %w", err)
	}
	l.activeSize = 0
	return nil
}

// Close syncs and closes the active segment. Idempotent. A poisoned
// log's segment is closed without a sync: what it holds is already
// recovery's to judge.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.poisoned {
		// A failed roll may have closed it already.
		if err := l.active.Close(); err != nil && !errors.Is(err, os.ErrClosed) {
			return fmt.Errorf("seglog: close: %w", err)
		}
		return nil
	}
	if err := l.active.Sync(); err != nil {
		l.active.Close()
		return fmt.Errorf("seglog: close sync: %w", err)
	}
	return l.active.Close()
}
