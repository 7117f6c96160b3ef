// Package audit implements the consolidated audit facility that motivates
// requirement R4: "access requests to resources at different Hosts are
// evaluated centrally by AM and a User may easily audit these requests and
// correlate them without the need to pull logging information from all
// Hosts" (Section V.C).
//
// The AM records every policy-administration action and every access
// evaluation here; users query one place regardless of how many Hosts they
// use.
//
// The log is an append-only run of compact binary records (codec.go) in
// segments that share the store WAL's segment code (internal/seglog). A
// file-backed log (Open with a path) keeps its segments on disk beside the
// state file and reads them back with pread; the zero Log keeps the same
// encoded segments in memory as pointer-free byte slices. Either way
// nothing the garbage collector scans grows with the number of events, and
// retention deletes the oldest sealed segments beyond a byte budget.
package audit

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"umac/internal/core"
	"umac/internal/seglog"
)

// EventType classifies audit entries.
type EventType string

// Event types recorded by the AM.
const (
	EventPairingCreated  EventType = "pairing-created"
	EventPairingRevoked  EventType = "pairing-revoked"
	EventPolicyCreated   EventType = "policy-created"
	EventPolicyUpdated   EventType = "policy-updated"
	EventPolicyDeleted   EventType = "policy-deleted"
	EventResourceLinked  EventType = "resource-linked"
	EventTokenIssued     EventType = "token-issued"
	EventTokenRefused    EventType = "token-refused"
	EventDecision        EventType = "decision"
	EventConsentRequest  EventType = "consent-requested"
	EventConsentResolved EventType = "consent-resolved"
	EventOwnerMigrated   EventType = "owner-migrated"
)

// Event is one audit record. Owner is the resource owner whose security
// state the event concerns — the key by which users query their
// consolidated view.
type Event struct {
	Seq       int64            `json:"seq"`
	Time      time.Time        `json:"time"`
	Type      EventType        `json:"type"`
	Owner     core.UserID      `json:"owner"`
	Host      core.HostID      `json:"host,omitempty"`
	Realm     core.RealmID     `json:"realm,omitempty"`
	Resource  core.ResourceID  `json:"resource,omitempty"`
	Requester core.RequesterID `json:"requester,omitempty"`
	Subject   core.UserID      `json:"subject,omitempty"`
	Action    core.Action      `json:"action,omitempty"`
	Decision  string           `json:"decision,omitempty"`
	Detail    string           `json:"detail,omitempty"`
}

// DefaultRetain is the retention byte budget when none is given: the
// oldest sealed segments beyond it are deleted.
const DefaultRetain int64 = 1 << 30

// writeBuffer is how many encoded bytes a file-backed log accumulates
// before it issues a write(2) on its own.
const writeBuffer = 64 << 10

// Log is an append-only audit log. The zero value is an in-memory log with
// the default retention, ready to use.
//
// A file-backed log buffers encoded events and writes them with one
// write(2) when the buffer passes 64 KiB, on Flush barriers and ticks of
// the Pipeline that feeds it, and on Close; queries read the buffer too,
// so they never wait for a write. A process kill loses at most the events
// appended within the last FlushInterval. Segments are fsynced when sealed
// and at Close, so a machine crash can lose the unsealed tail.
type Log struct {
	mu      sync.RWMutex
	seq     int64
	retain  int64 // 0 = DefaultRetain
	segSize int64 // 0 = seglog.DefaultSegmentSize
	sealed  []*segment
	active  *segment
	file    *seglog.Log // nil = memory-only
	base    string
	closed  bool
	failing bool // the last write failed; the bytes stay buffered for retry
	// failed is set once the segment file refuses appends for good (a
	// poisoned seglog). From then on nothing is written or buffered:
	// dropped counts the events whose write failed (still readable until
	// restart; whether they reached disk is recovery's to find) and every
	// event appended since (not kept at all).
	failed  error
	dropped int64
	scratch []byte // payload encoding buffer
}

// segment is one run of framed records: the bytes [0, disk) of the file at
// path, followed by mem. An in-memory log keeps every byte in mem; a
// file-backed one keeps only the active segment's unwritten tail there.
type segment struct {
	index int
	path  string
	disk  int64
	mem   []byte
	// first is the segment's first sequence number and n its record
	// count. Sequence numbers are dense, so a sealed segment found at Open
	// needs only its first record read: it ends where the next one begins.
	first, n int64
	// owners counts the active segment's records per owner (guarded by
	// Log.mu); sealing publishes it through sum, which is immutable from
	// then on and built lazily for segments found at Open.
	owners map[core.UserID]int
	sum    atomic.Pointer[map[core.UserID]int]
}

func (s *segment) size() int64 { return s.disk + int64(len(s.mem)) }

// add accounts one appended record.
func (s *segment) add(seq int64, owner core.UserID) {
	if s.n == 0 {
		s.first = seq
	}
	s.n++
	if s.owners == nil {
		s.owners = make(map[core.UserID]int)
	}
	s.owners[owner]++
}

// Open opens the audit log whose segments are "<base>.000001", … on disk,
// keeping at most retain bytes of sealed segments (DefaultRetain when
// retain <= 0). It decodes only the active segment; sealed ones are read
// on demand. A torn record at the tail of the active segment — a write cut
// short by a kill — is discarded. An empty base opens an in-memory log.
func Open(base string, retain int64) (*Log, error) {
	return open(base, retain, 0)
}

func open(base string, retain, segSize int64) (*Log, error) {
	l := &Log{retain: retain, segSize: segSize, base: base}
	if base == "" {
		return l, nil
	}
	act := &segment{}
	var good int64
	fl, err := seglog.Open(base, seglog.Options{SegmentSize: l.segmentSize(), ActiveOnly: true}, func(p []byte) bool {
		e, ok := decodeEvent(p)
		if !ok {
			return false
		}
		act.add(e.Seq, e.Owner)
		l.seq = e.Seq
		good += seglog.HeaderSize + int64(len(p))
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("audit: open %s: %w", base, err)
	}
	l.file = fl
	act.index = fl.ActiveIndex()
	act.path = seglog.SegmentPath(base, act.index)
	act.disk = good
	for _, s := range fl.Sealed() {
		seg := &segment{index: s.Index, path: s.Path, disk: s.Size}
		seg.first = firstSeq(seg)
		l.sealed = append(l.sealed, seg)
	}
	// Dense sequence numbers: each sealed segment ends just before the
	// next non-empty one begins. While the active segment is empty, the
	// newest sealed segment is read whole to learn where the log ends.
	next := act.first
	for i := len(l.sealed) - 1; i >= 0; i-- {
		s := l.sealed[i]
		if s.first == 0 {
			continue
		}
		if next == 0 {
			m := make(map[core.UserID]int)
			if scanFile(s.path, s.disk, func(e Event) bool {
				m[e.Owner]++
				s.n++
				l.seq = e.Seq
				return true
			}) == nil {
				s.sum.Store(&m)
			}
		} else {
			s.n = max(0, next-s.first)
		}
		next = s.first
	}
	l.active = act
	return l, nil
}

// firstSeq reads the sequence number of a segment file's first record (0
// when it has none).
func firstSeq(s *segment) int64 {
	var first int64
	scanFile(s.path, s.disk, func(e Event) bool {
		first = e.Seq
		return false
	})
	return first
}

// summary returns a sealed segment's per-owner record counts, reading the
// segment once if they are not known yet; nil if it cannot be read.
func (s *segment) summary() map[core.UserID]int {
	if p := s.sum.Load(); p != nil {
		return *p
	}
	m := make(map[core.UserID]int)
	if err := scanFile(s.path, s.disk, func(e Event) bool {
		m[e.Owner]++
		return true
	}); err != nil {
		return nil
	}
	s.sum.Store(&m)
	return m
}

func (l *Log) segmentSize() int64 {
	if l.segSize > 0 {
		return l.segSize
	}
	return seglog.DefaultSegmentSize
}

func (l *Log) retainBytes() int64 {
	if l.retain > 0 {
		return l.retain
	}
	return DefaultRetain
}

// Append records an event, stamping sequence and (if unset) time. On a
// file-backed log the event is written before Append returns.
func (l *Log) Append(e Event) Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.appendLocked(&e, time.Now())
	l.writeLocked()
	return e
}

// AppendBatch records a batch of events under a single lock acquisition,
// stamping sequence numbers and (if unset) times. The audit Pipeline uses
// it to amortize lock traffic when draining its queue. On a file-backed
// log the events join the write buffer (see Log).
func (l *Log) AppendBatch(events []Event) {
	if len(events) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := time.Now()
	for i := range events {
		l.appendLocked(&events[i], now)
	}
}

func (l *Log) appendLocked(e *Event, now time.Time) {
	if l.failed != nil {
		l.dropped++
		return
	}
	l.seq++
	e.Seq = l.seq
	if e.Time.IsZero() {
		e.Time = now
	}
	if l.active == nil {
		l.active = &segment{index: 1}
	}
	a := l.active
	l.scratch = appendEvent(l.scratch[:0], e)
	a.mem = seglog.AppendFrame(a.mem, l.scratch)
	a.add(e.Seq, e.Owner)
	switch {
	case l.file != nil && int64(len(a.mem)) >= min(writeBuffer, l.segmentSize()):
		l.writeLocked()
	case l.file == nil && a.size() >= l.segmentSize():
		l.sealLocked()
	}
}

// flush writes a file-backed log's buffered events (one write(2)).
func (l *Log) flush() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.writeLocked()
}

// writeLocked hands the active segment's buffered bytes to the segment
// file in one write and seals the segment if that write rolled the file.
// A failed write keeps the bytes buffered (and readable) for the next
// flush to retry, unless it left the segment file poisoned: then the log
// has failed for good (see Log.failed).
func (l *Log) writeLocked() {
	a := l.active
	if l.file == nil || l.closed || l.failed != nil || a == nil || len(a.mem) == 0 {
		return
	}
	if err := l.file.AppendBatch(a.mem); err != nil {
		if l.file.IsClosed() {
			l.failed = err
			seglog.Scan(bytes.NewReader(a.mem), int64(len(a.mem)), func([]byte) bool {
				l.dropped++
				return true
			})
			log.Printf("audit: %v (the audit log cannot be written again until restart: "+
				"%d events may be lost and every later one is dropped, counted in healthz audit.dropped)", err, l.dropped)
			return
		}
		if !l.failing {
			log.Printf("audit: %v (events stay buffered; retrying each flush)", err)
		}
		l.failing = true
		return
	}
	l.failing = false
	a.disk += int64(len(a.mem))
	a.mem = a.mem[:0]
	if idx := l.file.ActiveIndex(); idx != a.index {
		l.sealLocked()
	}
}

// sealLocked retires the active segment into the sealed list, starts the
// next one and applies retention.
func (l *Log) sealLocked() {
	a := l.active
	next := &segment{index: a.index + 1}
	if l.file != nil {
		// Everything is on disk; the write buffer moves on with the writer.
		next.path = seglog.SegmentPath(l.base, next.index)
		next.mem, a.mem = a.mem[:0], nil
	} else {
		a.mem = bytes.Clone(a.mem) // drop append's spare capacity
	}
	owners := a.owners
	a.sum.Store(&owners)
	l.sealed = append(l.sealed, a)
	l.active = next

	total := l.bytesLocked()
	for total > l.retainBytes() && len(l.sealed) > 0 {
		if l.file != nil {
			if err := l.file.DropSealed(1); err != nil {
				log.Printf("audit: retention: %v", err)
				return
			}
		}
		total -= l.sealed[0].size()
		l.sealed[0] = nil
		l.sealed = l.sealed[1:]
	}
}

func (l *Log) bytesLocked() int64 {
	var n int64
	for _, s := range l.sealed {
		n += s.size()
	}
	if l.active != nil {
		n += l.active.size()
	}
	return n
}

// Close writes any buffered events and, for a file-backed log, syncs and
// closes the active segment. Appends after Close stay in memory only.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.writeLocked()
	l.closed = true
	if l.file == nil {
		return nil
	}
	if err := l.file.Close(); err != nil {
		return fmt.Errorf("audit: close: %w", err)
	}
	return nil
}

// Filter selects events. Zero-valued fields match everything.
type Filter struct {
	Owner     core.UserID
	Host      core.HostID
	Realm     core.RealmID
	Requester core.RequesterID
	Type      EventType
	Since     time.Time
	Until     time.Time
}

func (f Filter) matches(e Event) bool {
	if f.Owner != "" && e.Owner != f.Owner {
		return false
	}
	if f.Host != "" && e.Host != f.Host {
		return false
	}
	if f.Realm != "" && e.Realm != f.Realm {
		return false
	}
	if f.Requester != "" && e.Requester != f.Requester {
		return false
	}
	if f.Type != "" && e.Type != f.Type {
		return false
	}
	if !f.Since.IsZero() && e.Time.Before(f.Since) {
		return false
	}
	if !f.Until.IsZero() && e.Time.After(f.Until) {
		return false
	}
	return true
}

// ownerOnly reports whether f constrains nothing but (possibly) the owner,
// so a segment's match count is known without decoding it.
func (f Filter) ownerOnly() bool {
	return f.Host == "" && f.Realm == "" && f.Requester == "" && f.Type == "" &&
		f.Since.IsZero() && f.Until.IsZero()
}

// view is a reader's snapshot of one segment: the bytes to read and the
// record count for the queried owner (-1 until known).
type view struct {
	seg   *segment
	disk  int64
	mem   []byte
	n     int64
	owned int
}

// views snapshots the retained segments, oldest first. Readers work from
// the snapshot without the lock; a sealed file deleted by retention before
// a reader opens it reads as empty.
func (l *Log) views(owner core.UserID) []view {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]view, 0, len(l.sealed)+1)
	for _, s := range l.sealed {
		out = append(out, view{seg: s, disk: s.disk, mem: s.mem, n: s.n, owned: -1})
	}
	if a := l.active; a != nil && a.n > 0 {
		v := view{seg: a, disk: a.disk, mem: a.mem, n: a.n, owned: a.owners[owner]}
		if l.file != nil {
			v.mem = bytes.Clone(a.mem) // the writer reuses this buffer
		}
		out = append(out, v)
	}
	return out
}

// ownerCount is the segment's record count for owner, -1 if unknown.
func (v *view) ownerCount(owner core.UserID) int {
	if v.owned < 0 {
		if m := v.seg.summary(); m != nil {
			v.owned = m[owner]
		}
	}
	return v.owned
}

// matchCount is the number of records in the segment f matches, or -1
// when only decoding them can tell.
func (v *view) matchCount(f Filter) int {
	switch {
	case f.Owner == "" && f.ownerOnly():
		return int(v.n)
	case f.Owner == "":
		return -1
	case f.ownerOnly():
		return v.ownerCount(f.Owner)
	case v.ownerCount(f.Owner) == 0:
		return 0
	}
	return -1
}

// scan decodes the segment's records in order until fn returns false.
func (v *view) scan(fn func(Event) bool) {
	more := true
	visit := func(e Event) bool {
		more = fn(e)
		return more
	}
	if v.disk > 0 {
		if scanFile(v.seg.path, v.disk, visit) != nil || !more {
			return
		}
	}
	scanBytes(v.mem, visit)
}

// scanFile decodes the first size bytes of the segment file at path.
func scanFile(path string, size int64, fn func(Event) bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = seglog.Scan(io.NewSectionReader(f, 0, size), size, decodeInto(fn))
	return err
}

func scanBytes(b []byte, fn func(Event) bool) {
	seglog.Scan(bytes.NewReader(b), int64(len(b)), decodeInto(fn))
}

func decodeInto(fn func(Event) bool) func([]byte) bool {
	return func(p []byte) bool {
		e, ok := decodeEvent(p)
		return ok && fn(e)
	}
}

// Query returns matching events in sequence order.
func (l *Log) Query(f Filter) []Event {
	events, _ := l.QueryPage(f, 0, math.MaxInt)
	return events
}

// QueryPage returns the [offset, offset+limit) window of the matching
// events in sequence order, plus the total match count. It decodes only
// what it must: segments without the filter's owner are skipped, and for
// an owner-only filter whole segments before the window are skipped by
// their counts.
func (l *Log) QueryPage(f Filter, offset, limit int) ([]Event, int) {
	if offset < 0 {
		offset = 0
	}
	if limit < 0 {
		limit = 0
	}
	out := make([]Event, 0, min(limit, 64))
	total := 0
	for _, v := range l.views(f.Owner) {
		known := v.matchCount(f)
		if known == 0 {
			continue
		}
		if known > 0 && (total+known <= offset || len(out) >= limit) {
			total += known
			continue
		}
		seen := 0
		v.scan(func(e Event) bool {
			if !f.matches(e) {
				return true
			}
			if total+seen >= offset && len(out) < limit {
				out = append(out, e)
			}
			seen++
			return known < 0 || len(out) < limit
		})
		if known > 0 {
			seen = known
		}
		total += seen
	}
	return out, total
}

// Len returns the number of retained events.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return int(l.countLocked())
}

func (l *Log) countLocked() int64 {
	var n int64
	for _, s := range l.sealed {
		n += s.n
	}
	if l.active != nil {
		n += l.active.n
	}
	return n
}

// Health reports the log's size: retained events and bytes, segment count
// and the oldest retained sequence number (it moves when retention drops a
// segment), and, once its segment file has failed for good, the error and
// the events dropped since. The pipeline fields are the caller's to fill.
func (l *Log) Health() core.AuditHealth {
	l.mu.RLock()
	defer l.mu.RUnlock()
	h := core.AuditHealth{Events: int(l.countLocked()), Bytes: l.bytesLocked(), Segments: len(l.sealed), Dropped: l.dropped}
	if l.failed != nil {
		h.Failed = l.failed.Error()
	}
	if l.active != nil {
		h.Segments++
	}
	for _, s := range l.sealed {
		if s.n > 0 {
			h.OldestSeq = s.first
			return h
		}
	}
	if l.active != nil {
		h.OldestSeq = l.active.first
	}
	return h
}

// Summary aggregates an owner's security activity — the "consolidated view
// of the applied security controls" of requirement R4.
type Summary struct {
	Owner core.UserID `json:"owner"`
	// Hosts the owner's events span, sorted.
	Hosts []core.HostID `json:"hosts"`
	// DecisionsByHost counts access decisions per host.
	DecisionsByHost map[core.HostID]int `json:"decisions_by_host"`
	// PermitCount and DenyCount across all hosts.
	PermitCount int `json:"permit_count"`
	DenyCount   int `json:"deny_count"`
	// RequesterCount counts distinct requesters that touched the owner's
	// resources.
	RequesterCount int `json:"requester_count"`
	// Events is the total event count for the owner.
	Events int `json:"events"`
}

// Summarize computes the consolidated view for one owner in a single pass
// over the central log — the operation that, without an AM, requires
// visiting every Host (Section III, problem 4). Segments holding none of
// the owner's events are skipped.
func (l *Log) Summarize(owner core.UserID) Summary {
	s := Summary{Owner: owner, DecisionsByHost: make(map[core.HostID]int)}
	hosts := map[core.HostID]bool{}
	requesters := map[core.RequesterID]bool{}
	for _, v := range l.views(owner) {
		if v.ownerCount(owner) == 0 {
			continue
		}
		v.scan(func(e Event) bool {
			if e.Owner != owner {
				return true
			}
			s.Events++
			if e.Host != "" {
				hosts[e.Host] = true
			}
			if e.Requester != "" {
				requesters[e.Requester] = true
			}
			if e.Type == EventDecision {
				s.DecisionsByHost[e.Host]++
				switch e.Decision {
				case core.DecisionPermit.String():
					s.PermitCount++
				case core.DecisionDeny.String():
					s.DenyCount++
				}
			}
			return true
		})
	}
	s.RequesterCount = len(requesters)
	s.Hosts = make([]core.HostID, 0, len(hosts))
	for h := range hosts {
		s.Hosts = append(s.Hosts, h)
	}
	sort.Slice(s.Hosts, func(i, j int) bool { return s.Hosts[i] < s.Hosts[j] })
	return s
}
