package store

import (
	"errors"
	"fmt"

	"umac/internal/core"
)

// This file is the replication side of the write-ahead log: the primary
// keeps an in-memory tail of recent WAL records (stamped with contiguous
// sequence numbers) that followers read in order, plus a broadcast channel
// that turns the HTTP long-poll into a push. A follower installs a
// consistent snapshot once (ReplicationSnapshot → LoadReplicationSnapshot)
// and then applies the tail record by record (TailSince → ApplyReplicated);
// because ApplyReplicated preserves sequence numbers in the follower's own
// WAL, a restarted follower resumes exactly at its applied offset — no
// duplicate and no lost record.

// Replication errors.
var (
	// ErrReplicationDisabled is returned by TailSince on a store that never
	// called EnableReplication.
	ErrReplicationDisabled = errors.New("store: replication not enabled")
	// ErrReplicationTruncated is returned by TailSince when the requested
	// offset predates the retained tail window; the caller must
	// re-bootstrap from a snapshot.
	ErrReplicationTruncated = errors.New("store: replication window truncated")
	// ErrReplicationGap is returned by ApplyReplicated for a record that
	// does not directly follow the store's applied offset.
	ErrReplicationGap = errors.New("store: replication sequence gap")
)

// DefaultReplicationWindow is how many recent WAL records EnableReplication
// retains by default. A follower further behind than this re-bootstraps
// from a snapshot instead of tailing.
const DefaultReplicationWindow = 65536

// replState is the retained WAL tail: a fixed-capacity ring of the most
// recent records, oldest first. Guarded by the store's walMu.
type replState struct {
	buf   []core.ReplRecord
	start int // index of the oldest record
	n     int // records currently retained
}

func newReplState(window int) *replState {
	if window <= 0 {
		window = DefaultReplicationWindow
	}
	return &replState{buf: make([]core.ReplRecord, window)}
}

// push appends rec, evicting the oldest record when the ring is full.
func (r *replState) push(rec core.ReplRecord) {
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = rec
		r.n++
		return
	}
	r.buf[r.start] = rec
	r.start = (r.start + 1) % len(r.buf)
}

// since returns up to max records with Seq > fromSeq, oldest first. It
// reports ErrReplicationTruncated when records after fromSeq have been
// evicted from the ring.
func (r *replState) since(fromSeq int64, max int) ([]core.ReplRecord, error) {
	if r.n == 0 {
		return nil, ErrReplicationTruncated
	}
	oldest := r.buf[r.start].Seq
	newest := r.buf[(r.start+r.n-1)%len(r.buf)].Seq
	if fromSeq >= newest {
		return nil, nil
	}
	if fromSeq+1 < oldest {
		return nil, ErrReplicationTruncated
	}
	first := int(fromSeq + 1 - oldest)
	count := r.n - first
	if count > max {
		count = max
	}
	out := make([]core.ReplRecord, 0, count)
	for i := 0; i < count; i++ {
		out = append(out, r.buf[(r.start+first+i)%len(r.buf)])
	}
	return out, nil
}

// EnableReplication starts retaining the WAL tail for followers, keeping up
// to window records (DefaultReplicationWindow when window <= 0). It is a
// no-op on a store that already replicates. The tail starts with the
// records Open replayed from the WAL, so after a restart a reader whose
// offset lies after the last compaction — a follower, or an owner
// migration draining from a checkpointed offset — resumes where it was.
// Writes made since Open but before the call are not retained; followers
// bootstrapping from a snapshot taken afterwards never need them.
func (s *Store) EnableReplication(window int) {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.repl == nil {
		s.repl = newReplState(window)
		// The ring must stay contiguous: seed it only when nothing was
		// written after the replay.
		if n := len(s.replayed); n > 0 && s.replayed[n-1].Seq == s.lastSeq {
			for _, rec := range s.replayed {
				s.repl.push(rec)
			}
		}
		s.replayed = nil
	}
}

// ReplicationEnabled reports whether the store retains a WAL tail.
func (s *Store) ReplicationEnabled() bool {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	return s.repl != nil
}

// LastSeq returns the store's applied WAL offset: the sequence number of
// the newest mutation logged (primary) or applied (follower). Zero on a
// store that has never written.
func (s *Store) LastSeq() int64 {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	return s.lastSeq
}

// TailSince returns up to max WAL records with sequence numbers greater
// than fromSeq, oldest first, plus the store's newest sequence number. It
// returns ErrReplicationTruncated when the window no longer covers fromSeq
// (the follower must re-bootstrap from ReplicationSnapshot) and
// ErrReplicationDisabled on a store without EnableReplication.
func (s *Store) TailSince(fromSeq int64, max int) ([]core.ReplRecord, int64, error) {
	if max <= 0 {
		max = DefaultReplicationWindow
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.repl == nil {
		return nil, s.lastSeq, ErrReplicationDisabled
	}
	if fromSeq >= s.lastSeq {
		return nil, s.lastSeq, nil
	}
	recs, err := s.repl.since(fromSeq, max)
	return recs, s.lastSeq, err
}

// TailSinceFilter is TailSince restricted to the records keep accepts (nil
// keeps everything). The scanned return value is the sequence number the
// scan advanced through — the offset the caller resumes from — which can
// run ahead of the last returned record when trailing records were
// filtered out (or when the caller is caught up: scanned is then the
// store's newest sequence number). keep runs under the WAL mutex and must
// not call back into the store.
func (s *Store) TailSinceFilter(fromSeq int64, max int, keep func(core.ReplRecord) bool) (recs []core.ReplRecord, scanned int64, err error) {
	if max <= 0 {
		max = DefaultReplicationWindow
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.repl == nil {
		return nil, s.lastSeq, ErrReplicationDisabled
	}
	if fromSeq >= s.lastSeq {
		return nil, s.lastSeq, nil
	}
	raw, err := s.repl.since(fromSeq, max)
	if err != nil {
		return nil, s.lastSeq, err
	}
	scanned = fromSeq
	if n := len(raw); n > 0 {
		scanned = raw[n-1].Seq
	} else {
		scanned = s.lastSeq
	}
	if keep == nil {
		return raw, scanned, nil
	}
	for _, rec := range raw {
		if keep(rec) {
			recs = append(recs, rec)
		}
	}
	return recs, scanned, nil
}

// ReplWatch returns a channel that is closed on the next logged mutation.
// Callers re-arm by calling ReplWatch again; grab the channel before
// checking TailSince so a write between the two cannot be missed.
func (s *Store) ReplWatch() <-chan struct{} {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.watch == nil {
		s.watch = make(chan struct{})
	}
	return s.watch
}

// notifyLocked wakes every ReplWatch waiter. Called with walMu held after
// every logged mutation.
func (s *Store) notifyLocked() {
	if s.watch != nil {
		close(s.watch)
		s.watch = nil
	}
}

// ApplyReplicated installs one replicated record, preserving its sequence
// number in the follower's own WAL so a restart resumes at the exact
// applied offset. Records at or below the applied offset are skipped
// (idempotent re-delivery); a record further ahead than offset+1 returns
// ErrReplicationGap without applying anything. On a WAL-backed store the
// record rides the same group-commit batch as local writes.
func (s *Store) ApplyReplicated(rec core.ReplRecord) error {
	if rec.Kind == "" || rec.Key == "" {
		return ErrBadKey
	}
	if rec.Op != core.ReplOpPut && rec.Op != core.ReplOpDelete {
		return fmt.Errorf("store: apply replicated: unknown op %q", rec.Op)
	}
	sh := s.shardFor(rec.Kind, rec.Key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s.walMu.Lock()
	if rec.Seq <= s.nextSeq {
		s.walMu.Unlock()
		return nil
	}
	if rec.Seq != s.nextSeq+1 {
		applied := s.nextSeq
		s.walMu.Unlock()
		return fmt.Errorf("%w: applied %d, got %d", ErrReplicationGap, applied, rec.Seq)
	}
	if s.wal != nil {
		if s.walClosing || s.wal.IsClosed() {
			s.walMu.Unlock()
			return ErrClosed
		}
		wrec := walRecord{
			Seq: rec.Seq, Op: rec.Op, Kind: rec.Kind, Key: rec.Key,
			Version: rec.Version, Data: rec.Data,
		}
		buf, err := encodeRecord(wrec)
		if err != nil {
			s.walMu.Unlock()
			return err
		}
		s.nextSeq = rec.Seq
		b := s.enqueueLocked(buf, wrec)
		s.walMu.Unlock()
		s.kickCommitter()
		<-b.done
		if b.err != nil {
			return b.err
		}
	} else {
		s.nextSeq, s.lastSeq = rec.Seq, rec.Seq
		if s.repl != nil {
			s.repl.push(rec)
		}
		s.notifyLocked()
		s.walMu.Unlock()
	}
	switch rec.Op {
	case core.ReplOpPut:
		sh.kindLocked(rec.Kind)[rec.Key] = Entity{
			Kind: rec.Kind, Key: rec.Key, Version: rec.Version, Data: rec.Data,
		}
	case core.ReplOpDelete:
		delete(sh.kinds[rec.Kind], rec.Key)
	}
	return nil
}

// ReplicationSnapshot captures a consistent bootstrap image: the full store
// contents as put records plus the sequence number they are consistent at.
// Writers are paused for the duration (reads proceed), so tailing from the
// returned Seq loses nothing and duplicates nothing.
func (s *Store) ReplicationSnapshot() core.ReplSnapshot {
	return s.ReplicationSnapshotFilter(nil)
}

// ReplicationSnapshotFilter is ReplicationSnapshot restricted to the
// records keep accepts (nil keeps everything): the scoped bootstrap image
// live owner migration streams between shards. keep runs under every shard
// lock and must not call back into the store.
func (s *Store) ReplicationSnapshotFilter(keep func(core.ReplRecord) bool) core.ReplSnapshot {
	s.lockAll(false)
	defer s.unlockAll(false)
	s.walMu.Lock()
	seq := s.lastSeq
	s.walMu.Unlock()
	var recs []core.ReplRecord
	for i := range s.shards {
		for kind, m := range s.shards[i].kinds {
			for key, e := range m {
				rec := core.ReplRecord{
					Op: core.ReplOpPut, Kind: kind, Key: key,
					Version: e.Version, Data: e.Data,
				}
				if keep == nil || keep(rec) {
					recs = append(recs, rec)
				}
			}
		}
	}
	return core.ReplSnapshot{Seq: seq, Records: recs}
}

// LoadReplicationSnapshot replaces the store contents with a bootstrap
// image and moves the applied offset to the snapshot's sequence number. The
// follower's own WAL is emptied (its records predate the image); callers
// with a durable store should Snapshot to Path right after, so a crash
// between bootstrap and first local snapshot merely forces a re-bootstrap.
func (s *Store) LoadReplicationSnapshot(snap core.ReplSnapshot) error {
	staged := make([][]core.ReplRecord, shardCount)
	for _, rec := range snap.Records {
		if rec.Kind == "" || rec.Key == "" {
			return fmt.Errorf("store: snapshot record with empty kind or key")
		}
		i := s.shardIndex(rec.Kind, rec.Key)
		staged[i] = append(staged[i], rec)
	}
	s.lockAll(true)
	defer s.unlockAll(true)
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.wal != nil {
		if err := s.wal.Reset(); err != nil {
			return err
		}
	}
	for i := range s.shards {
		s.shards[i].kinds = make(map[string]map[string]Entity)
		for _, rec := range staged[i] {
			s.shards[i].kindLocked(rec.Kind)[rec.Key] = Entity{
				Kind: rec.Kind, Key: rec.Key, Version: rec.Version, Data: rec.Data,
			}
		}
	}
	s.lastSeq, s.nextSeq = snap.Seq, snap.Seq
	if s.repl != nil {
		s.repl.start, s.repl.n = 0, 0
	}
	s.notifyLocked()
	return nil
}

// Path returns the snapshot path the store was Opened from ("" for
// memory-only stores): the file Snapshot must target to compact the WAL.
func (s *Store) Path() string { return s.snapshotPath }
