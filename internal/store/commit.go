package store

import (
	"runtime"

	"umac/internal/core"
)

// This file is the group-commit core of the durable write path (the
// classic ARIES/Postgres discipline): concurrent writers do not write the
// log themselves. Each one stamps the next sequence number, appends its
// framed record to the open batch, and blocks on the batch's notifier. A
// single committer goroutine takes whatever has queued, lands it with one
// write(2) and at most one fsync, then releases every writer in the batch
// at once. Acknowledged still means durable — but N concurrent writers
// share one fsync instead of paying for N.
//
// The disk write happens outside walMu, so new writers keep enqueuing into
// the NEXT batch while the current one is inside its fsync; that overlap
// is where the batching comes from. Structural operations on the log
// (reset during compaction, close) are safe against in-flight batches
// because every waiter in a batch holds its shard lock until released:
// any caller that first acquires all shard locks (Snapshot,
// LoadReplicationSnapshot) or drains the committer (Close) observes an
// idle log.

// commitBatch is one group of records flushed together: the framed bytes
// in enqueue order, the decoded records for post-flush accounting, and the
// notifier every enqueuing writer blocks on.
type commitBatch struct {
	bufs [][]byte
	recs []walRecord
	done chan struct{} // closed once the batch is on disk (or failed)
	err  error         // set before done is closed
}

// enqueueLocked appends one framed record to the open batch, creating it
// if this writer is the first in. Called with walMu held; the caller must
// kick the committer after releasing walMu and then wait on the returned
// batch's done channel.
func (s *Store) enqueueLocked(buf []byte, rec walRecord) *commitBatch {
	b := s.pending
	if b == nil {
		b = &commitBatch{done: make(chan struct{})}
		s.pending = b
	}
	b.bufs = append(b.bufs, buf)
	b.recs = append(b.recs, rec)
	return b
}

// kickCommitter nudges the committer without blocking; a token already in
// the channel guarantees a future flush that will see the new record.
func (s *Store) kickCommitter() {
	select {
	case s.commitKick <- struct{}{}:
	default:
	}
}

// committer is the single goroutine that owns WAL file I/O for logged
// mutations. It exits only after Close asked it to stop and the final
// drain completed.
func (s *Store) committer() {
	defer close(s.committerDone)
	for {
		select {
		case <-s.commitKick:
			// The kick lands the committer in the scheduler's run-next
			// slot, ahead of every writer the last flush just released.
			// Yield once so those writers get to enqueue before the batch
			// is taken — that turns "flush one record per fsync" back into
			// an actual group commit under concurrency, and costs ~100ns
			// when nothing else is runnable.
			runtime.Gosched()
			s.flushPending()
		case <-s.commitStop:
			s.flushPending()
			return
		}
	}
}

// flushPending takes the open batch and commits it: one write, at most one
// fsync, then sequence/replication/watch accounting and the batch-wide
// release.
func (s *Store) flushPending() {
	s.walMu.Lock()
	b := s.pending
	s.pending = nil
	if b == nil {
		s.walMu.Unlock()
		return
	}
	w := s.wal
	total := 0
	for _, buf := range b.bufs {
		total += len(buf)
	}
	out := make([]byte, 0, total)
	for _, buf := range b.bufs {
		out = append(out, buf...)
	}
	s.walMu.Unlock()

	err := w.AppendBatch(out)

	s.walMu.Lock()
	if err == nil {
		for _, rec := range b.recs {
			s.lastSeq = rec.Seq
			if s.repl != nil {
				s.repl.push(core.ReplRecord{
					Seq: rec.Seq, Op: rec.Op, Kind: rec.Kind, Key: rec.Key,
					Version: rec.Version, Data: rec.Data,
				})
			}
		}
		s.notifyLocked()
	} else if s.pending == nil && !w.IsClosed() {
		// The write was rewound and no writer claimed a later sequence
		// number while the batch was in flight: roll the counter back so
		// the numbers are reused, exactly like a failed single append.
		s.nextSeq -= int64(len(b.recs))
	} else {
		// Either the log is already poisoned — a failed fsync, after which
		// the batch's bytes may or may not survive a restart, so its
		// sequence numbers must never be handed out again — or writers
		// already hold sequence numbers past the failed batch; reusing
		// them would collide and skipping them would tear the replication
		// stream. Poison the log so writes fail loudly.
		w.Poison()
	}
	s.walMu.Unlock()
	b.err = err
	close(b.done)
}
