// Package store is the datastore substrate of the reproduction. The paper's
// prototype persists policies "within the GAE datastore" (Section VI); this
// package provides the equivalent surface on a laptop: a transactional,
// kind-partitioned key-value store with JSON entity encoding, secondary
// filtering queries, and durable persistence to disk.
//
// Layout: entities are hash-partitioned across a fixed set of lock-striped
// shards, so independent keys never contend on a single mutex. Durability is
// two-tier: every mutation is appended (with a CRC32 checksum) to a
// segmented write-ahead log before it is acknowledged — concurrent writers
// are group-committed, sharing one write and one fsync per batch
// (commit.go) — and Snapshot writes the full contents to a compact file,
// deleting the sealed log segments it subsumes. Open replays
// snapshot + WAL, so a process killed between snapshots loses no
// acknowledged write. A store built with New (or the zero value) is
// memory-only and skips the WAL entirely.
//
// Reads decode each stored version once: the first Get of a version
// caches the decoded value beside the bytes and later reads copy it
// (decoded.go).
//
// The WAL doubles as a replication log (replication.go): every mutation
// carries a contiguous sequence number, a primary retains the recent tail
// for followers to read in order (TailSince/ReplWatch), and followers
// apply it exactly once (ApplyReplicated), preserving the numbering in
// their own WAL so a restart resumes at the applied offset.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"umac/internal/core"
	"umac/internal/seglog"
)

// Common errors.
var (
	// ErrNotFound is returned when a key has no entity.
	ErrNotFound = errors.New("store: entity not found")
	// ErrConflict is returned by conditional writes whose precondition
	// failed (entity changed since it was read).
	ErrConflict = errors.New("store: version conflict")
	// ErrBadKey is returned for empty kinds or keys.
	ErrBadKey = errors.New("store: kind and key must be non-empty")
	// ErrClosed is returned for writes against a store whose WAL has been
	// closed (it is the WAL's own closed error).
	ErrClosed = seglog.ErrClosed
)

// Entity is a stored record: an opaque JSON document plus a version counter
// used for optimistic concurrency.
type Entity struct {
	Kind    string          `json:"kind"`
	Key     string          `json:"key"`
	Version int64           `json:"version"`
	Data    json.RawMessage `json:"data"`

	// val is Data decoded, once Get has read this version (decoded.go).
	val any
}

// Decode unmarshals the entity's data into v. When v has the type a Get
// already decoded this version into, it receives a copy of that value
// instead; the result is the same.
func (e Entity) Decode(v any) error {
	_, err := e.decodeInto(v)
	return err
}

// shardCount is the number of lock stripes. Power of two so the shard index
// is a mask; 32 stripes keep contention negligible well past the core counts
// this runs on, at ~a few hundred bytes of zero-value overhead.
const shardCount = 32

// shard is one lock stripe: a private mutex plus the kind-partitioned
// entities that hash to it.
type shard struct {
	mu    sync.RWMutex
	kinds map[string]map[string]Entity
}

func (sh *shard) kindLocked(kind string) map[string]Entity {
	if sh.kinds == nil {
		sh.kinds = make(map[string]map[string]Entity)
	}
	k, ok := sh.kinds[kind]
	if !ok {
		k = make(map[string]Entity)
		sh.kinds[kind] = k
	}
	return k
}

// Store is a transactional datastore, lock-striped across shards. The zero
// value is a ready-to-use memory-only store; Open returns a durable one.
//
// Lock ordering (deadlock freedom): shard mutexes are only ever acquired in
// ascending index order, and the WAL mutex is only acquired while holding
// the shard lock(s) involved — never the reverse. The committer goroutine
// (commit.go) takes the WAL mutex with no shard locks held, which is
// compatible; writers blocked on a commit hold their shard lock, which is
// what lets Snapshot/Close treat "all shard locks held" as "no batch in
// flight".
type Store struct {
	shards [shardCount]shard

	walMu sync.Mutex
	wal   *seglog.Log // nil = memory-only
	// lastSeq is the applied WAL offset: the sequence number of the newest
	// mutation durably logged locally or applied from a replication stream.
	lastSeq int64
	// nextSeq runs ahead of lastSeq by the records enqueued for group
	// commit but not yet flushed; writers stamp nextSeq+1 at enqueue and
	// lastSeq follows once the batch is on disk.
	nextSeq int64
	// pending is the open group-commit batch (nil when nothing is queued);
	// see commit.go for the committer protocol.
	pending       *commitBatch
	commitKick    chan struct{}
	commitStop    chan struct{}
	committerDone chan struct{}
	// walClosing is set by Close before the committer drains, so writers
	// cannot enqueue into a batch nobody will ever flush.
	walClosing bool
	// repl retains the recent WAL tail for followers (nil until
	// EnableReplication). replayed holds the records Open replayed from
	// the WAL (at most DefaultReplicationWindow), which EnableReplication
	// moves into repl.
	repl     *replState
	replayed []core.ReplRecord
	// watch is the ReplWatch broadcast channel (closed and replaced on
	// every logged mutation; nil until someone watches).
	watch chan struct{}

	// snapshotPath is the path Open loaded from; Snapshot to this path is
	// the WAL compaction point.
	snapshotPath string

	// failWrites, when non-nil, makes every mutation fail with the stored
	// error (wrapped as an internal fault). Fault-injection hook for the
	// HTTP sanitization audit; never set in production.
	failWrites atomic.Pointer[error]
}

// New returns an empty memory-only store. Equivalent to new(Store); provided
// for symmetry with Open.
func New() *Store { return &Store{} }

// shardIndex hashes (kind, key) onto a shard index.
func (s *Store) shardIndex(kind, key string) int {
	h := fnv.New32a()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return int(h.Sum32() & (shardCount - 1))
}

func (s *Store) shardFor(kind, key string) *shard {
	return &s.shards[s.shardIndex(kind, key)]
}

// lockAll acquires every shard lock in ascending order; unlock with
// unlockAll. Used by whole-store operations (snapshot, load, scans) that
// need a consistent view.
func (s *Store) lockAll(write bool) {
	for i := range s.shards {
		if write {
			s.shards[i].mu.Lock()
		} else {
			s.shards[i].mu.RLock()
		}
	}
}

func (s *Store) unlockAll(write bool) {
	for i := range s.shards {
		if write {
			s.shards[i].mu.Unlock()
		} else {
			s.shards[i].mu.RUnlock()
		}
	}
}

// logPut appends a put record to the WAL and replication tail (no-op for
// memory-only, non-replicating stores). Called with the owning shard lock
// held, so WAL order matches apply order for any single key.
func (s *Store) logPut(e Entity) error {
	return s.logMutation(opPut, e.Kind, e.Key, e.Version, e.Data)
}

// logDelete appends a delete record to the WAL and replication tail.
func (s *Store) logDelete(kind, key string) error {
	return s.logMutation(opDelete, kind, key, 0, nil)
}

// logMutation stamps one mutation with the next sequence number and makes
// it durable and visible to replication. For a WAL-backed store the record
// joins the open group-commit batch and the call blocks until the
// committer lands the whole batch (one write, one fsync for everyone in
// it); lastSeq — the offset TailSince serves from — only advances once the
// batch is on disk, so an acknowledged offset always names durable bytes.
// Memory-only replicating stores publish synchronously.
func (s *Store) logMutation(op, kind, key string, version int64, data json.RawMessage) error {
	if f := s.failWrites.Load(); f != nil {
		return internalFault(*f)
	}
	if s.wal == nil && s.repl == nil {
		return nil
	}
	s.walMu.Lock()
	if s.wal == nil {
		seq := s.nextSeq + 1
		s.nextSeq, s.lastSeq = seq, seq
		s.repl.push(core.ReplRecord{Seq: seq, Op: op, Kind: kind, Key: key, Version: version, Data: data})
		s.notifyLocked()
		s.walMu.Unlock()
		return nil
	}
	if s.walClosing || s.wal.IsClosed() {
		s.walMu.Unlock()
		return internalFault(ErrClosed)
	}
	rec := walRecord{Seq: s.nextSeq + 1, Op: op, Kind: kind, Key: key, Version: version, Data: data}
	buf, err := encodeRecord(rec)
	if err != nil {
		s.walMu.Unlock()
		return internalFault(err)
	}
	s.nextSeq++
	b := s.enqueueLocked(buf, rec)
	s.walMu.Unlock()
	s.kickCommitter()
	<-b.done
	return internalFault(b.err)
}

// internalFault classifies a storage-layer failure as a server fault: the
// HTTP surface maps anything wrapping core.ErrInternalFault to a
// sanitized 500 instead of a caller-blaming 400 that would echo WAL
// paths back on the wire. errors.Is against the original error (e.g.
// ErrClosed) keeps working through the wrap.
func internalFault(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("store: %w: %w", core.ErrInternalFault, err)
}

// FailWrites injects err as the outcome of every subsequent mutation on
// this store (wrapped as an internal fault); nil clears the injection.
// Fault-injection hook for the sanitization audit — it proves that a
// disk-full WAL append cannot leak its path through any registered route.
func (s *Store) FailWrites(err error) {
	if err == nil {
		s.failWrites.Store(nil)
		return
	}
	s.failWrites.Store(&err)
}

// Put stores v under (kind, key), overwriting any existing entity and
// bumping its version. It returns the stored entity. For durable stores the
// write is on disk before Put returns.
func (s *Store) Put(kind, key string, v any) (Entity, error) {
	if kind == "" || key == "" {
		return Entity{}, ErrBadKey
	}
	data, err := json.Marshal(v)
	if err != nil {
		return Entity{}, fmt.Errorf("store: encode %s/%s: %w", kind, key, err)
	}
	sh := s.shardFor(kind, key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	k := sh.kindLocked(kind)
	e := Entity{Kind: kind, Key: key, Version: k[key].Version + 1, Data: data}
	if err := s.logPut(e); err != nil {
		return Entity{}, err
	}
	k[key] = e
	return e, nil
}

// PutIfVersion stores v only if the current version of (kind, key) equals
// version; version 0 means "must not exist". Returns ErrConflict otherwise.
func (s *Store) PutIfVersion(kind, key string, version int64, v any) (Entity, error) {
	if kind == "" || key == "" {
		return Entity{}, ErrBadKey
	}
	data, err := json.Marshal(v)
	if err != nil {
		return Entity{}, fmt.Errorf("store: encode %s/%s: %w", kind, key, err)
	}
	sh := s.shardFor(kind, key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	k := sh.kindLocked(kind)
	cur, exists := k[key]
	switch {
	case version == 0 && exists:
		return Entity{}, ErrConflict
	case version != 0 && (!exists || cur.Version != version):
		return Entity{}, ErrConflict
	}
	e := Entity{Kind: kind, Key: key, Version: cur.Version + 1, Data: data}
	if err := s.logPut(e); err != nil {
		return Entity{}, err
	}
	k[key] = e
	return e, nil
}

// Get retrieves (kind, key) and decodes it into v if v is non-nil. Each
// version is decoded at most once: the first Get into a *T caches the
// value and later ones copy it (decoded.go).
func (s *Store) Get(kind, key string, v any) (Entity, error) {
	sh := s.shardFor(kind, key)
	sh.mu.RLock()
	e, ok := sh.kinds[kind][key]
	sh.mu.RUnlock()
	if !ok {
		return Entity{}, fmt.Errorf("%w: %s/%s", ErrNotFound, kind, key)
	}
	if v == nil {
		return e, nil
	}
	fresh, err := e.decodeInto(v)
	if err != nil {
		return Entity{}, err
	}
	if fresh != nil {
		e.val = fresh
		sh.mu.Lock()
		if cur, ok := sh.kinds[kind][key]; ok && sameBytes(cur, e) {
			cur.val = fresh
			sh.kinds[kind][key] = cur
		}
		sh.mu.Unlock()
	}
	return e, nil
}

// Exists reports whether (kind, key) is present.
func (s *Store) Exists(kind, key string) bool {
	sh := s.shardFor(kind, key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.kinds[kind][key]
	return ok
}

// Delete removes (kind, key). Deleting a missing entity returns ErrNotFound.
func (s *Store) Delete(kind, key string) error {
	sh := s.shardFor(kind, key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	k, ok := sh.kinds[kind]
	if !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, kind, key)
	}
	if _, ok := k[key]; !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, kind, key)
	}
	if err := s.logDelete(kind, key); err != nil {
		return err
	}
	delete(k, key)
	return nil
}

// collect gathers entities of a kind matching keep (nil = all) across all
// shards under a consistent read view, sorted by key.
func (s *Store) collect(kind string, keep func(Entity) bool) []Entity {
	s.lockAll(false)
	var out []Entity
	for i := range s.shards {
		for _, e := range s.shards[i].kinds[kind] {
			if keep == nil || keep(e) {
				out = append(out, e)
			}
		}
	}
	s.unlockAll(false)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// List returns all entities of a kind, sorted by key for determinism.
func (s *Store) List(kind string) []Entity {
	return s.collect(kind, nil)
}

// ListPrefix returns all entities of a kind whose key starts with prefix,
// sorted by key. This is the index primitive the AM uses for realm-scoped
// lookups (keys are structured like "user/realm/resource").
func (s *Store) ListPrefix(kind, prefix string) []Entity {
	return s.collect(kind, func(e Entity) bool { return strings.HasPrefix(e.Key, prefix) })
}

// Query returns entities of a kind for which filter returns true, sorted by
// key. Filter runs under the read locks and must not call back into the
// store.
func (s *Store) Query(kind string, filter func(Entity) bool) []Entity {
	return s.collect(kind, filter)
}

// Count returns the number of entities of a kind.
func (s *Store) Count(kind string) int {
	n := 0
	s.lockAll(false)
	for i := range s.shards {
		n += len(s.shards[i].kinds[kind])
	}
	s.unlockAll(false)
	return n
}

// Kinds returns the sorted list of kinds with at least one entity.
func (s *Store) Kinds() []string {
	set := make(map[string]bool)
	s.lockAll(false)
	for i := range s.shards {
		for kind, m := range s.shards[i].kinds {
			if len(m) > 0 {
				set[kind] = true
			}
		}
	}
	s.unlockAll(false)
	out := make([]string, 0, len(set))
	for kind := range set {
		out = append(out, kind)
	}
	sort.Strings(out)
	return out
}

// Update atomically reads (kind, key), applies fn to the decoded old value,
// and writes the result back, retrying on concurrent modification. decode
// receives a pointer to decode into (may be ignored when the entity does
// not exist yet; fn then sees exists=false).
func (s *Store) Update(kind, key string, decode any, fn func(exists bool) (any, error)) (Entity, error) {
	for {
		var version int64
		e, err := s.Get(kind, key, decode)
		exists := err == nil
		if exists {
			version = e.Version
		} else if !errors.Is(err, ErrNotFound) {
			return Entity{}, err
		}
		next, err := fn(exists)
		if err != nil {
			return Entity{}, err
		}
		out, err := s.PutIfVersion(kind, key, version, next)
		if errors.Is(err, ErrConflict) {
			continue
		}
		return out, err
	}
}

// applyReplayed installs a replayed WAL record without re-logging it.
func (s *Store) applyReplayed(rec walRecord) {
	sh := s.shardFor(rec.Kind, rec.Key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	switch rec.Op {
	case opPut:
		sh.kindLocked(rec.Kind)[rec.Key] = Entity{
			Kind: rec.Kind, Key: rec.Key, Version: rec.Version, Data: rec.Data,
		}
	case opDelete:
		delete(sh.kinds[rec.Kind], rec.Key)
	}
}

// Durable reports whether the store is backed by a write-ahead log.
func (s *Store) Durable() bool { return s.wal != nil }

// WALSize returns the current size in bytes of the write-ahead log across
// all its segments (0 for memory-only stores). Useful for deciding when to
// compact.
func (s *Store) WALSize() int64 {
	if s.wal == nil {
		return 0
	}
	return s.wal.TotalSize()
}

// WALSegments returns the number of on-disk WAL segment files (0 for
// memory-only stores). Compaction deletes sealed segments, so a freshly
// compacted log is back to one.
func (s *Store) WALSegments() int {
	if s.wal == nil {
		return 0
	}
	return s.wal.SegmentCount()
}

// Close drains the group-commit queue, then flushes and closes the
// write-ahead log. Subsequent writes return ErrClosed; reads keep working.
// Close is a no-op for memory-only stores and idempotent otherwise.
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	s.walMu.Lock()
	already := s.walClosing
	s.walClosing = true
	s.walMu.Unlock()
	if !already {
		close(s.commitStop)
	}
	<-s.committerDone
	return s.wal.Close()
}

// options configures Open.
type options struct {
	disableWAL bool
	walPath    string
	fsync      bool
	segLimit   int64
}

// Option customizes Open.
type Option func(*options)

// WithoutWAL opens the store without a write-ahead log: writes live in
// memory only between explicit Snapshot calls (the pre-WAL behaviour).
func WithoutWAL() Option { return func(o *options) { o.disableWAL = true } }

// WithWALPath roots the write-ahead log's segment files at an explicit
// path instead of the default "<snapshot path>.wal". Segments are named
// "<path>.000001", "<path>.000002", ….
func WithWALPath(path string) Option { return func(o *options) { o.walPath = path } }

// WithWALSegmentSize sets the byte threshold at which the active WAL
// segment is sealed and a fresh one opened (DefaultWALSegmentSize when
// unset or <= 0). Smaller segments mean compaction reclaims space in finer
// steps; the last batch before a roll may overshoot the limit.
func WithWALSegmentSize(n int64) Option { return func(o *options) { o.segLimit = n } }

// WithFsync fsyncs the write-ahead log after every append. Default is a
// plain write(2) per record, which survives process kills (the log lives in
// the page cache); enable this to also survive machine crashes, at a large
// per-write latency cost.
func WithFsync() Option { return func(o *options) { o.fsync = true } }

// Open loads the snapshot at path if it exists, then replays and attaches
// the write-ahead log beside it, so every subsequent write is durable.
// A torn or corrupt record at the WAL tail (a write in flight when the
// process died) is discarded; everything acknowledged before it is kept.
func Open(path string, opts ...Option) (*Store, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	s := New()
	s.snapshotPath = path
	if err := s.Load(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	if o.disableWAL {
		return s, nil
	}
	walPath := o.walPath
	if walPath == "" {
		walPath = path + ".wal"
	}
	w, records, err := openWAL(walPath, o.fsync, o.segLimit)
	if err != nil {
		return nil, err
	}
	for _, rec := range records {
		// Pre-sequence-number logs carry Seq 0: number them as they replay.
		if rec.Seq == 0 {
			rec.Seq = s.lastSeq + 1
		}
		// A crash between snapshot rename and WAL truncation leaves records
		// the snapshot already contains; skip them instead of re-applying.
		if rec.Seq <= s.lastSeq {
			continue
		}
		s.applyReplayed(rec)
		s.lastSeq = rec.Seq
		s.replayed = append(s.replayed, core.ReplRecord{
			Seq: rec.Seq, Op: rec.Op, Kind: rec.Kind, Key: rec.Key,
			Version: rec.Version, Data: rec.Data,
		})
	}
	if n := len(s.replayed) - DefaultReplicationWindow; n > 0 {
		s.replayed = s.replayed[n:]
	}
	s.wal = w
	s.nextSeq = s.lastSeq
	s.commitKick = make(chan struct{}, 1)
	s.commitStop = make(chan struct{})
	s.committerDone = make(chan struct{})
	go s.committer()
	return s, nil
}
