package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"umac/internal/seglog"
)

// snapshot is the on-disk representation: a flat, key-sorted entity list so
// snapshots diff cleanly under version control. LastSeq records the
// replication sequence number the snapshot is consistent at, so a restarted
// follower resumes tailing from its applied offset (absent in pre-sequence
// snapshots, which decode as 0).
type snapshot struct {
	FormatVersion int      `json:"format_version"`
	LastSeq       int64    `json:"last_seq,omitempty"`
	Entities      []Entity `json:"entities"`
}

const snapshotFormatVersion = 1

// Snapshot writes the full store contents to path atomically (write to a
// temp file in the same directory, then rename).
//
// For a durable store snapshotting to the path it was Opened from, Snapshot
// is also the WAL compaction point: once the snapshot is safely renamed
// into place, the log it subsumes is truncated. Writers are paused for the
// duration (reads proceed), which is what makes "snapshot ∪ log" a
// consistent recovery image.
func (s *Store) Snapshot(path string) error {
	compact := s.wal != nil && path == s.snapshotPath

	s.lockAll(false)
	if compact {
		defer s.unlockAll(false)
	}
	snap := snapshot{FormatVersion: snapshotFormatVersion}
	s.walMu.Lock()
	snap.LastSeq = s.lastSeq
	s.walMu.Unlock()
	for i := range s.shards {
		for _, m := range s.shards[i].kinds {
			for _, e := range m {
				snap.Entities = append(snap.Entities, e)
			}
		}
	}
	if !compact {
		s.unlockAll(false)
	}
	sort.Slice(snap.Entities, func(i, j int) bool {
		a, b := snap.Entities[i], snap.Entities[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Key < b.Key
	})

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("store: snapshot encode: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return fmt.Errorf("store: snapshot temp: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: snapshot write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: snapshot sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: snapshot close: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("store: snapshot rename: %w", err)
	}
	// Make the rename itself durable before the log it subsumes is
	// truncated: without the directory fsync, a machine crash mid-compaction
	// could surface the old snapshot next to an already-emptied WAL.
	if err := seglog.SyncDir(dir); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	if compact {
		s.walMu.Lock()
		defer s.walMu.Unlock()
		if err := s.wal.Reset(); err != nil {
			return err
		}
	}
	return nil
}

// Load replaces the store contents with the snapshot at path. It does not
// touch the write-ahead log; it is the first phase of Open's recovery and a
// direct way to seed memory-only stores.
func (s *Store) Load(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("store: load: %w", err)
	}
	var snap snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("store: load decode: %w", err)
	}
	if snap.FormatVersion != snapshotFormatVersion {
		return fmt.Errorf("store: load: unsupported format version %d", snap.FormatVersion)
	}
	staged := make([][]Entity, shardCount)
	for _, e := range snap.Entities {
		if e.Kind == "" || e.Key == "" {
			return fmt.Errorf("store: load: entity with empty kind or key")
		}
		i := s.shardIndex(e.Kind, e.Key)
		staged[i] = append(staged[i], e)
	}
	s.lockAll(true)
	defer s.unlockAll(true)
	for i := range s.shards {
		s.shards[i].kinds = make(map[string]map[string]Entity)
		for _, e := range staged[i] {
			s.shards[i].kindLocked(e.Kind)[e.Key] = e
		}
	}
	s.walMu.Lock()
	s.lastSeq, s.nextSeq = snap.LastSeq, snap.LastSeq
	s.walMu.Unlock()
	return nil
}
