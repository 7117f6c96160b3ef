package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"umac/internal/seglog"
)

// Regression tests for WAL segmentation: rolling, compaction of sealed
// segments, replay ordering across files, and replication behaviour when
// a follower's resume point falls behind what segments still exist.

// smallSeg rolls after ~1KiB so a few dozen writes span several segments.
const smallSeg = 1 << 10

// fillSegments writes records until the store has at least want segments.
func fillSegments(t *testing.T, st *Store, want int) int {
	t.Helper()
	for i := 0; st.WALSegments() < want; i++ {
		if i > 10000 {
			t.Fatalf("never reached %d segments (at %d)", want, st.WALSegments())
		}
		if _, err := st.Put("doc", fmt.Sprintf("k%05d", i), map[string]string{
			"pad": "0123456789012345678901234567890123456789",
		}); err != nil {
			t.Fatal(err)
		}
	}
	return st.WALSegments()
}

func TestSegmentRollAndReplayAcrossBoundaries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	st, err := Open(path, WithWALSegmentSize(smallSeg))
	if err != nil {
		t.Fatal(err)
	}
	fillSegments(t, st, 4)
	keys := st.List("doc")
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := listSegments(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 4 {
		t.Fatalf("segments on disk = %d, want >= 4", len(segs))
	}

	re, err := Open(path, WithWALSegmentSize(smallSeg))
	if err != nil {
		t.Fatalf("reopen across segments: %v", err)
	}
	defer re.Close()
	if got := len(re.List("doc")); got != len(keys) {
		t.Fatalf("replayed %d entities, want %d", got, len(keys))
	}
	// Replay must preserve versions (ordered application across files).
	for _, e := range keys {
		var v map[string]string
		ge, err := re.Get("doc", e.Key, &v)
		if err != nil || ge.Version != e.Version {
			t.Fatalf("key %s: version %d err %v, want version %d", e.Key, ge.Version, err, e.Version)
		}
	}
}

func TestSnapshotMidRollDeletesOnlySealedSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	st, err := Open(path, WithWALSegmentSize(smallSeg))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fillSegments(t, st, 3)

	before, err := listSegments(path + ".wal")
	if err != nil {
		t.Fatal(err)
	}
	active := before[len(before)-1]
	sealed := before[:len(before)-1]

	if err := st.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	// Compaction deletes exactly the sealed files; the active segment
	// survives (truncated) and keeps receiving appends.
	for _, seg := range sealed {
		if _, err := os.Stat(seg.path); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("sealed segment %s survived compaction (err=%v)", seg.path, err)
		}
	}
	fi, err := os.Stat(active.path)
	if err != nil {
		t.Fatalf("active segment deleted by compaction: %v", err)
	}
	if fi.Size() != 0 {
		t.Fatalf("active segment not truncated: %d bytes", fi.Size())
	}
	if n := st.WALSegments(); n != 1 {
		t.Fatalf("segments after compaction = %d, want 1", n)
	}

	// The log is still live: more writes roll fresh segments and replay.
	fillSegments(t, st, 2)
	count := len(st.List("doc"))
	re, err := Open(path, WithWALSegmentSize(smallSeg))
	if err != nil {
		t.Fatalf("reopen after mid-roll compaction: %v", err)
	}
	defer re.Close()
	if got := len(re.List("doc")); got != count {
		t.Fatalf("replayed %d entities, want %d", got, count)
	}
}

func TestFollowerTailsAcrossSegmentBoundary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	primary, err := Open(path, WithWALSegmentSize(smallSeg))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	primary.EnableReplication(0)

	follower := New()
	// Interleave writes and tailing so the follower's resume point crosses
	// every roll, not just the final state.
	for primary.WALSegments() < 4 {
		for i := 0; i < 5; i++ {
			if _, err := primary.Put("doc", fmt.Sprintf("s%d-%d", primary.WALSegments(), i),
				map[string]string{"pad": "0123456789012345678901234567890123456789"}); err != nil {
				t.Fatal(err)
			}
		}
		replicateAll(t, primary, follower)
	}
	assertSameContents(t, primary, follower)
	if follower.LastSeq() != primary.LastSeq() {
		t.Fatalf("follower seq %d != primary %d", follower.LastSeq(), primary.LastSeq())
	}
}

func TestTruncatedFollowerRebootstrapsPastDeletedSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	primary, err := Open(path, WithWALSegmentSize(smallSeg))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	// A tiny in-memory window: a follower that pauses falls out of it.
	primary.EnableReplication(8)

	follower := New()
	if _, err := primary.Put("doc", "seed", "v"); err != nil {
		t.Fatal(err)
	}
	replicateAll(t, primary, follower)
	resume := follower.LastSeq()

	// While the follower is away: enough writes to roll segments, then a
	// compaction that deletes the sealed ones the follower never saw.
	fillSegments(t, primary, 4)
	if err := primary.Snapshot(path); err != nil {
		t.Fatal(err)
	}

	_, _, err = primary.TailSince(resume, 100)
	if !errors.Is(err, ErrReplicationTruncated) {
		t.Fatalf("tail after window loss: err = %v, want ErrReplicationTruncated", err)
	}
	// The recovery path: full snapshot install, then resume tailing.
	if err := follower.LoadReplicationSnapshot(primary.ReplicationSnapshot()); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Put("doc", "after-bootstrap", "v"); err != nil {
		t.Fatal(err)
	}
	replicateAll(t, primary, follower)
	assertSameContents(t, primary, follower)
	if !follower.Exists("doc", "seed") || !follower.Exists("doc", "after-bootstrap") {
		t.Fatal("zero-loss violated across re-bootstrap")
	}
}

// TestSnapshotFailedDirSyncKeepsWAL: a snapshot's rename is durable only
// once its directory is synced. When that sync fails, Snapshot must report
// it and leave the WAL untruncated, so a reopen replays every record.
func TestSnapshotFailedDirSyncKeepsWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := st.Put("doc", fmt.Sprintf("k%02d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	saved := seglog.SyncDir
	seglog.SyncDir = func(string) error { return errors.New("injected dir sync failure") }
	err = st.Snapshot(path)
	seglog.SyncDir = saved
	if err == nil {
		t.Fatal("Snapshot reported success without syncing its directory")
	}
	if st.WALSize() == 0 {
		t.Fatal("WAL truncated although the snapshot's rename was not made durable")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i := 0; i < n; i++ {
		var v int
		if _, err := re.Get("doc", fmt.Sprintf("k%02d", i), &v); err != nil || v != i {
			t.Fatalf("k%02d after reopen = %d, %v; want %d", i, v, err, i)
		}
	}
}
