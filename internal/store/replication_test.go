package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"umac/internal/core"
)

func compactJSON(t *testing.T, raw []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("compact %q: %v", raw, err)
	}
	return buf.String()
}

// replicateAll drains primary's tail into follower until follower's applied
// offset reaches primary's, failing the test on any error.
func replicateAll(t *testing.T, primary, follower *Store) {
	t.Helper()
	for follower.LastSeq() < primary.LastSeq() {
		recs, _, err := primary.TailSince(follower.LastSeq(), 100)
		if err != nil {
			t.Fatalf("tail from %d: %v", follower.LastSeq(), err)
		}
		if len(recs) == 0 {
			t.Fatalf("tail from %d returned no records below last seq %d",
				follower.LastSeq(), primary.LastSeq())
		}
		for _, rec := range recs {
			if err := follower.ApplyReplicated(rec); err != nil {
				t.Fatalf("apply seq %d: %v", rec.Seq, err)
			}
		}
	}
}

// assertSameContents fails unless both stores hold identical entities
// (kind, key, version, data) for every kind.
func assertSameContents(t *testing.T, want, got *Store) {
	t.Helper()
	kinds := want.Kinds()
	if fmt.Sprint(kinds) != fmt.Sprint(got.Kinds()) {
		t.Fatalf("kinds: want %v, got %v", kinds, got.Kinds())
	}
	for _, kind := range kinds {
		we, ge := want.List(kind), got.List(kind)
		if len(we) != len(ge) {
			t.Fatalf("kind %s: want %d entities, got %d", kind, len(we), len(ge))
		}
		for i := range we {
			// Compare compacted JSON: a snapshot round-trip may reindent
			// Data without changing its value.
			if we[i].Key != ge[i].Key || we[i].Version != ge[i].Version ||
				compactJSON(t, we[i].Data) != compactJSON(t, ge[i].Data) {
				t.Fatalf("kind %s entity %d: want %+v, got %+v", kind, i, we[i], ge[i])
			}
		}
	}
}

func TestReplicationTailAndApply(t *testing.T) {
	primary := New()
	primary.EnableReplication(0)
	for i := 0; i < 20; i++ {
		if _, err := primary.Put("doc", fmt.Sprintf("k%02d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.Delete("doc", "k03"); err != nil {
		t.Fatal(err)
	}
	if primary.LastSeq() != 21 {
		t.Fatalf("primary seq = %d, want 21", primary.LastSeq())
	}

	follower := New()
	replicateAll(t, primary, follower)
	assertSameContents(t, primary, follower)
	if follower.Exists("doc", "k03") {
		t.Fatal("delete not replicated")
	}

	// Idempotent re-delivery: re-applying an old record is a silent no-op.
	recs, _, err := primary.TailSince(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := follower.ApplyReplicated(recs[0]); err != nil {
		t.Fatalf("duplicate apply: %v", err)
	}
	// A gap is rejected without applying.
	bad := core.ReplRecord{Seq: follower.LastSeq() + 5, Op: core.ReplOpPut,
		Kind: "doc", Key: "gap", Data: []byte("1")}
	if err := follower.ApplyReplicated(bad); !errors.Is(err, ErrReplicationGap) {
		t.Fatalf("gap apply err = %v, want ErrReplicationGap", err)
	}
	if follower.Exists("doc", "gap") {
		t.Fatal("gapped record was applied")
	}
}

func TestReplicationSnapshotBootstrap(t *testing.T) {
	// A durable primary: sequence numbers advance from the first write,
	// even before replication is enabled.
	primary, err := Open(filepath.Join(t.TempDir(), "primary.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	// Writes BEFORE EnableReplication are not in the tail window; a
	// follower must bootstrap from the snapshot.
	for i := 0; i < 10; i++ {
		if _, err := primary.Put("doc", fmt.Sprintf("k%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	primary.EnableReplication(4)

	follower := New()
	if _, _, err := follower.TailSince(0, 10); !errors.Is(err, ErrReplicationDisabled) {
		t.Fatalf("tail on non-replicating store err = %v", err)
	}
	if _, _, err := primary.TailSince(0, 10); !errors.Is(err, ErrReplicationTruncated) {
		t.Fatalf("tail before window err = %v, want ErrReplicationTruncated", err)
	}

	snap := primary.ReplicationSnapshot()
	if err := follower.LoadReplicationSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if follower.LastSeq() != primary.LastSeq() {
		t.Fatalf("follower seq = %d, want %d", follower.LastSeq(), primary.LastSeq())
	}
	assertSameContents(t, primary, follower)

	// Tail the deltas after the snapshot point.
	if _, err := primary.Put("doc", "post", "p"); err != nil {
		t.Fatal(err)
	}
	replicateAll(t, primary, follower)
	assertSameContents(t, primary, follower)

	// Window overflow (cap 4): a follower left far behind gets truncated.
	for i := 0; i < 10; i++ {
		if _, err := primary.Put("doc", "hot", i); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := primary.TailSince(snap.Seq, 100); !errors.Is(err, ErrReplicationTruncated) {
		t.Fatalf("overflowed tail err = %v, want ErrReplicationTruncated", err)
	}
}

// TestReplicationTailSurvivesRestart: a reopened store serves the tail it
// replayed from the WAL, so a reader holding an offset from before the
// restart (a follower, an owner migration's drain leg) resumes there
// instead of being told to re-bootstrap.
func TestReplicationTailSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "primary.json")
	primary, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	primary.EnableReplication(0)
	for i := 0; i < 10; i++ {
		if _, err := primary.Put("doc", fmt.Sprintf("k%d", i), i); err != nil {
			t.Fatal(err)
		}
	}
	primary.Close() // no snapshot: the WAL holds all ten records

	restarted, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	restarted.EnableReplication(0)
	recs, last, err := restarted.TailSince(4, 100)
	if err != nil {
		t.Fatalf("tail from a pre-restart offset: %v", err)
	}
	if len(recs) != 6 || recs[0].Seq != 5 || last != 10 {
		t.Fatalf("tail after restart: %d records from seq %v, last %d; want seqs 5..10", len(recs), recs, last)
	}
	if _, err := restarted.Put("doc", "after", "v"); err != nil {
		t.Fatal(err)
	}
	if recs, _, err = restarted.TailSince(9, 100); err != nil || len(recs) != 2 || recs[1].Seq != 11 {
		t.Fatalf("tail across the restart boundary: %v, %v", recs, err)
	}
}

func TestReplWatchWakesOnWrite(t *testing.T) {
	s := New()
	s.EnableReplication(0)
	ch := s.ReplWatch()
	done := make(chan struct{})
	go func() {
		<-ch
		close(done)
	}()
	if _, err := s.Put("doc", "k", 1); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("ReplWatch not woken by write")
	}
}

// TestFollowerRestartResumesFromAppliedOffset is the crash-during-replication
// case: a durable follower is hard-killed mid-stream (no snapshot, no Close)
// and a second instance opened from the same path must resume from its
// applied WAL offset — applying the remainder exactly once, with no
// duplicate and no lost record.
func TestFollowerRestartResumesFromAppliedOffset(t *testing.T) {
	primary := New()
	primary.EnableReplication(0)
	for i := 0; i < 30; i++ {
		if _, err := primary.Put("doc", fmt.Sprintf("k%02d", i), map[string]int{"v": i}); err != nil {
			t.Fatal(err)
		}
		// Interleave overwrites and deletes so versions matter.
		if i%5 == 0 {
			if _, err := primary.Put("doc", fmt.Sprintf("k%02d", i), map[string]int{"v": i * 10}); err != nil {
				t.Fatal(err)
			}
		}
		if i%7 == 3 {
			if err := primary.Delete("doc", fmt.Sprintf("k%02d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	path := filepath.Join(t.TempDir(), "follower.json")
	f1, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Apply only the first half of the stream, then "crash" (no Close).
	half := primary.LastSeq() / 2
	for f1.LastSeq() < half {
		recs, _, err := primary.TailSince(f1.LastSeq(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := f1.ApplyReplicated(recs[0]); err != nil {
			t.Fatal(err)
		}
	}

	f2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.LastSeq() != half {
		t.Fatalf("restarted follower resumes at %d, want %d", f2.LastSeq(), half)
	}
	replicateAll(t, primary, f2)
	assertSameContents(t, primary, f2)

	// And a third incarnation after a clean snapshot+restart still resumes
	// at the right offset (offset travels through the snapshot file too).
	if err := f2.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	f3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f3.Close()
	if f3.LastSeq() != primary.LastSeq() {
		t.Fatalf("post-snapshot restart resumes at %d, want %d", f3.LastSeq(), primary.LastSeq())
	}
	assertSameContents(t, primary, f3)
}

// TestReplicatedVersionsMatchPrimary pins down that replication preserves
// version counters exactly: a promoted follower must continue the optimistic
// concurrency sequence where the primary left off.
func TestReplicatedVersionsMatchPrimary(t *testing.T) {
	primary := New()
	primary.EnableReplication(0)
	for i := 0; i < 3; i++ {
		if _, err := primary.Put("doc", "k", i); err != nil {
			t.Fatal(err)
		}
	}
	follower := New()
	replicateAll(t, primary, follower)
	e, err := follower.Get("doc", "k", nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.Version != 3 {
		t.Fatalf("replicated version = %d, want 3", e.Version)
	}
	// Conditional write against the replicated version succeeds (promotion).
	if _, err := follower.PutIfVersion("doc", "k", 3, "promoted"); err != nil {
		t.Fatal(err)
	}
}
