package seglog

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestFailedSyncPoisonsLog: a failed fsync is fail-stop. The kernel may
// have dropped the batch's dirty pages, so the log must refuse every later
// append instead of writing past bytes whose fate is unknown. The active
// file is swapped for the write end of a pipe, where Write succeeds and
// Sync fails with EINVAL.
func TestFailedSyncPoisonsLog(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "wal"), Options{Fsync: true}, func([]byte) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(AppendFrame(nil, []byte("acked"))); err != nil {
		t.Fatalf("first append: %v", err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	defer w.Close()
	file := l.active
	l.active = w
	if err := l.AppendBatch(AppendFrame(nil, []byte("unsynced"))); err == nil {
		t.Fatal("append whose fsync failed reported success")
	}
	l.active = file
	if !l.IsClosed() {
		t.Fatal("log not poisoned after a failed fsync")
	}
	if err := l.AppendBatch(AppendFrame(nil, []byte("next"))); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after a failed fsync = %v, want ErrClosed", err)
	}
	// Closing a poisoned log still releases its segment file.
	if err := l.Close(); err != nil {
		t.Fatalf("close of a poisoned log: %v", err)
	}
	if err := file.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("segment file still open after Close of a poisoned log (its Close = %v)", err)
	}
}

// failDirSync swaps SyncDir for one that fails, until the test ends.
func failDirSync(t *testing.T) {
	t.Helper()
	saved := SyncDir
	SyncDir = func(string) error { return errors.New("injected dir sync failure") }
	t.Cleanup(func() { SyncDir = saved })
}

// TestFailedDirSyncIsFailStop: a segment's name is durable only once its
// directory is synced, so every step that creates, adopts or removes a
// segment fails when that sync fails — and a log that has taken appends
// is poisoned, like after a failed fsync of the segment itself.
func TestFailedDirSyncIsFailStop(t *testing.T) {
	accept := func([]byte) bool { return true }
	t.Run("create", func(t *testing.T) {
		failDirSync(t)
		if _, err := Open(filepath.Join(t.TempDir(), "wal"), Options{}, accept); err == nil {
			t.Fatal("Open created segment 1 without syncing its directory")
		}
	})
	t.Run("adopt", func(t *testing.T) {
		base := filepath.Join(t.TempDir(), "wal")
		if err := os.WriteFile(base, AppendFrame(nil, []byte("flat")), 0o644); err != nil {
			t.Fatal(err)
		}
		failDirSync(t)
		if _, err := Open(base, Options{}, accept); err == nil {
			t.Fatal("Open adopted a flat log without syncing its directory")
		}
	})
	t.Run("roll", func(t *testing.T) {
		l, err := Open(filepath.Join(t.TempDir(), "wal"), Options{SegmentSize: 16}, accept)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		failDirSync(t)
		if err := l.AppendBatch(AppendFrame(nil, []byte("fills segment 1"))); err == nil {
			t.Fatal("roll to segment 2 reported success without syncing its directory")
		}
		if !l.IsClosed() {
			t.Fatal("log not poisoned after a failed directory sync on roll")
		}
	})
	t.Run("drop", func(t *testing.T) {
		l, err := Open(filepath.Join(t.TempDir(), "wal"), Options{SegmentSize: 16}, accept)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if err := l.AppendBatch(AppendFrame(nil, []byte("fills segment 1"))); err != nil {
			t.Fatal(err)
		}
		failDirSync(t)
		if err := l.DropSealed(1); err == nil {
			t.Fatal("DropSealed reported success without syncing the directory")
		}
		if !l.IsClosed() {
			t.Fatal("log not poisoned after a failed directory sync on drop")
		}
	})
}
