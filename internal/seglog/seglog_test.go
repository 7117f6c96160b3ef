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
