package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// walFixtureSteps produced testdata/wal-format/state.json.wal.000001: a
// WAL segment written by the store before its segment code moved into
// internal/seglog. The on-disk format is a compatibility promise, so that
// file must replay unchanged and the same writes must still produce it
// byte for byte.
var walFixtureSteps = []struct {
	key string
	doc doc
	del bool
}{
	{key: "alpha", doc: doc{Name: "first", Count: 1}},
	{key: "beta", doc: doc{Name: "second é \"quoted\"", Count: 2}},
	{key: "alpha", doc: doc{Name: "first, updated", Count: 11}},
	{key: "gamma", doc: doc{Name: "", Count: -3}},
	{key: "beta", del: true},
}

const walFixture = "testdata/wal-format/state.json.wal.000001"

func TestWALFormatFixtureReplays(t *testing.T) {
	want, err := os.ReadFile(walFixture)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state.json")
	if err := os.WriteFile(path+".wal.000001", want, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.LastSeq() != int64(len(walFixtureSteps)) {
		t.Fatalf("replayed seq %d, want %d", s.LastSeq(), len(walFixtureSteps))
	}
	var d doc
	e, err := s.Get("doc", "alpha", &d)
	if err != nil || e.Version != 2 || d != (doc{Name: "first, updated", Count: 11}) {
		t.Fatalf("alpha = %+v v%d err %v", d, e.Version, err)
	}
	if _, err := s.Get("doc", "gamma", &d); err != nil || d != (doc{Count: -3}) {
		t.Fatalf("gamma = %+v err %v", d, err)
	}
	if s.Exists("doc", "beta") {
		t.Fatal("deleted beta resurrected")
	}
}

func TestWALFormatWritesFixtureBytes(t *testing.T) {
	want, err := os.ReadFile(walFixture)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state.json")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range walFixtureSteps {
		if step.del {
			err = s.Delete("doc", step.key)
		} else {
			_, err = s.Put("doc", step.key, step.doc)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path + ".wal.000001")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("WAL bytes differ from the fixture:\n got %q\nwant %q", got, want)
	}
}
