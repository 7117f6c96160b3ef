package pep

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"umac/internal/store"
)

// fakeExchangeAM serves the pairing code-for-secret exchange.
func fakeExchangeAM(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/api/pair/exchange" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"pairing_id":"pair-1","secret":"s3cret","am":"http://fake","user":"bob"}`))
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestPairingsSurviveHostRestart: an enforcer built over a durable store
// writes its pairings through; a second enforcer over a reopened store
// (WAL only — the host was killed, never snapshot) sees them again.
func TestPairingsSurviveHostRestart(t *testing.T) {
	fake := fakeExchangeAM(t)
	path := filepath.Join(t.TempDir(), "host-state.json")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}

	e1 := New(Config{Host: "webpics", Store: st})
	if _, err := e1.CompletePairing(fake.URL, "bob", "code-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := e1.CompleteRealmPairing(fake.URL, "bob", "travel", "code-2"); err != nil {
		t.Fatal(err)
	}
	// Hard kill: no snapshot, no close.

	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	e2 := New(Config{Host: "webpics", Store: st2})
	if !e2.Delegated("bob") {
		t.Fatal("default pairing lost across restart")
	}
	p, ok := e2.PairingFor("bob")
	if !ok || p.PairingID != "pair-1" || p.Secret != "s3cret" || p.User != "bob" {
		t.Fatalf("PairingFor after restart = %+v %v", p, ok)
	}
	rp, ok := e2.pairingForRealm("bob", "travel")
	if !ok || rp.PairingID != "pair-1" || rp.Secret != "s3cret" {
		t.Fatalf("realm pairing after restart = %+v %v", rp, ok)
	}
}

// TestUnpairRemovesPersistedPairing: unpair is written through, so a
// restarted host does not resurrect a revoked delegation.
func TestUnpairRemovesPersistedPairing(t *testing.T) {
	fake := fakeExchangeAM(t)
	path := filepath.Join(t.TempDir(), "host-state.json")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	e1 := New(Config{Host: "webpics", Store: st})
	if _, err := e1.CompletePairing(fake.URL, "bob", "code-1"); err != nil {
		t.Fatal(err)
	}
	e1.Unpair("bob")

	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	e2 := New(Config{Host: "webpics", Store: st2})
	if e2.Delegated("bob") {
		t.Fatal("revoked pairing resurrected by restart")
	}
}
