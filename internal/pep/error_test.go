package pep

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"umac/internal/core"
)

// TestRequireAMFailureYields502 covers the Host's behaviour when the AM is
// unreachable or erroring: fail closed with 502, never serve. The body the
// untrusted Requester reads does not carry the AM's address; the log does.
func TestRequireAMFailureYields502(t *testing.T) {
	logs := captureLog(t)
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "internal", http.StatusInternalServerError)
	}))
	defer broken.Close()

	e := New(Config{Host: "webpics"})
	e.mu.Lock()
	e.pairings["bob"] = Pairing{AMURL: broken.URL, PairingID: "p", Secret: "s", User: "bob"}
	e.mu.Unlock()

	req, _ := http.NewRequest(http.MethodGet, "http://pics/res/x", nil)
	req.Header.Set("Authorization", "UMAC some-token")
	rec := httptest.NewRecorder()
	if e.Require(rec, req, "bob", "travel", "x", core.ActionRead) {
		t.Fatal("Require returned true with a broken AM")
	}
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", rec.Code)
	}
	if strings.Contains(rec.Body.String(), broken.URL) {
		t.Fatalf("502 body leaks the AM's address: %q", rec.Body)
	}
	if !strings.Contains(logs.String(), broken.URL) {
		t.Fatalf("log does not name the AM: %q", logs.String())
	}
}

// TestRequireUnpairedOwnerYields404: an owner with no pairing at this Host
// is answered 404, the same as a resource that does not exist, so the
// answer does not reveal whether the owner exists. No AM was asked, so
// nothing failed and nothing is logged.
func TestRequireUnpairedOwnerYields404(t *testing.T) {
	logs := captureLog(t)
	e := New(Config{Host: "webpics"})
	req, _ := http.NewRequest(http.MethodGet, "http://pics/res/x", nil)
	req.Header.Set("Authorization", "UMAC some-token")
	rec := httptest.NewRecorder()
	if e.Require(rec, req, "bob", "travel", "x", core.ActionRead) {
		t.Fatal("Require returned true for an unpaired owner")
	}
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", rec.Code)
	}
	if logs.String() != "" {
		t.Fatalf("an unpaired owner was logged as a failure: %q", logs.String())
	}
}

// TestCheckTokenProblemReferral covers the expired/forged-token referral:
// a decision with token_problem=true maps to VerdictNeedToken, uncached.
func TestCheckTokenProblemReferral(t *testing.T) {
	am := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"decision":"deny","cache_ttl_seconds":60,"reason":"token invalid","token_problem":true}`))
	}))
	defer am.Close()

	e := New(Config{Host: "webpics"})
	e.mu.Lock()
	e.pairings["bob"] = Pairing{AMURL: am.URL, PairingID: "p", Secret: "s", User: "bob"}
	e.mu.Unlock()

	req, _ := http.NewRequest(http.MethodGet, "http://pics/res/x", nil)
	req.Header.Set("Authorization", "UMAC stale-token")
	result, err := e.Check(req, "bob", "travel", "x", core.ActionRead)
	if err != nil {
		t.Fatal(err)
	}
	if result.Verdict != VerdictNeedToken {
		t.Fatalf("verdict = %v, want need-token", result.Verdict)
	}
	if e.Cache().Len() != 0 {
		t.Fatal("token-problem decision was cached")
	}
}
