package pep

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"umac/internal/core"
)

// TestRequireAMFailureYields502 covers the Host's behaviour when the AM is
// unreachable or erroring: fail closed with 502, never serve.
func TestRequireAMFailureYields502(t *testing.T) {
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
