package pullmodel

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"umac/internal/core"
	"umac/internal/httpsig"
	"umac/internal/pep"
)

// fakeAM verifies the channel signature and scripts a decision.
func fakeAM(t *testing.T, secret string, decision string) *httptest.Server {
	t.Helper()
	verifier := httpsig.NewVerifier(httpsig.SecretSourceFunc(func(id string) (string, bool) {
		return secret, true
	}))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/api/decision/pull" {
			http.NotFound(w, r)
			return
		}
		if _, err := verifier.Verify(r); err != nil {
			http.Error(w, err.Error(), http.StatusUnauthorized)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"decision":"` + decision + `","cache_ttl_seconds":0}`))
	}))
	t.Cleanup(srv.Close)
	return srv
}

func pairing(amURL string) pep.Pairing {
	return pep.Pairing{AMURL: amURL, PairingID: "pair-1", Secret: "s3cret", User: "bob"}
}

func TestCheckPermit(t *testing.T) {
	srv := fakeAM(t, "s3cret", "permit")
	e := New("webpics", nil)
	ok, err := e.Check(pairing(srv.URL), "alice", "app", "travel", "r", core.ActionRead)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
}

func TestCheckDeny(t *testing.T) {
	srv := fakeAM(t, "s3cret", "deny")
	e := New("webpics", nil)
	ok, err := e.Check(pairing(srv.URL), "mallory", "app", "travel", "r", core.ActionRead)
	if err != nil || ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
}

func TestCheckSignsRequests(t *testing.T) {
	// The fake AM rejects a wrong secret: Check must surface the failure.
	srv := fakeAM(t, "different-secret", "permit")
	e := New("webpics", nil)
	_, err := e.Check(pairing(srv.URL), "alice", "app", "travel", "r", core.ActionRead)
	if err == nil || !strings.Contains(err.Error(), "401") {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckTransportError(t *testing.T) {
	e := New("webpics", nil)
	p := pep.Pairing{AMURL: "http://127.0.0.1:1", PairingID: "x", Secret: "y"}
	if _, err := e.Check(p, "alice", "app", "travel", "r", core.ActionRead); err == nil {
		t.Fatal("no error for unreachable AM")
	}
}
