package pullmodel

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"umac/internal/core"
	"umac/internal/pep"
)

// fakeAM scripts the token route: it answers status and body to a token
// request that carries the identities the Host observed.
func fakeAM(t *testing.T, status int, body any) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/token", func(w http.ResponseWriter, r *http.Request) {
		var req core.TokenRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil ||
			req.Host != "webpics" || req.Subject == "" || req.Requester == "" {
			http.Error(w, "query lacks the observed identities", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(body)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func pairing(amURL string) pep.Pairing {
	return pep.Pairing{AMURL: amURL, PairingID: "pair-1", Secret: "s3cret", User: "bob"}
}

func TestCheckPermit(t *testing.T) {
	srv := fakeAM(t, http.StatusOK, core.TokenResponse{Token: "tok-1", Realm: "travel"})
	e := New("webpics", nil)
	ok, err := e.Check(pairing(srv.URL), "alice", "app", "travel", "r", core.ActionRead)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
}

func TestCheckDeny(t *testing.T) {
	e := New("webpics", nil)
	for name, srv := range map[string]*httptest.Server{
		"denied":  fakeAM(t, http.StatusForbidden, core.NewAPIError(core.CodeAccessDenied, "no rule permits")),
		"pending": fakeAM(t, http.StatusAccepted, core.TokenResponse{PendingConsent: "ticket-1"}),
	} {
		ok, err := e.Check(pairing(srv.URL), "mallory", "app", "travel", "r", core.ActionRead)
		if err != nil || ok {
			t.Fatalf("%s: ok=%v err=%v", name, ok, err)
		}
	}
}

func TestCheckTransportError(t *testing.T) {
	e := New("webpics", nil)
	p := pep.Pairing{AMURL: "http://127.0.0.1:1", PairingID: "x", Secret: "y"}
	if _, err := e.Check(p, "alice", "app", "travel", "r", core.ActionRead); err == nil {
		t.Fatal("no error for unreachable AM")
	}
}
