package umastate

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"umac/internal/core"
	"umac/internal/httpsig"
	"umac/internal/pep"
)

// fakeAM scripts the token route, which grants the handle "tok-1" or
// refuses, and the signed decision route, which answers decision for that
// handle and deny for any other.
func fakeAM(t *testing.T, grantState bool, decision string) *httptest.Server {
	t.Helper()
	verifier := httpsig.NewVerifier(httpsig.SecretSourceFunc(func(string) (string, bool) {
		return "s3cret", true
	}))
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/token", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if !grantState {
			w.WriteHeader(http.StatusForbidden)
			json.NewEncoder(w).Encode(core.NewAPIError(core.CodeAccessDenied, "no rule permits"))
			return
		}
		json.NewEncoder(w).Encode(core.TokenResponse{Token: "tok-1", Realm: "travel"})
	})
	mux.HandleFunc("POST /v1/api/decision", func(w http.ResponseWriter, r *http.Request) {
		if _, err := verifier.Verify(r); err != nil {
			http.Error(w, err.Error(), http.StatusUnauthorized)
			return
		}
		var q core.DecisionQuery
		json.NewDecoder(r.Body).Decode(&q)
		d := decision
		if q.Token != "tok-1" {
			d = "deny"
		}
		w.Write([]byte(`{"decision":"` + d + `"}`))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestEstablishAndCheck(t *testing.T) {
	srv := fakeAM(t, true, "permit")
	rc := &RequesterClient{ID: "app", Subject: "alice"}
	handle, err := rc.Establish(srv.URL, "webpics", "travel", "r", core.ActionRead)
	if err != nil || handle != "tok-1" {
		t.Fatalf("handle=%q err=%v", handle, err)
	}
	e := New("webpics", nil)
	p := pep.Pairing{AMURL: srv.URL, PairingID: "pair", Secret: "s3cret"}
	ok, err := e.Check(p, handle, "travel", "r", core.ActionRead)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	// Unknown handle denies.
	ok, err = e.Check(p, "state-bogus", "travel", "r", core.ActionRead)
	if err != nil || ok {
		t.Fatalf("forged: ok=%v err=%v", ok, err)
	}
}

func TestEstablishDenied(t *testing.T) {
	srv := fakeAM(t, false, "deny")
	rc := &RequesterClient{ID: "app", Subject: "mallory"}
	_, err := rc.Establish(srv.URL, "webpics", "travel", "r", core.ActionRead)
	if !errors.Is(err, core.ErrAccessDenied) {
		t.Fatalf("err = %v", err)
	}
}

// TestEstablishOtherErrorIsNoDenial: an AM error other than
// access_denied (here an unknown realm) is a failure, not a refusal.
func TestEstablishOtherErrorIsNoDenial(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(core.NewAPIError(core.CodeUnknownRealm, "realm ghosts"))
	}))
	t.Cleanup(srv.Close)
	rc := &RequesterClient{ID: "app", Subject: "alice"}
	_, err := rc.Establish(srv.URL, "webpics", "ghosts", "r", core.ActionRead)
	if err == nil || errors.Is(err, core.ErrAccessDenied) {
		t.Fatalf("err = %v, want an error that is not a denial", err)
	}
}

func TestCheckTransportError(t *testing.T) {
	e := New("webpics", nil)
	p := pep.Pairing{AMURL: "http://127.0.0.1:1", PairingID: "x", Secret: "y"}
	if _, err := e.Check(p, "h", "travel", "r", core.ActionRead); err == nil {
		t.Fatal("no error for unreachable AM")
	}
}

func TestEstablishTransportError(t *testing.T) {
	rc := &RequesterClient{ID: "app"}
	if _, err := rc.Establish("http://127.0.0.1:1", "h", "r", "res", core.ActionRead); err == nil {
		t.Fatal("no error for unreachable AM")
	}
}
