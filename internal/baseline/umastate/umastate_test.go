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

// fakeAM scripts the /state and /api/decision/state endpoints.
func fakeAM(t *testing.T, grantState bool, decision string) *httptest.Server {
	t.Helper()
	verifier := httpsig.NewVerifier(httpsig.SecretSourceFunc(func(string) (string, bool) {
		return "s3cret", true
	}))
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/state", func(w http.ResponseWriter, r *http.Request) {
		var req core.TokenRequest
		json.NewDecoder(r.Body).Decode(&req)
		if !grantState {
			http.Error(w, `{"error":"denied"}`, http.StatusForbidden)
			return
		}
		json.NewEncoder(w).Encode(map[string]string{"handle": "state-1"})
	})
	mux.HandleFunc("POST /v1/api/decision/state", func(w http.ResponseWriter, r *http.Request) {
		if _, err := verifier.Verify(r); err != nil {
			http.Error(w, err.Error(), http.StatusUnauthorized)
			return
		}
		var req struct {
			Handle string `json:"handle"`
		}
		json.NewDecoder(r.Body).Decode(&req)
		d := decision
		if req.Handle != "state-1" {
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
	handle, err := rc.EstablishState(srv.URL, "webpics", "travel", "r", core.ActionRead)
	if err != nil || handle != "state-1" {
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
	_, err := rc.EstablishState(srv.URL, "webpics", "travel", "r", core.ActionRead)
	if !errors.Is(err, core.ErrAccessDenied) {
		t.Fatalf("err = %v", err)
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
	if _, err := rc.EstablishState("http://127.0.0.1:1", "h", "r", "res", core.ActionRead); err == nil {
		t.Fatal("no error for unreachable AM")
	}
}
