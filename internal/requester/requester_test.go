package requester

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"umac/internal/core"
	"umac/internal/pep"
	"umac/internal/webutil"
)

// fakeAM is a scriptable token endpoint.
type fakeAM struct {
	srv *httptest.Server
	// respond builds the token response for a request; a 403 is served as
	// the AM's structured access_denied envelope.
	respond    func(req core.TokenRequest) (int, core.TokenResponse)
	tokenCalls atomic.Int32
}

func newFakeAM(t *testing.T) *fakeAM {
	t.Helper()
	f := &fakeAM{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/token", func(w http.ResponseWriter, r *http.Request) {
		f.tokenCalls.Add(1)
		var req core.TokenRequest
		json.NewDecoder(r.Body).Decode(&req)
		status, resp := f.respond(req)
		if status == http.StatusForbidden {
			webutil.WriteAPIError(w, r, core.NewAPIError(core.CodeAccessDenied, "am: access denied"))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(resp)
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

// fakeHost answers 401 referrals until it sees the expected token.
type fakeHost struct {
	srv       *httptest.Server
	amURL     string
	wantToken string
	hits      atomic.Int32
	referrals atomic.Int32
}

func newFakeHost(t *testing.T, amURL, wantToken string) *fakeHost {
	t.Helper()
	h := &fakeHost{amURL: amURL, wantToken: wantToken}
	h.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.hits.Add(1)
		tok, ok := pep.ExtractToken(r)
		if !ok || tok != h.wantToken {
			h.referrals.Add(1)
			w.Header().Set(pep.HeaderAM, h.amURL)
			w.Header().Set(pep.HeaderHost, "fakehost")
			w.Header().Set(pep.HeaderRealm, "realm-1")
			w.Header().Set(pep.HeaderResource, "res-1")
			w.WriteHeader(http.StatusUnauthorized)
			return
		}
		w.Write([]byte("protected content"))
	}))
	t.Cleanup(h.srv.Close)
	return h
}

func TestFetchHappyPath(t *testing.T) {
	am := newFakeAM(t)
	am.respond = func(req core.TokenRequest) (int, core.TokenResponse) {
		if req.Requester != "app-1" || req.Subject != "alice" ||
			req.Host != "fakehost" || req.Realm != "realm-1" || req.Action != core.ActionRead {
			t.Errorf("token request = %+v", req)
		}
		return 200, core.TokenResponse{Token: "tok-good", Realm: req.Realm}
	}
	host := newFakeHost(t, am.srv.URL, "tok-good")
	c := New(Config{ID: "app-1", Subject: "alice"})
	body, err := c.Fetch(host.srv.URL+"/res-1", core.ActionRead)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "protected content" {
		t.Fatalf("body = %q", body)
	}
	if host.hits.Load() != 2 || host.referrals.Load() != 1 {
		t.Fatalf("hits=%d referrals=%d", host.hits.Load(), host.referrals.Load())
	}
}

func TestTokenCachedAcrossRequests(t *testing.T) {
	am := newFakeAM(t)
	am.respond = func(req core.TokenRequest) (int, core.TokenResponse) {
		return 200, core.TokenResponse{Token: "tok-good"}
	}
	host := newFakeHost(t, am.srv.URL, "tok-good")
	c := New(Config{ID: "app-1", Subject: "alice"})
	for i := 0; i < 3; i++ {
		if _, err := c.Fetch(host.srv.URL+"/res-1", core.ActionRead); err != nil {
			t.Fatal(err)
		}
	}
	if am.tokenCalls.Load() != 1 {
		t.Fatalf("token calls = %d, want 1", am.tokenCalls.Load())
	}
	// 1 tokenless + 1 retry + 2 direct = 4 host hits.
	if host.hits.Load() != 4 {
		t.Fatalf("host hits = %d", host.hits.Load())
	}
	c.ForgetTokens()
	if _, err := c.Fetch(host.srv.URL+"/res-1", core.ActionRead); err != nil {
		t.Fatal(err)
	}
	if am.tokenCalls.Load() != 2 {
		t.Fatalf("token calls after forget = %d", am.tokenCalls.Load())
	}
}

func TestDeniedSurfacesErrDenied(t *testing.T) {
	am := newFakeAM(t)
	am.respond = func(core.TokenRequest) (int, core.TokenResponse) {
		return 403, core.TokenResponse{}
	}
	host := newFakeHost(t, am.srv.URL, "never")
	c := New(Config{ID: "app-1", Subject: "mallory"})
	_, err := c.Fetch(host.srv.URL+"/res-1", core.ActionRead)
	if !errors.Is(err, ErrDenied) {
		t.Fatalf("err = %v", err)
	}
}

func TestTermsErrorSurfaced(t *testing.T) {
	am := newFakeAM(t)
	am.respond = func(core.TokenRequest) (int, core.TokenResponse) {
		return 202, core.TokenResponse{RequiredTerms: []string{"payment", "age"}}
	}
	host := newFakeHost(t, am.srv.URL, "never")
	c := New(Config{ID: "app-1", Subject: "carol"})
	_, err := c.Fetch(host.srv.URL+"/res-1", core.ActionRead)
	var terms *TermsError
	if !errors.As(err, &terms) {
		t.Fatalf("err = %v", err)
	}
	if len(terms.Terms) != 2 || terms.Terms[0] != "payment" {
		t.Fatalf("terms = %v", terms.Terms)
	}
}

func TestClaimsSentWithTokenRequest(t *testing.T) {
	am := newFakeAM(t)
	var got map[string]string
	am.respond = func(req core.TokenRequest) (int, core.TokenResponse) {
		got = req.Claims
		return 200, core.TokenResponse{Token: "tok-good"}
	}
	host := newFakeHost(t, am.srv.URL, "tok-good")
	c := New(Config{ID: "app-1", Subject: "carol", Claims: map[string]string{"payment": "r-1"}})
	c.SetClaim("tier", "gold")
	if _, err := c.Fetch(host.srv.URL+"/res-1", core.ActionRead); err != nil {
		t.Fatal(err)
	}
	if got["payment"] != "r-1" || got["tier"] != "gold" {
		t.Fatalf("claims = %v", got)
	}
}

func TestNonUMAC401PassedThrough(t *testing.T) {
	// A 401 without referral headers (e.g. basic-auth site) must be
	// returned to the caller untouched, not misinterpreted.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Www-Authenticate", "Basic realm=x")
		w.WriteHeader(http.StatusUnauthorized)
	}))
	defer srv.Close()
	c := New(Config{ID: "app-1"})
	resp, err := c.Get(srv.URL, core.ActionRead)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 401 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestPostReplaysBodyAfterTokenAcquisition(t *testing.T) {
	am := newFakeAM(t)
	am.respond = func(core.TokenRequest) (int, core.TokenResponse) {
		return 200, core.TokenResponse{Token: "tok-good"}
	}
	var received []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		buf := make([]byte, 64)
		n, _ := r.Body.Read(buf)
		received = append(received, string(buf[:n]))
		if tok, ok := pep.ExtractToken(r); !ok || tok != "tok-good" {
			w.Header().Set(pep.HeaderAM, am.srv.URL)
			w.Header().Set(pep.HeaderHost, "fakehost")
			w.Header().Set(pep.HeaderRealm, "realm-1")
			w.WriteHeader(http.StatusUnauthorized)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	c := New(Config{ID: "app-1", Subject: "alice"})
	resp, err := c.Post(srv.URL+"/res-1", "text/plain", []byte("payload"), core.ActionWrite)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(received) != 2 || received[0] != "payload" || received[1] != "payload" {
		t.Fatalf("received = %q (body must be replayed intact)", received)
	}
}

func TestObtainTokenTransportError(t *testing.T) {
	c := New(Config{ID: "app-1"})
	if _, err := c.ObtainToken("http://127.0.0.1:1", "h", "r", "res", core.ActionRead); err == nil {
		t.Fatal("no error for unreachable AM")
	}
}

func TestEmptyTokenResponseRejected(t *testing.T) {
	am := newFakeAM(t)
	am.respond = func(core.TokenRequest) (int, core.TokenResponse) {
		return 200, core.TokenResponse{} // malformed: neither token nor pending
	}
	c := New(Config{ID: "app-1"})
	if _, err := c.ObtainToken(am.srv.URL, "h", "r", "res", core.ActionRead); err == nil {
		t.Fatal("empty response accepted")
	}
}
