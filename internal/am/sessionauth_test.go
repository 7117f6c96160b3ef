package am

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"umac/internal/identity"
	"umac/internal/policy"
)

// TestAMWithCookieSessionAuth wires the AM to the identity substrate the
// way a real deployment would replace the header shim: users authenticate
// at the IdP, exchange the assertion for a session cookie at the AM, and
// manage policies under that cookie. This proves the paper's "authentication
// is pluggable" assumption holds for our Authenticator seam (Section V.B:
// "a User could authenticate to a Host using OpenID or Google Account
// credentials").
func TestAMWithCookieSessionAuth(t *testing.T) {
	idp := identity.NewProvider(0)
	idp.Register("bob", "hunter2")
	sessions := identity.NewSessions(idp)

	a := New(Config{Name: "am", Auth: sessions})
	// A login endpoint in front of the AM exchanges a verified assertion
	// for a session cookie (deployment glue, not protocol).
	mux := http.NewServeMux()
	mux.Handle("/", a.Handler())
	mux.HandleFunc("POST /session", func(w http.ResponseWriter, r *http.Request) {
		if _, err := sessions.Establish(w, r.FormValue("assertion")); err != nil {
			http.Error(w, err.Error(), http.StatusUnauthorized)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	a.SetBaseURL(srv.URL)

	// Anonymous policy creation is refused.
	body, _ := json.Marshal(policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{Effect: policy.EffectPermit, Subjects: []policy.Subject{{Type: policy.SubjectEveryone}}}},
	})
	resp, err := http.Post(srv.URL+"/v1/policies", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 401 {
		t.Fatalf("anonymous create = %d", resp.StatusCode)
	}

	// Bob logs in at the IdP and establishes an AM session.
	assertion, err := idp.Login("bob", "hunter2")
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/session?assertion="+assertion, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 204 {
		t.Fatalf("session status = %d", resp.StatusCode)
	}
	cookies := resp.Cookies()
	if len(cookies) != 1 {
		t.Fatalf("cookies = %d", len(cookies))
	}

	// With the cookie, the same create succeeds and is owned by bob.
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/policies", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.AddCookie(cookies[0])
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 201 {
		t.Fatalf("cookie create = %d", resp.StatusCode)
	}
	var created policy.Policy
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	if created.Owner != "bob" {
		t.Fatalf("owner = %s", created.Owner)
	}
	// Wrong password never yields a session.
	if _, err := idp.Login("bob", "wrong"); err == nil {
		t.Fatal("bad password accepted")
	}
}
