package am

import (
	"net/http"
	"testing"

	"umac/internal/core"
	"umac/internal/policy"
)

// TestHTTPConsentEndpoints drives the consent extension purely over HTTP:
// token request → 202 pending → owner lists and resolves the ticket →
// requester collects the token via /token/status.
func TestHTTPConsentEndpoints(t *testing.T) {
	f := newHTTPFixture(t)
	code, _ := f.am.ApprovePairing(core.PairingRequest{Host: "webpics", User: "bob"})
	pr, _ := f.am.ExchangeCode(code, "webpics")
	if _, err := f.am.RegisterRealm(pr.PairingID, core.ProtectRequest{Realm: "private"}); err != nil {
		t.Fatal(err)
	}
	p, _ := f.am.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:     policy.EffectPermit,
			Subjects:   []policy.Subject{{Type: policy.SubjectEveryone}},
			Conditions: []policy.Condition{{Type: policy.CondRequireConsent}},
		}},
	})
	if err := f.am.LinkGeneral("bob", "private", p.ID); err != nil {
		t.Fatal(err)
	}

	// Requester asks for a token: 202 with a consent ticket.
	resp := f.do(t, "", http.MethodPost, "/token", core.TokenRequest{
		Requester: "editor", Subject: "evelyn", Host: "webpics",
		Realm: "private", Resource: "diary", Action: core.ActionRead,
	})
	if resp.StatusCode != 202 {
		t.Fatalf("token status = %d", resp.StatusCode)
	}
	tr := decodeBody[core.TokenResponse](t, resp)
	if tr.PendingConsent == "" {
		t.Fatalf("resp = %+v", tr)
	}

	// Owner lists pending consents over HTTP.
	resp = f.do(t, "bob", http.MethodGet, "/consents", nil)
	pending := decodeBody[[]core.ConsentStatus](t, resp)
	if len(pending) != 1 || pending[0].Ticket != tr.PendingConsent {
		t.Fatalf("pending = %+v", pending)
	}
	// Mallory cannot resolve it.
	resp = f.do(t, "mallory", http.MethodPost, "/consents/"+tr.PendingConsent, map[string]bool{"approve": true})
	resp.Body.Close()
	if resp.StatusCode == 200 {
		t.Fatal("mallory resolved bob's consent")
	}
	// Bob approves over HTTP.
	resp = f.do(t, "bob", http.MethodPost, "/consents/"+tr.PendingConsent, map[string]bool{"approve": true})
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("resolve status = %d", resp.StatusCode)
	}
	// Requester collects the token.
	resp = f.do(t, "", http.MethodGet, "/token/status?ticket="+tr.PendingConsent, nil)
	st := decodeBody[core.ConsentStatus](t, resp)
	if !st.Resolved || !st.Approved || st.Token == "" {
		t.Fatalf("status = %+v", st)
	}
	// Bad body on resolve → 400.
	req, _ := http.NewRequest(http.MethodPost, f.srv.URL+"/v1/consents/x", nil)
	req.Header.Set("X-Umac-User", "bob")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != 400 {
		t.Fatalf("empty resolve body = %d", r2.StatusCode)
	}
}

// TestHTTPCustodianListAndAccessors covers the remaining read paths.
func TestHTTPCustodianListAndAccessors(t *testing.T) {
	f := newHTTPFixture(t)
	f.do(t, "bob", http.MethodPost, "/custodians", map[string]string{"custodian": "carol"}).Body.Close()
	resp := f.do(t, "bob", http.MethodGet, "/custodians", nil)
	if got := decodeBody[[]core.UserID](t, resp); len(got) != 1 || got[0] != "carol" {
		t.Fatalf("custodians = %v", got)
	}
	if f.am.Name() != "am" {
		t.Fatalf("Name() = %q", f.am.Name())
	}
	if f.am.BaseURL() == "" {
		t.Fatal("BaseURL empty")
	}
	if f.am.Store() == nil {
		t.Fatal("Store nil")
	}
}
