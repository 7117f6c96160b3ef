package am

import (
	"encoding/json"
	"errors"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"umac/internal/core"
	"umac/internal/policy"
	"umac/internal/store"
)

// grantContextFixture pairs webpics to bob and protects two realms: "shop",
// whose policy needs a "payment" claim, and "private", whose policy needs
// the owner's consent.
func grantContextFixture(t *testing.T, a *AM) core.PairingResponse {
	t.Helper()
	pairing := pairHost(t, a, "webpics", "bob")
	for realm, cond := range map[core.RealmID]policy.Condition{
		"shop":    {Type: policy.CondRequireClaim, Claim: "payment"},
		"private": {Type: policy.CondRequireConsent},
	} {
		protectRealm(t, a, pairing.PairingID, realm)
		p, err := a.CreatePolicy("bob", policy.Policy{
			Owner: "bob", Kind: policy.KindGeneral,
			Rules: []policy.Rule{{
				Effect:     policy.EffectPermit,
				Subjects:   []policy.Subject{{Type: policy.SubjectEveryone}},
				Conditions: []policy.Condition{cond},
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.LinkGeneral("bob", realm, p.ID); err != nil {
			t.Fatal(err)
		}
	}
	return pairing
}

// issueGrantTokens mints a claim-conditioned token for "shop" and, through
// the owner's approval, a consented token for "private".
func issueGrantTokens(t *testing.T, a *AM) (paid, consented string) {
	t.Helper()
	resp, err := a.IssueToken(core.TokenRequest{
		Requester: "printshop", Subject: "alice", Host: "webpics", Realm: "shop",
		Resource: "print-1", Action: core.ActionRead, Claims: map[string]string{"payment": "rcpt-42"},
	})
	if err != nil || resp.Token == "" {
		t.Fatalf("claim token: resp=%+v err=%v", resp, err)
	}
	paid = resp.Token
	resp, err = a.IssueToken(core.TokenRequest{
		Requester: "browser", Subject: "alice", Host: "webpics", Realm: "private",
		Resource: "diary", Action: core.ActionRead,
	})
	if err != nil || resp.PendingConsent == "" {
		t.Fatalf("consent ticket: resp=%+v err=%v", resp, err)
	}
	if err := a.ResolveConsent("bob", resp.PendingConsent, true); err != nil {
		t.Fatal(err)
	}
	st, err := a.ConsentStatus(resp.PendingConsent)
	if err != nil || st.Token == "" {
		t.Fatalf("consented token: status=%+v err=%v", st, err)
	}
	return paid, st.Token
}

// TestIssueTokenStoresNoGrant: a permit, with or without consent, writes
// nothing to the store; the token carries the grant context.
func TestIssueTokenStoresNoGrant(t *testing.T) {
	a, _ := newTestAM(t)
	grantContextFixture(t, a)
	before := a.Store().Kinds()
	issueGrantTokens(t, a)
	if got := a.Store().Kinds(); !slices.Equal(got, before) || slices.Contains(got, "grant") {
		t.Fatalf("store kinds after issuing = %v, before = %v", got, before)
	}
}

// TestGrantContextDecidesOnSecondAM: an AM that shares only the token key
// and the realm/policy state, and never saw the token requests, permits a
// claim-conditioned and a consented token.
func TestGrantContextDecidesOnSecondAM(t *testing.T) {
	key := []byte("shared-master-key-0123456789abcd")
	st := store.New()
	a1 := New(Config{Name: "am-1", Store: st, TokenKey: key})
	defer a1.Close()
	pairing := grantContextFixture(t, a1)

	path := filepath.Join(t.TempDir(), "state.json")
	if err := st.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	a2 := New(Config{Name: "am-2", Store: st2, TokenKey: key})
	defer a2.Close()

	paid, consented := issueGrantTokens(t, a1)
	for _, c := range []struct {
		realm    core.RealmID
		resource core.ResourceID
		tok      string
	}{{"shop", "print-1", paid}, {"private", "diary", consented}} {
		dec, err := a2.Decide(pairing.PairingID, core.DecisionQuery{
			Host: "webpics", Realm: c.realm, Resource: c.resource,
			Action: core.ActionRead, Token: c.tok,
		})
		if err != nil || !dec.Permit() {
			t.Errorf("%s on the second AM: dec=%+v err=%v", c.realm, dec, err)
		}
	}
}

// TestIssueTokenClaimCap: claims that encode to maxClaimBytes are signed
// into a token no longer than a Host memoises (2 048 bytes) even with
// 64-byte identifiers, and one byte more is refused with 400 bad_request.
func TestIssueTokenClaimCap(t *testing.T) {
	f := newHTTPFixture(t)
	id := func(c byte) string { return strings.Repeat(string(c), 64) }
	host, realm := core.HostID(id('h')), core.RealmID(id('r'))
	code, err := f.am.ApprovePairing(core.PairingRequest{Host: host, User: "bob"})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := f.am.ExchangeCode(code, host)
	if err != nil {
		t.Fatal(err)
	}
	protectRealm(t, f.am, pr.PairingID, realm)
	p, err := f.am.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:     policy.EffectPermit,
			Subjects:   []policy.Subject{{Type: policy.SubjectEveryone}},
			Conditions: []policy.Condition{{Type: policy.CondRequireClaim, Claim: "payment"}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.am.LinkGeneral("bob", realm, p.ID); err != nil {
		t.Fatal(err)
	}

	claims := func(size int) map[string]string {
		empty, _ := json.Marshal(map[string]string{"payment": ""})
		c := map[string]string{"payment": strings.Repeat("x", size-len(empty))}
		if b, _ := json.Marshal(c); len(b) != size {
			t.Fatalf("claims encode to %d bytes, want %d", len(b), size)
		}
		return c
	}
	req := core.TokenRequest{
		Requester: core.RequesterID(id('q')), Subject: core.UserID(id('s')), Host: host, Realm: realm,
		Resource: "print-1", Action: core.ActionRead, Claims: claims(maxClaimBytes),
	}
	resp := f.do(t, "", http.MethodPost, "/token", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("at the cap: status %d", resp.StatusCode)
	}
	tr := decodeBody[core.TokenResponse](t, resp)
	if len(tr.Token) > 2048 {
		t.Fatalf("token at the claim cap is %d bytes, over 2048", len(tr.Token))
	}
	dec, err := f.am.Decide(pr.PairingID, core.DecisionQuery{
		Host: host, Realm: realm, Resource: "print-1", Action: core.ActionRead, Token: tr.Token,
	})
	if err != nil || !dec.Permit() {
		t.Fatalf("token at the cap: dec=%+v err=%v", dec, err)
	}

	req.Claims = claims(maxClaimBytes + 1)
	resp = f.do(t, "", http.MethodPost, "/token", req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over the cap: status %d", resp.StatusCode)
	}
	var ae *core.APIError
	if _, err := f.am.IssueToken(req); !errors.As(err, &ae) || ae.Code != core.CodeBadRequest {
		t.Fatalf("over the cap in process: err = %v", err)
	}
}
