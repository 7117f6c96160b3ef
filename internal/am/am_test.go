package am

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"umac/internal/audit"
	"umac/internal/core"
	"umac/internal/policy"
	"umac/internal/store"
)

// newTestAM builds an AM with an outbox notifier and returns both.
func newTestAM(t *testing.T) (*AM, *Outbox) {
	t.Helper()
	outbox := &Outbox{}
	a := New(Config{Name: "testam", BaseURL: "http://am.test", Notifier: outbox})
	return a, outbox
}

// pairHost runs the Fig. 3 flow directly against the AM core.
func pairHost(t *testing.T, a *AM, host core.HostID, user core.UserID) core.PairingResponse {
	t.Helper()
	code, err := a.ApprovePairing(core.PairingRequest{
		Host: host, HostName: string(host), HostURL: "http://" + string(host), User: user,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := a.ExchangeCode(code, host)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// protectRealm registers a realm under a pairing.
func protectRealm(t *testing.T, a *AM, pairingID string, realm core.RealmID, resources ...core.ResourceID) {
	t.Helper()
	_, err := a.RegisterRealm(pairingID, core.ProtectRequest{Realm: realm, Resources: resources})
	if err != nil {
		t.Fatal(err)
	}
}

// friendsReadPolicy creates and links a general policy permitting the
// owner's "friends" group to read.
func friendsReadPolicy(t *testing.T, a *AM, owner core.UserID, realm core.RealmID) core.PolicyID {
	t.Helper()
	p, err := a.CreatePolicy(owner, policy.Policy{
		Owner: owner, Name: "friends-read", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:   policy.EffectPermit,
			Subjects: []policy.Subject{{Type: policy.SubjectGroup, Name: "friends"}, {Type: policy.SubjectOwner}},
			Actions:  []core.Action{core.ActionRead, core.ActionList},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.LinkGeneral(owner, realm, p.ID); err != nil {
		t.Fatal(err)
	}
	return p.ID
}

func TestPairingFlow(t *testing.T) {
	a, _ := newTestAM(t)
	resp := pairHost(t, a, "webpics", "bob")
	if resp.PairingID == "" || resp.Secret == "" {
		t.Fatalf("incomplete pairing: %+v", resp)
	}
	if resp.User != "bob" || resp.AM != "http://am.test" {
		t.Fatalf("pairing metadata: %+v", resp)
	}
	secret, ok := a.PairingSecret(resp.PairingID)
	if !ok || secret != resp.Secret {
		t.Fatal("PairingSecret mismatch")
	}
	p, err := a.GetPairing(resp.PairingID)
	if err != nil || p.Host != "webpics" || p.Scope != core.PairingScopeUser {
		t.Fatalf("pairing = %+v err=%v", p, err)
	}
}

func TestExchangeCodeSingleUse(t *testing.T) {
	a, _ := newTestAM(t)
	code, _ := a.ApprovePairing(core.PairingRequest{Host: "webpics", User: "bob"})
	if _, err := a.ExchangeCode(code, "webpics"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ExchangeCode(code, "webpics"); err == nil {
		t.Fatal("code exchanged twice")
	}
}

func TestExchangeCodeHostMismatch(t *testing.T) {
	a, _ := newTestAM(t)
	code, _ := a.ApprovePairing(core.PairingRequest{Host: "webpics", User: "bob"})
	if _, err := a.ExchangeCode(code, "evilhost"); err == nil {
		t.Fatal("code exchanged by wrong host")
	}
	// Consumed: the rightful host cannot use it any more either.
	if _, err := a.ExchangeCode(code, "webpics"); err == nil {
		t.Fatal("code survived mismatch attempt")
	}
}

func TestApprovePairingValidation(t *testing.T) {
	a, _ := newTestAM(t)
	if _, err := a.ApprovePairing(core.PairingRequest{User: "bob"}); err == nil {
		t.Fatal("pairing without host accepted")
	}
	if _, err := a.ApprovePairing(core.PairingRequest{Host: "h"}); err == nil {
		t.Fatal("pairing without user accepted")
	}
}

func TestRevokePairing(t *testing.T) {
	a, _ := newTestAM(t)
	resp := pairHost(t, a, "webpics", "bob")
	if err := a.RevokePairing(resp.PairingID); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.PairingSecret(resp.PairingID); ok {
		t.Fatal("revoked pairing still verifies")
	}
	if err := a.RevokePairing("pair-ghost"); err == nil {
		t.Fatal("revoked nonexistent pairing")
	}
}

func TestPairingsList(t *testing.T) {
	a, _ := newTestAM(t)
	pairHost(t, a, "webpics", "bob")
	pairHost(t, a, "webdocs", "bob")
	pairHost(t, a, "webpics", "alice")
	if got := len(a.Pairings("bob")); got != 2 {
		t.Fatalf("bob pairings = %d", got)
	}
	if got := len(a.Pairings("alice")); got != 1 {
		t.Fatalf("alice pairings = %d", got)
	}
}

func TestRegisterRealmAndLookup(t *testing.T) {
	a, _ := newTestAM(t)
	resp := pairHost(t, a, "webpics", "bob")
	protectRealm(t, a, resp.PairingID, "travel", "photo-1", "photo-2")
	r, err := a.LookupRealm("webpics", "travel")
	if err != nil {
		t.Fatal(err)
	}
	if r.Owner != "bob" || len(r.Resources) != 2 {
		t.Fatalf("realm = %+v", r)
	}
	if _, err := a.LookupRealm("webpics", "nope"); !errors.Is(err, core.ErrUnknownRealm) {
		t.Fatalf("err = %v", err)
	}
}

func TestRegisterRealmRequiresRealm(t *testing.T) {
	a, _ := newTestAM(t)
	resp := pairHost(t, a, "webpics", "bob")
	if _, err := a.RegisterRealm(resp.PairingID, core.ProtectRequest{}); err == nil {
		t.Fatal("empty realm accepted")
	}
	if _, err := a.RegisterRealm("pair-bogus", core.ProtectRequest{Realm: "x"}); err == nil {
		t.Fatal("unknown pairing accepted")
	}
}

func TestPolicyCRUD(t *testing.T) {
	a, _ := newTestAM(t)
	p, err := a.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Name: "x", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{Effect: policy.EffectPermit, Subjects: []policy.Subject{{Type: policy.SubjectEveryone}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.ID == "" {
		t.Fatal("no ID assigned")
	}
	got, err := a.GetPolicy(p.ID)
	if err != nil || got.Name != "x" {
		t.Fatalf("get: %+v %v", got, err)
	}

	got.Name = "renamed"
	if err := a.UpdatePolicy("bob", got); err != nil {
		t.Fatal(err)
	}
	got, _ = a.GetPolicy(p.ID)
	if got.Name != "renamed" {
		t.Fatal("update lost")
	}

	if n := len(a.ListPolicies("bob")); n != 1 {
		t.Fatalf("list = %d", n)
	}
	if err := a.DeletePolicy("bob", p.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := a.GetPolicy(p.ID); err == nil {
		t.Fatal("policy survived delete")
	}
}

func TestPolicyManagementAuthorization(t *testing.T) {
	a, _ := newTestAM(t)
	p, err := a.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{Effect: policy.EffectPermit, Subjects: []policy.Subject{{Type: policy.SubjectEveryone}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Mallory cannot create, update or delete bob's policies.
	if _, err := a.CreatePolicy("mallory", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{Effect: policy.EffectPermit, Subjects: []policy.Subject{{Type: policy.SubjectEveryone}}}},
	}); err == nil {
		t.Fatal("mallory created bob's policy")
	}
	if err := a.UpdatePolicy("mallory", p); err == nil {
		t.Fatal("mallory updated bob's policy")
	}
	if err := a.DeletePolicy("mallory", p.ID); err == nil {
		t.Fatal("mallory deleted bob's policy")
	}
}

func TestCustodianCanManage(t *testing.T) {
	a, _ := newTestAM(t)
	if a.CanManage("bob", "carol") {
		t.Fatal("non-custodian can manage")
	}
	if err := a.AddCustodian("bob", "carol"); err != nil {
		t.Fatal(err)
	}
	if !a.CanManage("bob", "carol") {
		t.Fatal("custodian cannot manage")
	}
	// Custodian composes a policy for bob.
	p, err := a.CreatePolicy("carol", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{Effect: policy.EffectPermit, Subjects: []policy.Subject{{Type: policy.SubjectEveryone}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Owner != "bob" {
		t.Fatalf("owner = %s", p.Owner)
	}
	if err := a.RemoveCustodian("bob", "carol"); err != nil {
		t.Fatal(err)
	}
	if a.CanManage("bob", "carol") {
		t.Fatal("removed custodian can still manage")
	}
	// Idempotent add.
	a.AddCustodian("bob", "dave")
	a.AddCustodian("bob", "dave")
	if got := a.Custodians("bob"); len(got) != 1 {
		t.Fatalf("custodians = %v", got)
	}
}

func TestLinkValidation(t *testing.T) {
	a, _ := newTestAM(t)
	gen, _ := a.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{Effect: policy.EffectPermit, Subjects: []policy.Subject{{Type: policy.SubjectEveryone}}}},
	})
	spec, _ := a.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindSpecific,
		Rules: []policy.Rule{{Effect: policy.EffectDeny, Subjects: []policy.Subject{{Type: policy.SubjectEveryone}}}},
	})
	// Kind mismatches rejected.
	if err := a.LinkGeneral("bob", "travel", spec.ID); err == nil {
		t.Fatal("linked specific policy as general")
	}
	if err := a.LinkSpecific("bob", "webpics", "p1", gen.ID); err == nil {
		t.Fatal("linked general policy as specific")
	}
	// Ownership enforced.
	if err := a.LinkGeneral("alice", "travel", gen.ID); err == nil {
		t.Fatal("linked someone else's policy")
	}
	// Unknown policy rejected.
	if err := a.LinkGeneral("bob", "travel", "pol-ghost"); err == nil {
		t.Fatal("linked unknown policy")
	}
	// Valid links succeed and unlink works.
	if err := a.LinkGeneral("bob", "travel", gen.ID); err != nil {
		t.Fatal(err)
	}
	if err := a.LinkSpecific("bob", "webpics", "p1", spec.ID); err != nil {
		t.Fatal(err)
	}
	if err := a.UnlinkGeneral("bob", "travel"); err != nil {
		t.Fatal(err)
	}
	if err := a.UnlinkSpecific("bob", "webpics", "p1"); err != nil {
		t.Fatal(err)
	}
}

func TestGroupsPersistAcrossRestart(t *testing.T) {
	st := store.New()
	a := New(Config{Name: "am1", Store: st})
	if err := a.AddGroupMember("bob", "bob", "friends", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := a.AddGroupMember("bob", "bob", "friends", "chris"); err != nil {
		t.Fatal(err)
	}
	// Rebuild an AM over the same store — the directory must be rebuilt.
	a2 := New(Config{Name: "am2", Store: st})
	if got := a2.GroupMembers("bob", "friends"); len(got) != 2 {
		t.Fatalf("members after restart = %v", got)
	}
	if !a2.groups.Member("bob", "friends", "alice") {
		t.Fatal("membership lost")
	}
	// Removal persists too.
	if err := a2.RemoveGroupMember("bob", "bob", "friends", "alice"); err != nil {
		t.Fatal(err)
	}
	a3 := New(Config{Name: "am3", Store: st})
	if a3.groups.Member("bob", "friends", "alice") {
		t.Fatal("removed member survived restart")
	}
}

func TestGroupManagementAuthorization(t *testing.T) {
	a, _ := newTestAM(t)
	if err := a.AddGroupMember("mallory", "bob", "friends", "mallory"); err == nil {
		t.Fatal("mallory edited bob's groups")
	}
	if err := a.AddGroupMember("bob", "bob", "", "alice"); err == nil {
		t.Fatal("empty group name accepted")
	}
}

// setupProtected wires the standard fixture: bob pairs webpics, protects
// realm "travel" containing photo-1, and links a friends-read policy.
// Returns the pairing.
func setupProtected(t *testing.T, a *AM) core.PairingResponse {
	t.Helper()
	resp := pairHost(t, a, "webpics", "bob")
	protectRealm(t, a, resp.PairingID, "travel", "photo-1")
	friendsReadPolicy(t, a, "bob", "travel")
	if err := a.AddGroupMember("bob", "bob", "friends", "alice"); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestIssueTokenPermit(t *testing.T) {
	a, _ := newTestAM(t)
	setupProtected(t, a)
	resp, err := a.IssueToken(core.TokenRequest{
		Requester: "browser", Subject: "alice", Host: "webpics",
		Realm: "travel", Resource: "photo-1", Action: core.ActionRead,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Token == "" || resp.Pending() {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Realm != "travel" {
		t.Fatalf("realm = %s", resp.Realm)
	}
}

func TestIssueTokenDeny(t *testing.T) {
	a, _ := newTestAM(t)
	setupProtected(t, a)
	_, err := a.IssueToken(core.TokenRequest{
		Requester: "browser", Subject: "mallory", Host: "webpics",
		Realm: "travel", Resource: "photo-1", Action: core.ActionRead,
	})
	if !errors.Is(err, core.ErrAccessDenied) {
		t.Fatalf("err = %v", err)
	}
	// The refusal is audited.
	events := a.Audit().Query(audit.Filter{Owner: "bob", Type: audit.EventTokenRefused})
	if len(events) != 1 {
		t.Fatalf("refusal events = %d", len(events))
	}
}

func TestIssueTokenUnknownRealm(t *testing.T) {
	a, _ := newTestAM(t)
	setupProtected(t, a)
	_, err := a.IssueToken(core.TokenRequest{
		Requester: "browser", Subject: "alice", Host: "webpics",
		Realm: "ghosts", Resource: "photo-1", Action: core.ActionRead,
	})
	if !errors.Is(err, core.ErrUnknownRealm) {
		t.Fatalf("err = %v", err)
	}
}

func TestIssueTokenNoPolicyLinkedDenies(t *testing.T) {
	a, _ := newTestAM(t)
	resp := pairHost(t, a, "webpics", "bob")
	protectRealm(t, a, resp.PairingID, "bare")
	_, err := a.IssueToken(core.TokenRequest{
		Requester: "browser", Subject: "alice", Host: "webpics",
		Realm: "bare", Resource: "r1", Action: core.ActionRead,
	})
	if !errors.Is(err, core.ErrAccessDenied) {
		t.Fatalf("deny-biased default violated: %v", err)
	}
}

func TestDecideFullPath(t *testing.T) {
	a, _ := newTestAM(t)
	pairing := setupProtected(t, a)
	tok, err := a.IssueToken(core.TokenRequest{
		Requester: "browser", Subject: "alice", Host: "webpics",
		Realm: "travel", Resource: "photo-1", Action: core.ActionRead,
	})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := a.Decide(pairing.PairingID, core.DecisionQuery{
		Host: "webpics", Realm: "travel", Resource: "photo-1",
		Action: core.ActionRead, Token: tok.Token,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Permit() {
		t.Fatalf("decision = %+v", dec)
	}
	if dec.CacheTTLSeconds != int(DefaultDecisionCacheTTL/time.Second) {
		t.Fatalf("ttl = %d", dec.CacheTTLSeconds)
	}
	// A decision audit event exists.
	if n := len(a.Audit().Query(audit.Filter{Owner: "bob", Type: audit.EventDecision})); n != 1 {
		t.Fatalf("decision events = %d", n)
	}
}

func TestDecideDenyForWrongAction(t *testing.T) {
	a, _ := newTestAM(t)
	pairing := setupProtected(t, a)
	tok, _ := a.IssueToken(core.TokenRequest{
		Requester: "browser", Subject: "alice", Host: "webpics",
		Realm: "travel", Resource: "photo-1", Action: core.ActionRead,
	})
	dec, err := a.Decide(pairing.PairingID, core.DecisionQuery{
		Host: "webpics", Realm: "travel", Resource: "photo-1",
		Action: core.ActionDelete, Token: tok.Token, // policy only grants read/list
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Permit() {
		t.Fatal("delete permitted by read-only policy")
	}
}

func TestDecideRejectsGarbageToken(t *testing.T) {
	a, _ := newTestAM(t)
	pairing := setupProtected(t, a)
	dec, err := a.Decide(pairing.PairingID, core.DecisionQuery{
		Host: "webpics", Realm: "travel", Resource: "photo-1",
		Action: core.ActionRead, Token: "garbage",
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Permit() {
		t.Fatal("garbage token permitted")
	}
	if dec.CacheTTLSeconds != 0 {
		t.Fatal("token-problem denials must not be cacheable")
	}
}

func TestDecideRejectsCrossRealmToken(t *testing.T) {
	a, _ := newTestAM(t)
	pairing := setupProtected(t, a)
	// Protect a second realm with an open policy and mint a token for it.
	protectRealm(t, a, pairing.PairingID, "public", "pub-1")
	open, _ := a.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{Effect: policy.EffectPermit, Subjects: []policy.Subject{{Type: policy.SubjectEveryone}}}},
	})
	a.LinkGeneral("bob", "public", open.ID)
	tok, err := a.IssueToken(core.TokenRequest{
		Requester: "browser", Subject: "mallory", Host: "webpics",
		Realm: "public", Resource: "pub-1", Action: core.ActionRead,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Use the public-realm token against the protected travel realm.
	dec, err := a.Decide(pairing.PairingID, core.DecisionQuery{
		Host: "webpics", Realm: "travel", Resource: "photo-1",
		Action: core.ActionRead, Token: tok.Token,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Permit() {
		t.Fatal("cross-realm token accepted — violates Section V.B.3 binding")
	}
}

func TestDecidePairingHostMismatch(t *testing.T) {
	a, _ := newTestAM(t)
	setupProtected(t, a)
	other := pairHost(t, a, "webdocs", "bob")
	tok, _ := a.IssueToken(core.TokenRequest{
		Requester: "browser", Subject: "alice", Host: "webpics",
		Realm: "travel", Resource: "photo-1", Action: core.ActionRead,
	})
	// webdocs' pairing cannot query for webpics.
	if _, err := a.Decide(other.PairingID, core.DecisionQuery{
		Host: "webpics", Realm: "travel", Resource: "photo-1",
		Action: core.ActionRead, Token: tok.Token,
	}); err == nil {
		t.Fatal("cross-host decision query accepted")
	}
}

func TestDecideCacheTTLFromPolicy(t *testing.T) {
	a, _ := newTestAM(t)
	pairing := pairHost(t, a, "webpics", "bob")
	protectRealm(t, a, pairing.PairingID, "travel", "photo-1")
	p, _ := a.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral, CacheTTLSeconds: -1, // never cache
		Rules: []policy.Rule{{Effect: policy.EffectPermit, Subjects: []policy.Subject{{Type: policy.SubjectEveryone}}}},
	})
	a.LinkGeneral("bob", "travel", p.ID)
	tok, _ := a.IssueToken(core.TokenRequest{
		Requester: "browser", Subject: "alice", Host: "webpics",
		Realm: "travel", Resource: "photo-1", Action: core.ActionRead,
	})
	dec, err := a.Decide(pairing.PairingID, core.DecisionQuery{
		Host: "webpics", Realm: "travel", Resource: "photo-1",
		Action: core.ActionRead, Token: tok.Token,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.CacheTTLSeconds != 0 {
		t.Fatalf("no-cache policy got ttl %d", dec.CacheTTLSeconds)
	}
}

func TestConsentFlow(t *testing.T) {
	a, outbox := newTestAM(t)
	pairing := pairHost(t, a, "webpics", "bob")
	protectRealm(t, a, pairing.PairingID, "private", "diary")
	p, _ := a.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:     policy.EffectPermit,
			Subjects:   []policy.Subject{{Type: policy.SubjectEveryone}},
			Conditions: []policy.Condition{{Type: policy.CondRequireConsent}},
		}},
	})
	a.LinkGeneral("bob", "private", p.ID)

	req := core.TokenRequest{
		Requester: "browser", Subject: "alice", Host: "webpics",
		Realm: "private", Resource: "diary", Action: core.ActionRead,
	}
	resp, err := a.IssueToken(req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Pending() || resp.PendingConsent == "" {
		t.Fatalf("expected pending consent: %+v", resp)
	}
	// The owner was notified out-of-band.
	if msgs := outbox.Messages("bob"); len(msgs) != 1 || !strings.Contains(msgs[0].Body, resp.PendingConsent) {
		t.Fatalf("outbox = %+v", msgs)
	}
	// The ticket is listed as pending.
	if pending := a.PendingConsents("bob"); len(pending) != 1 || pending[0].Ticket != resp.PendingConsent {
		t.Fatalf("pending = %+v", pending)
	}
	// Polling before resolution: unresolved.
	st, err := a.ConsentStatus(resp.PendingConsent)
	if err != nil || st.Resolved {
		t.Fatalf("status = %+v err=%v", st, err)
	}
	// Mallory cannot resolve bob's ticket.
	if err := a.ResolveConsent("mallory", resp.PendingConsent, true); err == nil {
		t.Fatal("mallory resolved bob's consent")
	}
	// Bob approves; requester polls and receives the token.
	if err := a.ResolveConsent("bob", resp.PendingConsent, true); err != nil {
		t.Fatal(err)
	}
	st, err = a.ConsentStatus(resp.PendingConsent)
	if err != nil || !st.Resolved || !st.Approved || st.Token == "" {
		t.Fatalf("status = %+v err=%v", st, err)
	}
	// Ticket consumed after token collection.
	if _, err := a.ConsentStatus(resp.PendingConsent); err == nil {
		t.Fatal("ticket survived collection")
	}
	// The consented token passes decision queries.
	dec, err := a.Decide(pairing.PairingID, core.DecisionQuery{
		Host: "webpics", Realm: "private", Resource: "diary",
		Action: core.ActionRead, Token: st.Token,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Permit() {
		t.Fatalf("consented token denied: %+v", dec)
	}
}

func TestConsentDenied(t *testing.T) {
	a, _ := newTestAM(t)
	pairing := pairHost(t, a, "webpics", "bob")
	protectRealm(t, a, pairing.PairingID, "private", "diary")
	p, _ := a.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:     policy.EffectPermit,
			Subjects:   []policy.Subject{{Type: policy.SubjectEveryone}},
			Conditions: []policy.Condition{{Type: policy.CondRequireConsent}},
		}},
	})
	a.LinkGeneral("bob", "private", p.ID)
	resp, _ := a.IssueToken(core.TokenRequest{
		Requester: "browser", Subject: "alice", Host: "webpics",
		Realm: "private", Resource: "diary", Action: core.ActionRead,
	})
	if err := a.ResolveConsent("bob", resp.PendingConsent, false); err != nil {
		t.Fatal(err)
	}
	st, err := a.ConsentStatus(resp.PendingConsent)
	if err != nil || !st.Resolved || st.Approved || st.Token != "" {
		t.Fatalf("status = %+v err=%v", st, err)
	}
	// Double resolution rejected.
	if err := a.ResolveConsent("bob", resp.PendingConsent, true); err == nil {
		t.Fatal("resolved twice")
	}
}

func TestTermsFlow(t *testing.T) {
	a, _ := newTestAM(t)
	pairing := pairHost(t, a, "webpics", "bob")
	protectRealm(t, a, pairing.PairingID, "shop", "print-1")
	p, _ := a.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:     policy.EffectPermit,
			Subjects:   []policy.Subject{{Type: policy.SubjectEveryone}},
			Conditions: []policy.Condition{{Type: policy.CondRequireClaim, Claim: "payment"}},
		}},
	})
	a.LinkGeneral("bob", "shop", p.ID)

	req := core.TokenRequest{
		Requester: "printshop", Subject: "alice", Host: "webpics",
		Realm: "shop", Resource: "print-1", Action: core.ActionRead,
	}
	resp, err := a.IssueToken(req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Pending() || len(resp.RequiredTerms) != 1 || resp.RequiredTerms[0] != "payment" {
		t.Fatalf("resp = %+v", resp)
	}
	// Retry with the claim → token.
	req.Claims = map[string]string{"payment": "rcpt-42"}
	resp, err = a.IssueToken(req)
	if err != nil || resp.Token == "" {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}
	// The decision path re-evaluates with the claims the token carries.
	dec, err := a.Decide(pairing.PairingID, core.DecisionQuery{
		Host: "webpics", Realm: "shop", Resource: "print-1",
		Action: core.ActionRead, Token: resp.Token,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Permit() {
		t.Fatalf("paid token denied: %+v", dec)
	}
}

func TestImportExportThroughAM(t *testing.T) {
	a, _ := newTestAM(t)
	friendsReadPolicyNoLink(t, a, "bob")
	var buf bytes.Buffer
	if err := a.ExportPolicies(&buf, "bob", policy.FormatJSON); err != nil {
		t.Fatal(err)
	}
	n, err := a.ImportPolicies("alice", "alice", bytes.NewReader(buf.Bytes()), policy.FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("imported = %d", n)
	}
	// Imported policies are re-owned by the importer.
	got := a.ListPolicies("alice")
	if len(got) != 1 || got[0].Owner != "alice" {
		t.Fatalf("alice policies = %+v", got)
	}
	// Import authorization enforced.
	if _, err := a.ImportPolicies("mallory", "bob", bytes.NewReader(buf.Bytes()), policy.FormatJSON); err == nil {
		t.Fatal("mallory imported into bob's account")
	}
}

func friendsReadPolicyNoLink(t *testing.T, a *AM, owner core.UserID) core.PolicyID {
	t.Helper()
	p, err := a.CreatePolicy(owner, policy.Policy{
		Owner: owner, Name: "friends-read", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:   policy.EffectPermit,
			Subjects: []policy.Subject{{Type: policy.SubjectGroup, Name: "friends"}},
			Actions:  []core.Action{core.ActionRead},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return p.ID
}

func TestSpecificPolicyRefinementViaAM(t *testing.T) {
	// End-to-end check of the two-stage semantics through AM plumbing: the
	// general policy permits friends, a specific policy on photo-1 denies
	// alice explicitly.
	a, _ := newTestAM(t)
	pairing := setupProtected(t, a)
	spec, _ := a.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindSpecific,
		Rules: []policy.Rule{{
			Effect:   policy.EffectDeny,
			Subjects: []policy.Subject{{Type: policy.SubjectUser, Name: "alice"}},
		}},
	})
	if err := a.LinkSpecific("bob", "webpics", "photo-1", spec.ID); err != nil {
		t.Fatal(err)
	}
	_, err := a.IssueToken(core.TokenRequest{
		Requester: "browser", Subject: "alice", Host: "webpics",
		Realm: "travel", Resource: "photo-1", Action: core.ActionRead,
	})
	if !errors.Is(err, core.ErrAccessDenied) {
		t.Fatalf("specific deny ignored: %v", err)
	}
	// Another friend without the specific deny still gets a token.
	a.AddGroupMember("bob", "bob", "friends", "chris")
	tok, err := a.IssueToken(core.TokenRequest{
		Requester: "browser", Subject: "chris", Host: "webpics",
		Realm: "travel", Resource: "photo-1", Action: core.ActionRead,
	})
	if err != nil || tok.Token == "" {
		t.Fatalf("chris denied: %v", err)
	}
	_ = pairing
}
