package amclient_test

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"umac/internal/am"
	"umac/internal/amclient"
	"umac/internal/core"
	"umac/internal/policy"
)

// fixture is a real AM behind an httptest server plus clients for each
// auth mode.
type fixture struct {
	am  *am.AM
	srv *httptest.Server
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	a := am.New(am.Config{Name: "am", Notifier: &am.Outbox{}})
	srv := httptest.NewServer(a.Handler())
	t.Cleanup(func() {
		srv.Close()
		a.Close()
	})
	a.SetBaseURL(srv.URL)
	return &fixture{am: a, srv: srv}
}

func (f *fixture) as(user core.UserID) *amclient.Client {
	return amclient.New(amclient.Config{BaseURL: f.srv.URL, User: user})
}

// pair establishes a signed channel for host on behalf of user and
// returns a credentialed client plus the pairing ID.
func (f *fixture) pair(t *testing.T, host core.HostID, user core.UserID) (*amclient.Client, string) {
	t.Helper()
	code, err := f.am.ApprovePairing(core.PairingRequest{Host: host, User: user})
	if err != nil {
		t.Fatal(err)
	}
	open := amclient.New(amclient.Config{BaseURL: f.srv.URL})
	pr, err := open.ExchangePairingCode(code, host)
	if err != nil {
		t.Fatal(err)
	}
	return open.WithCredential(pr.PairingID, pr.Secret), pr.PairingID
}

func testPolicy(owner core.UserID, name string) policy.Policy {
	return policy.Policy{
		Owner: owner, Name: name, Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:   policy.EffectPermit,
			Subjects: []policy.Subject{{Type: policy.SubjectEveryone}},
			Actions:  []core.Action{core.ActionRead},
		}},
	}
}

func TestManagementSurface(t *testing.T) {
	f := newFixture(t)
	bob := f.as("bob")

	// Policy CRUD.
	created, err := bob.CreatePolicy(testPolicy("bob", "p1"))
	if err != nil || created.ID == "" {
		t.Fatalf("create: %v (%+v)", err, created)
	}
	got, err := bob.GetPolicy(created.ID)
	if err != nil || got.Name != "p1" {
		t.Fatalf("get: %v (%+v)", err, got)
	}
	got.Name = "renamed"
	if err := bob.UpdatePolicy(got); err != nil {
		t.Fatalf("update: %v", err)
	}
	list, err := bob.ListPolicies("", amclient.Page{})
	if err != nil || len(list) != 1 || list[0].Name != "renamed" {
		t.Fatalf("list: %v (%d)", err, len(list))
	}

	// Export / import round-trip into alice's account.
	var buf bytes.Buffer
	if err := bob.ExportPolicies(&buf, "", "json"); err != nil {
		t.Fatalf("export: %v", err)
	}
	alice := f.as("alice")
	n, err := alice.ImportPolicies(bytes.NewReader(buf.Bytes()), "", "json")
	if err != nil || n != 1 {
		t.Fatalf("import: %v (n=%d)", err, n)
	}

	// Groups + custodians.
	members, err := bob.AddGroupMember("", "friends", "alice")
	if err != nil || len(members) != 1 {
		t.Fatalf("group add: %v (%v)", err, members)
	}
	groups, err := bob.Groups("")
	if err != nil || len(groups) != 1 || groups[0] != "friends" {
		t.Fatalf("groups: %v (%v)", err, groups)
	}
	if err := bob.RemoveGroupMember("", "friends", "alice"); err != nil {
		t.Fatalf("group remove: %v", err)
	}
	if _, err := bob.AddCustodian("carol"); err != nil {
		t.Fatalf("custodian add: %v", err)
	}
	custodians, err := bob.Custodians("")
	if err != nil || len(custodians) != 1 {
		t.Fatalf("custodians: %v (%v)", err, custodians)
	}
	// Carol manages bob's policies as custodian via ?owner=.
	carol := f.as("carol")
	if _, err := carol.ListPolicies("bob", amclient.Page{}); err != nil {
		t.Fatalf("custodian list: %v", err)
	}
	if err := bob.RemoveCustodian("carol"); err != nil {
		t.Fatalf("custodian remove: %v", err)
	}

	// Audit: events accrued, summary decodes.
	events, err := bob.Audit(amclient.AuditFilter{}, amclient.Page{Limit: 5})
	if err != nil || len(events) == 0 {
		t.Fatalf("audit: %v (%d)", err, len(events))
	}
	summary, err := bob.AuditSummary("")
	if err != nil || summary.Owner != "bob" {
		t.Fatalf("summary: %v (%+v)", err, summary)
	}

	// Delete.
	if err := bob.DeletePolicy(created.ID); err != nil {
		t.Fatalf("delete: %v", err)
	}
}

func TestSignedProtocolSurface(t *testing.T) {
	f := newFixture(t)
	bob := f.as("bob")
	host, pairingID := f.pair(t, "webpics", "bob")

	// Protect a realm over the signed channel, link an everyone-read
	// policy, then decide.
	if _, err := host.Protect(core.ProtectRequest{PairingID: pairingID, Realm: "travel"}); err != nil {
		t.Fatalf("protect: %v", err)
	}
	pol, err := bob.CreatePolicy(testPolicy("bob", "readers"))
	if err != nil {
		t.Fatal(err)
	}
	if err := bob.LinkGeneral("", "travel", pol.ID); err != nil {
		t.Fatalf("link: %v", err)
	}

	open := amclient.New(amclient.Config{BaseURL: f.srv.URL})
	tr, err := open.RequestToken(core.TokenRequest{
		Requester: "r", Subject: "alice", Host: "webpics", Realm: "travel",
		Resource: "x", Action: core.ActionRead,
	})
	if err != nil || tr.Token == "" {
		t.Fatalf("token: %v (%+v)", err, tr)
	}
	dec, err := host.Decide(core.DecisionQuery{
		PairingID: pairingID, Host: "webpics", Realm: "travel",
		Resource: "x", Action: core.ActionRead, Token: tr.Token,
	})
	if err != nil || !dec.Permit() {
		t.Fatalf("decide: %v (%+v)", err, dec)
	}
	batch, err := host.DecideBatch(core.BatchDecisionQuery{
		PairingID: pairingID, Host: "webpics", Token: tr.Token,
		Items: []core.BatchDecisionItem{
			{Realm: "travel", Resource: "x", Action: core.ActionRead},
			{Realm: "travel", Resource: "y", Action: core.ActionRead},
		},
	})
	if err != nil || len(batch.Results) != 2 || !batch.Results[0].Permit() {
		t.Fatalf("batch: %v (%+v)", err, batch)
	}

	// Pairing listing + RESTful revoke.
	pairings, err := bob.Pairings("", amclient.Page{})
	if err != nil || len(pairings) != 1 || pairings[0].ID != pairingID {
		t.Fatalf("pairings: %v (%+v)", err, pairings)
	}
	if err := bob.RevokePairing(pairingID); err != nil {
		t.Fatalf("revoke: %v", err)
	}
	// The signed channel dies with the pairing.
	if _, err := host.Decide(core.DecisionQuery{
		PairingID: pairingID, Host: "webpics", Realm: "travel",
		Resource: "x", Action: core.ActionRead, Token: tr.Token,
	}); err == nil {
		t.Fatal("decide succeeded after revocation")
	}
}

// TestErrorTyping asserts the client surfaces structured codes and that
// sentinel unwrapping works across the HTTP hop.
func TestErrorTyping(t *testing.T) {
	f := newFixture(t)
	host, pairingID := f.pair(t, "webpics", "bob")
	if _, err := host.Protect(core.ProtectRequest{PairingID: pairingID, Realm: "travel"}); err != nil {
		t.Fatal(err)
	}

	// Policy deny (no linked policy → deny-biased).
	open := amclient.New(amclient.Config{BaseURL: f.srv.URL})
	_, err := open.RequestToken(core.TokenRequest{
		Requester: "r", Subject: "mallory", Host: "webpics", Realm: "travel",
		Resource: "x", Action: core.ActionWrite,
	})
	var ae *core.APIError
	if !errors.As(err, &ae) || ae.Code != core.CodeAccessDenied {
		t.Fatalf("deny err = %v", err)
	}
	if !errors.Is(err, core.ErrAccessDenied) {
		t.Fatalf("deny does not unwrap to sentinel: %v", err)
	}
	if !strings.Contains(err.Error(), core.CodeAccessDenied) {
		t.Fatalf("error text lacks code: %v", err)
	}

	// Unknown realm.
	_, err = open.RequestToken(core.TokenRequest{
		Requester: "r", Subject: "alice", Host: "webpics", Realm: "ghosts",
		Resource: "x", Action: core.ActionRead,
	})
	if !errors.Is(err, core.ErrUnknownRealm) {
		t.Fatalf("unknown-realm err = %v", err)
	}

	// Unauthenticated management call.
	_, err = amclient.New(amclient.Config{BaseURL: f.srv.URL}).ListPolicies("", amclient.Page{})
	if !errors.As(err, &ae) || ae.Code != core.CodeUnauthenticated || ae.Status != 401 {
		t.Fatalf("unauth err = %v", err)
	}
	if ae.RequestID == "" {
		t.Fatal("error carries no request id")
	}

	// Unknown consent ticket.
	_, err = open.TokenStatus("ticket-none")
	if !errors.As(err, &ae) || ae.Code != core.CodeNotFound {
		t.Fatalf("ticket err = %v", err)
	}
}

// TestPagination drives limit/offset through the client.
func TestPagination(t *testing.T) {
	f := newFixture(t)
	bob := f.as("bob")
	for i := 0; i < 5; i++ {
		if _, err := bob.CreatePolicy(testPolicy("bob", "p")); err != nil {
			t.Fatal(err)
		}
	}
	page, err := bob.ListPolicies("", amclient.Page{Offset: 3, Limit: 10})
	if err != nil || len(page) != 2 {
		t.Fatalf("page: %v (%d)", err, len(page))
	}
	page, err = bob.ListPolicies("", amclient.Page{Limit: 2})
	if err != nil || len(page) != 2 {
		t.Fatalf("limit page: %v (%d)", err, len(page))
	}
}

// TestHealthProbes covers Healthz and Ready against a live AM.
func TestHealthProbes(t *testing.T) {
	f := newFixture(t)
	c := amclient.New(amclient.Config{BaseURL: f.srv.URL})
	h, err := c.Healthz()
	if err != nil || h.Status != "ok" || h.AM != "am" {
		t.Fatalf("healthz: %v (%+v)", err, h)
	}
	ready, err := c.Ready()
	if err != nil || !ready {
		t.Fatalf("ready: %v (%v)", err, ready)
	}
	f.am.SetDraining(true)
	ready, err = c.Ready()
	if err != nil || ready {
		t.Fatalf("draining ready: %v (%v)", err, ready)
	}
}
