package sim

import (
	"errors"
	"testing"
	"time"

	"umac/internal/core"
	"umac/internal/policy"
	"umac/internal/requester"
)

// setupWorld builds the canonical fixture over real HTTP:
// bob owns photo-1/photo-2 in realm "travel" at host "webpics", pairs the
// host with the AM, and links a general friends-read policy. alice is in
// bob's friends group.
func setupWorld(t *testing.T) (*World, *SimpleHost) {
	t.Helper()
	w := NewWorld()
	t.Cleanup(w.Close)
	h := w.AddHost("webpics")
	h.AddResource("bob", "travel", "photo-1", []byte("sunset over kraków"))
	h.AddResource("bob", "travel", "photo-2", []byte("tatra mountains"))

	bob := NewUserAgent("bob")
	if err := bob.PairHost(h, w.AMServer.URL); err != nil {
		t.Fatal(err)
	}
	if err := h.Enforcer.Protect("bob", "travel", []core.ResourceID{"photo-1", "photo-2"}, ""); err != nil {
		t.Fatal(err)
	}
	p, err := w.AM.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Name: "friends-read", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:   policy.EffectPermit,
			Subjects: []policy.Subject{{Type: policy.SubjectGroup, Name: "friends"}},
			Actions:  []core.Action{core.ActionRead},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AM.LinkGeneral("bob", "travel", p.ID); err != nil {
		t.Fatal(err)
	}
	if err := w.AM.AddGroupMember("bob", "bob", "friends", "alice"); err != nil {
		t.Fatal(err)
	}
	return w, h
}

func TestFullProtocolFirstAccess(t *testing.T) {
	w, h := setupWorld(t)
	w.ResetWire()

	alice := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
	body, err := alice.Fetch(h.ResourceURL("photo-1"), core.ActionRead)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "sunset over kraków" {
		t.Fatalf("body = %q", body)
	}

	// The wire must witness the Fig. 2 phases in order: tokenless access
	// answered with a referral → token request → access with the token,
	// during which the Host queries the AM for the decision.
	expectSteps(t, w, "first access",
		"host GET /res/* 401",
		"am POST /v1/token 200",
		"host GET /res/* 200",
		"am POST /v1/api/decision 200",
	)
}

func TestSubsequentAccessUsesCache(t *testing.T) {
	w, h := setupWorld(t)
	alice := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})

	if _, err := alice.Fetch(h.ResourceURL("photo-1"), core.ActionRead); err != nil {
		t.Fatal(err)
	}
	w.ResetWire()
	hitsBefore, _ := h.Enforcer.Cache().Stats()

	// Section V.B.6: subsequent requests are enforced from the cached
	// decision with no AM round-trip and no new token.
	for i := 0; i < 5; i++ {
		if _, err := alice.Fetch(h.ResourceURL("photo-1"), core.ActionRead); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.AMRequests(); got != 0 {
		t.Fatalf("%d AM requests during cached accesses, want 0: %v", got, w.Wire())
	}
	if got := countRoute(w, "host GET /res/*"); got != 5 {
		t.Fatalf("host saw %d resource requests, want 5: %v", got, w.Wire())
	}
	hitsAfter, _ := h.Enforcer.Cache().Stats()
	if hitsAfter-hitsBefore != 5 {
		t.Fatalf("cache hits = %d, want 5", hitsAfter-hitsBefore)
	}
}

func TestTokenReusedAcrossRealmResources(t *testing.T) {
	w, h := setupWorld(t)
	alice := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})

	if _, err := alice.Fetch(h.ResourceURL("photo-1"), core.ActionRead); err != nil {
		t.Fatal(err)
	}
	w.ResetWire()
	// photo-2 is in the same realm: the cached realm token is presented
	// directly; only a fresh decision query is needed.
	if _, err := alice.Fetch(h.ResourceURL("photo-2"), core.ActionRead); err != nil {
		t.Fatal(err)
	}
	expectSteps(t, w, "same-realm access",
		"host GET /res/* 200",
		"am POST /v1/api/decision 200",
	)
}

func TestDenyForStranger(t *testing.T) {
	_, h := setupWorld(t)
	mallory := requester.New(requester.Config{ID: "mallory-browser", Subject: "mallory"})
	_, err := mallory.Fetch(h.ResourceURL("photo-1"), core.ActionRead)
	if !errors.Is(err, requester.ErrDenied) {
		t.Fatalf("err = %v, want denied", err)
	}
}

func TestWriteDeniedByReadOnlyPolicy(t *testing.T) {
	_, h := setupWorld(t)
	alice := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
	resp, err := alice.Post(h.ResourceURL("photo-1"), "text/plain", []byte("defaced"), core.ActionWrite)
	if err != nil {
		// Token refusal surfaces as ErrDenied before the PUT is retried.
		if errors.Is(err, requester.ErrDenied) {
			return
		}
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 403 && resp.StatusCode != 405 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestAnonymousGets401(t *testing.T) {
	_, h := setupWorld(t)
	// A raw HTTP client (no requester library) sees the referral.
	resp, err := h.Server.Client().Get(h.ResourceURL("photo-1"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 401 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Umac-Am") == "" {
		t.Fatal("referral headers missing")
	}
}

func TestSinglePolicyAcrossMultipleHosts(t *testing.T) {
	// Requirement R2: one policy, linked once per realm, protects
	// resources at any number of Hosts.
	w, pics := setupWorld(t)
	docs := w.AddHost("webdocs")
	docs.AddResource("bob", "travel", "trip-report", []byte("day 1: arrived"))
	bob := NewUserAgent("bob")
	if err := bob.PairHost(docs, w.AMServer.URL); err != nil {
		t.Fatal(err)
	}
	if err := docs.Enforcer.Protect("bob", "travel", []core.ResourceID{"trip-report"}, ""); err != nil {
		t.Fatal(err)
	}
	// No new policy, no new link: the existing owner/realm link covers the
	// new host.
	w.ResetWire()
	alice := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
	if _, err := alice.Fetch(pics.ResourceURL("photo-1"), core.ActionRead); err != nil {
		t.Fatal(err)
	}
	body, err := alice.Fetch(docs.ResourceURL("trip-report"), core.ActionRead)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "day 1: arrived" {
		t.Fatalf("body = %q", body)
	}
	// Tokens are host-scoped: accessing the second host required a second
	// token (Section V.B.3 binding), which the client fetched silently. The
	// one policy answered both hosts' decision queries.
	if got := countRoute(w, "am POST /v1/token"); got != 2 {
		t.Fatalf("%d token requests, want one per host: %v", got, w.Wire())
	}
	if got := countRoute(w, "am POST /v1/api/decision"); got != 2 {
		t.Fatalf("%d decision queries, want one per host: %v", got, w.Wire())
	}
}

func TestGroupChangeTakesEffect(t *testing.T) {
	w, h := setupWorld(t)
	chris := requester.New(requester.Config{ID: "chris-browser", Subject: "chris"})
	if _, err := chris.Fetch(h.ResourceURL("photo-1"), core.ActionRead); !errors.Is(err, requester.ErrDenied) {
		t.Fatalf("chris before membership: %v", err)
	}
	// Bob adds chris to friends at the AM; chris can now read without any
	// change at the Host.
	if err := w.AM.AddGroupMember("bob", "bob", "friends", "chris"); err != nil {
		t.Fatal(err)
	}
	if _, err := chris.Fetch(h.ResourceURL("photo-1"), core.ActionRead); err != nil {
		t.Fatalf("chris after membership: %v", err)
	}
}

func TestConsentFlowOverHTTP(t *testing.T) {
	w, h := setupWorld(t)
	h.AddResource("bob", "private", "diary", []byte("dear diary"))
	if err := h.Enforcer.Protect("bob", "private", []core.ResourceID{"diary"}, ""); err != nil {
		t.Fatal(err)
	}
	p, _ := w.AM.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:     policy.EffectPermit,
			Subjects:   []policy.Subject{{Type: policy.SubjectEveryone}},
			Conditions: []policy.Condition{{Type: policy.CondRequireConsent}},
		}},
	})
	if err := w.AM.LinkGeneral("bob", "private", p.ID); err != nil {
		t.Fatal(err)
	}
	// Bob approves the consent request when it appears — the "user reacts
	// to the SMS" simulation.
	done := make(chan error, 1)
	go func() {
		// Poll pending consents until one appears, then approve it. The
		// deadline is generous: under -race on a loaded single-CPU box the
		// whole flow can stall for seconds without anything being wrong.
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			pending := w.AM.PendingConsents("bob")
			if len(pending) > 0 {
				done <- w.AM.ResolveConsent("bob", pending[0].Ticket, true)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		done <- errors.New("no consent request appeared")
	}()

	alice := requester.New(requester.Config{
		ID: "alice-browser", Subject: "alice",
		ConsentTimeout: 15 * time.Second,
	})
	body, err := alice.Fetch(h.ResourceURL("diary"), core.ActionRead)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "dear diary" {
		t.Fatalf("body = %q", body)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestTermsFlowOverHTTP(t *testing.T) {
	w, h := setupWorld(t)
	h.AddResource("bob", "shop", "print-1", []byte("high-res print"))
	if err := h.Enforcer.Protect("bob", "shop", []core.ResourceID{"print-1"}, ""); err != nil {
		t.Fatal(err)
	}
	p, _ := w.AM.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:     policy.EffectPermit,
			Subjects:   []policy.Subject{{Type: policy.SubjectEveryone}},
			Conditions: []policy.Condition{{Type: policy.CondRequireClaim, Claim: "payment"}},
		}},
	})
	if err := w.AM.LinkGeneral("bob", "shop", p.ID); err != nil {
		t.Fatal(err)
	}

	// Without payment: TermsError naming the missing claim.
	broke := requester.New(requester.Config{ID: "printshop", Subject: "alice"})
	_, err := broke.Fetch(h.ResourceURL("print-1"), core.ActionRead)
	var terms *requester.TermsError
	if !errors.As(err, &terms) || len(terms.Terms) != 1 || terms.Terms[0] != "payment" {
		t.Fatalf("err = %v", err)
	}
	// With the payment claim: access granted.
	broke.SetClaim("payment", "rcpt-42")
	body, err := broke.Fetch(h.ResourceURL("print-1"), core.ActionRead)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "high-res print" {
		t.Fatalf("body = %q", body)
	}
}

func TestRevokedPairingStopsDecisions(t *testing.T) {
	w, h := setupWorld(t)
	alice := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
	if _, err := alice.Fetch(h.ResourceURL("photo-1"), core.ActionRead); err != nil {
		t.Fatal(err)
	}
	pairing, _ := h.Enforcer.PairingFor("bob")
	if err := w.AM.RevokePairing(pairing.PairingID); err != nil {
		t.Fatal(err)
	}
	// A fresh client (empty caches on both sides would be needed; the
	// host's decision cache may still hold the old permit, so clear it to
	// model TTL expiry).
	h.Enforcer.Cache().Invalidate()
	fresh := requester.New(requester.Config{ID: "alice-browser-2", Subject: "alice"})
	if _, err := fresh.Fetch(h.ResourceURL("photo-1"), core.ActionRead); err == nil {
		t.Fatal("access succeeded over revoked pairing")
	}
}

func TestAuditConsolidatedAcrossHosts(t *testing.T) {
	w, pics := setupWorld(t)
	docs := w.AddHost("webdocs")
	docs.AddResource("bob", "travel", "trip-report", []byte("x"))
	bob := NewUserAgent("bob")
	if err := bob.PairHost(docs, w.AMServer.URL); err != nil {
		t.Fatal(err)
	}
	if err := docs.Enforcer.Protect("bob", "travel", []core.ResourceID{"trip-report"}, ""); err != nil {
		t.Fatal(err)
	}
	alice := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
	alice.Fetch(pics.ResourceURL("photo-1"), core.ActionRead)
	alice.Fetch(docs.ResourceURL("trip-report"), core.ActionRead)
	mallory := requester.New(requester.Config{ID: "mallory-app", Subject: "mallory"})
	mallory.Fetch(pics.ResourceURL("photo-1"), core.ActionRead)

	// Requirement R4: one query at the AM sees decisions across all Hosts.
	s := w.AM.Audit().Summarize("bob")
	if len(s.Hosts) < 2 {
		t.Fatalf("hosts in consolidated view = %v", s.Hosts)
	}
	if s.PermitCount < 2 {
		t.Fatalf("permits = %d", s.PermitCount)
	}
}
