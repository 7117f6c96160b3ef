package sim

import (
	"errors"
	"testing"
	"time"

	"umac/internal/am"
	"umac/internal/core"
	"umac/internal/policy"
	"umac/internal/requester"
)

// These tests inject the failure and staleness conditions a deployment
// actually hits: expired tokens, forged tokens, an unreachable AM, dangling
// policy links, cache expiry after policy changes.

// setupWorldCfg mirrors setupWorld with a custom AM config.
func setupWorldCfg(t *testing.T, cfg am.Config) (*World, *SimpleHost) {
	t.Helper()
	w := NewWorldConfig(cfg)
	t.Cleanup(w.Close)
	h := w.AddHost("webpics")
	h.AddResource("bob", "travel", "photo-1", []byte("pic"))
	bob := NewUserAgent("bob")
	if err := bob.PairHost(h, w.AMServer.URL); err != nil {
		t.Fatal(err)
	}
	if err := h.Enforcer.Protect("bob", "travel", []core.ResourceID{"photo-1"}, ""); err != nil {
		t.Fatal(err)
	}
	p, err := w.AM.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:   policy.EffectPermit,
			Subjects: []policy.Subject{{Type: policy.SubjectUser, Name: "alice"}},
			Actions:  []core.Action{core.ActionRead},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AM.LinkGeneral("bob", "travel", p.ID); err != nil {
		t.Fatal(err)
	}
	return w, h
}

func TestExpiredTokenTransparentlyRenewed(t *testing.T) {
	// Token TTL is tiny; the decision cache must not outlive it either,
	// so disable caching via a no-cache policy? Simpler: small TTL and
	// cache invalidation between accesses.
	w, h := setupWorldCfg(t, am.Config{TokenTTL: 50 * time.Millisecond})
	alice := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
	if _, err := alice.Fetch(h.ResourceURL("photo-1"), core.ActionRead); err != nil {
		t.Fatal(err)
	}
	w.ResetWire()

	// Let the token expire; drop the host's cached decision to force a
	// fresh decision query (models TTL expiry on the host side).
	time.Sleep(80 * time.Millisecond)
	h.Enforcer.Cache().Invalidate()

	// The stale token triggers a token-problem referral; the client
	// obtains a fresh token and succeeds without surfacing an error.
	body, err := alice.Fetch(h.ResourceURL("photo-1"), core.ActionRead)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "pic" {
		t.Fatalf("body = %q", body)
	}
	// The stale token is presented, the AM flags it, the Host refers the
	// Requester back, and one renewed token completes the access.
	expectSteps(t, w, "expired token",
		"host GET /res/* 401",
		"am POST /v1/api/decision 200",
		"am POST /v1/token 200",
		"host GET /res/* 200",
		"am POST /v1/api/decision 200",
	)
}

func TestForgedTokenGetsReferralNotServed(t *testing.T) {
	_, h := setupWorldCfg(t, am.Config{})
	// A hand-crafted bogus token: the Host forwards it, the AM flags a
	// token problem, and the Host answers 401 (fresh referral), never 200.
	req, _ := newGet(h.ResourceURL("photo-1"))
	req.Header.Set("Authorization", "UMAC forged.token")
	resp, err := h.Server.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 401 {
		t.Fatalf("status = %d, want 401 referral", resp.StatusCode)
	}
	if resp.Header.Get("X-Umac-Am") == "" {
		t.Fatal("referral headers missing on token-problem response")
	}
}

func TestAMDownYieldsBadGateway(t *testing.T) {
	w, h := setupWorldCfg(t, am.Config{})
	alice := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
	// Warm up: token + cached decision.
	if _, err := alice.Fetch(h.ResourceURL("photo-1"), core.ActionRead); err != nil {
		t.Fatal(err)
	}
	// Cached accesses keep working while the AM is down (availability win
	// of decision caching).
	w.AMServer.Close()
	if _, err := alice.Fetch(h.ResourceURL("photo-1"), core.ActionRead); err != nil {
		t.Fatalf("cached access failed with AM down: %v", err)
	}
	// A cold request (cache cleared) cannot reach the AM: the Host reports
	// a gateway failure rather than silently allowing or denying.
	h.Enforcer.Cache().Invalidate()
	resp, err := alice.Get(h.ResourceURL("photo-1"), core.ActionRead)
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != 502 {
			t.Fatalf("status = %d, want 502", resp.StatusCode)
		}
	}
}

func TestDeletedPolicyFailsClosed(t *testing.T) {
	w, h := setupWorldCfg(t, am.Config{})
	alice := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
	if _, err := alice.Fetch(h.ResourceURL("photo-1"), core.ActionRead); err != nil {
		t.Fatal(err)
	}
	// Bob deletes the linked policy: the link dangles, and the deny-biased
	// engine refuses new evaluations.
	policies := w.AM.ListPolicies("bob")
	if len(policies) != 1 {
		t.Fatalf("policies = %d", len(policies))
	}
	if err := w.AM.DeletePolicy("bob", policies[0].ID); err != nil {
		t.Fatal(err)
	}
	h.Enforcer.Cache().Invalidate()
	fresh := requester.New(requester.Config{ID: "alice-2", Subject: "alice"})
	if _, err := fresh.Fetch(h.ResourceURL("photo-1"), core.ActionRead); !errors.Is(err, requester.ErrDenied) {
		t.Fatalf("err = %v, want denied (dangling link fails closed)", err)
	}
}

func TestCacheExpiryPicksUpPolicyChange(t *testing.T) {
	// With a short decision-cache TTL, a policy change at the AM takes
	// effect at the Host once the cached decision expires — the staleness
	// bound the user controls (Section V.B.5).
	w, h := setupWorldCfg(t, am.Config{DefaultCacheTTL: time.Second})
	base := time.Now()
	now := base
	h.Enforcer.Cache().SetClock(func() time.Time { return now })

	alice := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
	if _, err := alice.Fetch(h.ResourceURL("photo-1"), core.ActionRead); err != nil {
		t.Fatal(err)
	}
	// Bob revokes by replacing the policy with a deny.
	policies := w.AM.ListPolicies("bob")
	pol := policies[0]
	pol.Rules = []policy.Rule{{
		Effect:   policy.EffectDeny,
		Subjects: []policy.Subject{{Type: policy.SubjectEveryone}},
	}}
	if err := w.AM.UpdatePolicy("bob", pol); err != nil {
		t.Fatal(err)
	}
	// Within the TTL the stale permit is still served (documented bound).
	if _, err := alice.Fetch(h.ResourceURL("photo-1"), core.ActionRead); err != nil {
		t.Fatalf("within TTL: %v", err)
	}
	// After the TTL the host re-queries and the deny applies.
	now = base.Add(2 * time.Second)
	resp, err := alice.Get(h.ResourceURL("photo-1"), core.ActionRead)
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != 403 {
			t.Fatalf("status after TTL = %d, want 403", resp.StatusCode)
		}
	} else if !errors.Is(err, requester.ErrDenied) {
		t.Fatalf("err = %v", err)
	}
}

func TestRunComparisonSmall(t *testing.T) {
	results, err := RunComparison(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("models = %d", len(results))
	}
	byModel := map[Model]ComparisonResult{}
	for _, r := range results {
		if r.Permitted != r.Accesses {
			t.Fatalf("%s permitted %d/%d", r.Model, r.Permitted, r.Accesses)
		}
		byModel[r.Model] = r
	}
	// 2 resources read 3 times each. Push-token pays one token request and
	// one decision per resource, then answers from the Host cache; pull
	// pays one AM round-trip per access; uma-state one establishment plus
	// one per access; local-acl never reaches the AM.
	for model, want := range map[Model]int64{
		ModelPushToken: 3,
		ModelPull:      6,
		ModelUMAState:  7,
		ModelLocalACL:  0,
	} {
		if got := byModel[model].AMRoundTrips; got != want {
			t.Errorf("%s: %d AM round-trips, want %d", model, got, want)
		}
	}
}

func TestComputeAdminBurden(t *testing.T) {
	b := ComputeAdminBurden(3, 10, 2)
	if b.LocalACLGrants != 60 || b.UMACOperations != 6 {
		t.Fatalf("burden = %+v", b)
	}
}
