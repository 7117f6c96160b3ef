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

// TestInvalidationPushRevokesImmediately verifies the cache-control
// extension: with the Host subscribed to the owner's invalidation stream,
// a policy change at the AM takes effect at the Host at once, even though
// the cached decision's TTL has not expired.
func TestInvalidationPushRevokesImmediately(t *testing.T) {
	// Long cache TTL: without the stream, the stale permit would survive.
	w, h := setupWorldCfg(t, am.Config{DefaultCacheTTL: time.Hour})
	if err := h.Enforcer.StartInvalidationStream("bob"); err != nil {
		t.Fatal(err)
	}

	alice := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
	if _, err := alice.Fetch(h.ResourceURL("photo-1"), core.ActionRead); err != nil {
		t.Fatal(err)
	}
	if h.Enforcer.Cache().Len() == 0 {
		t.Fatal("decision not cached")
	}

	// Bob flips the policy to deny-everyone; the AM publishes the
	// invalidation on the stream.
	policies := w.AM.ListPolicies("bob")
	pol := policies[0]
	pol.Rules = []policy.Rule{{
		Effect:   policy.EffectDeny,
		Subjects: []policy.Subject{{Type: policy.SubjectEveryone}},
	}}
	gen := h.Enforcer.Cache().Gen()
	if err := w.AM.UpdatePolicy("bob", pol); err != nil {
		t.Fatal(err)
	}
	if err := AwaitInvalidation(h.Enforcer.Cache(), gen); err != nil {
		t.Fatal(err)
	}
	if h.Enforcer.Cache().Len() != 0 {
		t.Fatal("host cache not invalidated by the stream event")
	}

	// The very next access is denied — no TTL wait.
	resp, err := alice.Get(h.ResourceURL("photo-1"), core.ActionRead)
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != 403 {
			t.Fatalf("status = %d, want 403 immediately after policy change", resp.StatusCode)
		}
	} else if !errors.Is(err, requester.ErrDenied) {
		t.Fatalf("err = %v", err)
	}
}

// TestInvalidationPushOnGroupChange covers the group-membership path.
func TestInvalidationPushOnGroupChange(t *testing.T) {
	w := NewWorldConfig(am.Config{DefaultCacheTTL: time.Hour})
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
	p, _ := w.AM.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:   policy.EffectPermit,
			Subjects: []policy.Subject{{Type: policy.SubjectGroup, Name: "friends"}},
			Actions:  []core.Action{core.ActionRead},
		}},
	})
	if err := w.AM.LinkGeneral("bob", "travel", p.ID); err != nil {
		t.Fatal(err)
	}
	if err := w.AM.AddGroupMember("bob", "bob", "friends", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := h.Enforcer.StartInvalidationStream("bob"); err != nil {
		t.Fatal(err)
	}
	alice := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
	if _, err := alice.Fetch(h.ResourceURL("photo-1"), core.ActionRead); err != nil {
		t.Fatal(err)
	}
	// Bob removes alice from friends; the owner-wide event clears the
	// cached permit.
	gen := h.Enforcer.Cache().Gen()
	if err := w.AM.RemoveGroupMember("bob", "bob", "friends", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := AwaitInvalidation(h.Enforcer.Cache(), gen); err != nil {
		t.Fatal(err)
	}

	resp, err := alice.Get(h.ResourceURL("photo-1"), core.ActionRead)
	if err == nil {
		defer resp.Body.Close()
		if resp.StatusCode == 200 {
			t.Fatal("alice still permitted after removal + invalidation")
		}
	}
}
