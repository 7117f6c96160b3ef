package am

import (
	"sync"
	"testing"

	"umac/internal/core"
	"umac/internal/policy"
)

// decideRead issues a token for alice and runs the decision path once.
func decideRead(t *testing.T, a *AM, pairingID string) (core.DecisionResponse, error) {
	t.Helper()
	tok, err := a.IssueToken(core.TokenRequest{
		Requester: "browser", Subject: "alice", Host: "webpics",
		Realm: "travel", Resource: "photo-1", Action: core.ActionRead,
	})
	if err != nil {
		// Deny at issue time: surface it as a non-permit to the caller.
		return core.DecisionResponse{Decision: core.DecisionDeny.String()}, nil
	}
	return a.Decide(pairingID, core.DecisionQuery{
		Host: "webpics", Realm: "travel", Resource: "photo-1",
		Action: core.ActionRead, Token: tok.Token,
	})
}

func indexSizes(a *AM) (gen, spec int) {
	a.index.mu.RLock()
	defer a.index.mu.RUnlock()
	return len(a.index.gen), len(a.index.spec)
}

func TestDecisionIndexFillsAndServes(t *testing.T) {
	a, _ := newTestAM(t)
	pairing := setupProtected(t, a)
	dec, err := decideRead(t, a, pairing.PairingID)
	if err != nil || !dec.Permit() {
		t.Fatalf("decision = %+v err=%v", dec, err)
	}
	// The realm's general entry is filled; the resource has no specific
	// link, which is not cached per resource (the index would otherwise
	// grow with every resource ever queried).
	gen, spec := indexSizes(a)
	if gen == 0 || spec != 0 {
		t.Fatalf("index after decision: gen=%d spec=%d, want gen>0 and no per-resource negative entry", gen, spec)
	}
}

func TestDecisionIndexInvalidatesOnPolicyUpdate(t *testing.T) {
	a, _ := newTestAM(t)
	pairing := setupProtected(t, a)
	if dec, err := decideRead(t, a, pairing.PairingID); err != nil || !dec.Permit() {
		t.Fatalf("pre-update decision = %+v err=%v", dec, err)
	}
	p, err := a.GetPolicy(mustLinkedGeneral(t, a, "bob", "travel"))
	if err != nil {
		t.Fatal(err)
	}
	p.Rules = []policy.Rule{{
		Effect:   policy.EffectDeny,
		Subjects: []policy.Subject{{Type: policy.SubjectEveryone}},
	}}
	if err := a.UpdatePolicy("bob", p); err != nil {
		t.Fatal(err)
	}
	// No TTL to wait out: the compiled entry must be recompiled right away.
	if dec, _ := decideRead(t, a, pairing.PairingID); dec.Permit() {
		t.Fatal("stale compiled policy served after update")
	}
}

func TestDecisionIndexInvalidatesOnUnlinkAndRelink(t *testing.T) {
	a, _ := newTestAM(t)
	pairing := setupProtected(t, a)
	pid := mustLinkedGeneral(t, a, "bob", "travel")
	if dec, _ := decideRead(t, a, pairing.PairingID); !dec.Permit() {
		t.Fatal("expected permit before unlink")
	}
	if err := a.UnlinkGeneral("bob", "travel"); err != nil {
		t.Fatal(err)
	}
	if dec, _ := decideRead(t, a, pairing.PairingID); dec.Permit() {
		t.Fatal("permit served from index after unlink")
	}
	if err := a.LinkGeneral("bob", "travel", pid); err != nil {
		t.Fatal(err)
	}
	if dec, _ := decideRead(t, a, pairing.PairingID); !dec.Permit() {
		t.Fatal("negative entry survived relink")
	}
}

func TestDecisionIndexInvalidatesOnPolicyRecreate(t *testing.T) {
	a, _ := newTestAM(t)
	pairing := setupProtected(t, a)
	pid := mustLinkedGeneral(t, a, "bob", "travel")
	if err := a.DeletePolicy("bob", pid); err != nil {
		t.Fatal(err)
	}
	// The link now dangles; the decision path caches the deny-biased miss.
	if dec, _ := decideRead(t, a, pairing.PairingID); dec.Permit() {
		t.Fatal("permit after policy delete")
	}
	// Re-creating the policy under the same ID resolves the dangling link
	// again; the cached negative entry must not outlive it.
	if _, err := a.CreatePolicy("bob", policy.Policy{
		ID: pid, Owner: "bob", Name: "friends-read", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:   policy.EffectPermit,
			Subjects: []policy.Subject{{Type: policy.SubjectGroup, Name: "friends"}},
			Actions:  []core.Action{core.ActionRead, core.ActionList},
		}},
	}); err != nil {
		t.Fatal(err)
	}
	if dec, _ := decideRead(t, a, pairing.PairingID); !dec.Permit() {
		t.Fatal("stale negative entry served after policy re-create")
	}
}

func TestDecisionIndexSpecificLinkInvalidation(t *testing.T) {
	a, _ := newTestAM(t)
	pairing := setupProtected(t, a)
	if dec, _ := decideRead(t, a, pairing.PairingID); !dec.Permit() {
		t.Fatal("expected general permit")
	}
	deny, err := a.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Name: "lockdown", Kind: policy.KindSpecific,
		Rules: []policy.Rule{{
			Effect:   policy.EffectDeny,
			Subjects: []policy.Subject{{Type: policy.SubjectEveryone}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.LinkSpecific("bob", "webpics", "photo-1", deny.ID); err != nil {
		t.Fatal(err)
	}
	if dec, _ := decideRead(t, a, pairing.PairingID); dec.Permit() {
		t.Fatal("cached negative specific entry overrode fresh deny link")
	}
	if err := a.UnlinkSpecific("bob", "webpics", "photo-1"); err != nil {
		t.Fatal(err)
	}
	if dec, _ := decideRead(t, a, pairing.PairingID); !dec.Permit() {
		t.Fatal("deny served from index after unlink")
	}
}

// mustLinkedGeneral resolves the policy currently linked as owner/realm's
// general policy.
func mustLinkedGeneral(t *testing.T, a *AM, owner core.UserID, realm core.RealmID) core.PolicyID {
	t.Helper()
	p := a.generalPolicyFor(owner, realm)
	if p == nil {
		t.Fatalf("no general policy linked for %s/%s", owner, realm)
	}
	return p.ID
}

// TestDecisionIndexLookupRacesReset: a lookup beside a reset, as a
// follower's bootstrap does to a serving index. Run under -race: the
// reset must not reassign a map field a lookup reads.
func TestDecisionIndexLookupRacesReset(t *testing.T) {
	ix := newDecisionIndex()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for range 2000 {
			ix.lookupGeneral("bob/travel")
		}
	}()
	go func() {
		defer wg.Done()
		for range 2000 {
			ix.reset()
		}
	}()
	wg.Wait()
}

// TestDecisionIndexLookupStraddlingReset: a lookup that a reset overtakes
// returns either the entry and the version from before the reset, or a
// miss and the version after it — never the pre-reset entry with the
// post-reset version, which would let a fill from the old store pass the
// version check.
func TestDecisionIndexLookupStraddlingReset(t *testing.T) {
	ix := newDecisionIndex()
	stale := &policy.CompiledPolicy{}
	for i := range 2000 {
		_, _, before := ix.lookupGeneral("bob/travel")
		ix.storeGeneral("bob/travel", stale, before)
		done := make(chan struct{})
		go func() {
			ix.reset()
			close(done)
		}()
		c, ok, ver := ix.lookupGeneral("bob/travel")
		<-done
		if ok && (c != stale || ver != before) {
			t.Fatalf("lookup %d: entry %p at version %d, stored at version %d", i, c, ver, before)
		}
	}
}
