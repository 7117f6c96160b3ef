package am

import (
	"path/filepath"
	"testing"

	"umac/internal/core"
	"umac/internal/policy"
	"umac/internal/store"
)

// TestAMStateSurvivesRestart exercises the persistence path end to end:
// pairings, realms, policies, links and groups written through one
// AM instance are snapshot to disk, reloaded, and continue to serve
// decisions from a second instance — including validating tokens minted
// before the restart (the deployment must supply a stable TokenKey, exactly
// what cmd/amserver's flags provide).
func TestAMStateSurvivesRestart(t *testing.T) {
	key := []byte("stable-master-key-0123456789abcd")
	st := store.New()
	a1 := New(Config{Name: "am", Store: st, TokenKey: key})

	// Full setup through the first instance.
	code, err := a1.ApprovePairing(core.PairingRequest{Host: "webpics", User: "bob"})
	if err != nil {
		t.Fatal(err)
	}
	pairing, err := a1.ExchangeCode(code, "webpics")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a1.RegisterRealm(pairing.PairingID, core.ProtectRequest{Realm: "travel"}); err != nil {
		t.Fatal(err)
	}
	p, err := a1.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:   policy.EffectPermit,
			Subjects: []policy.Subject{{Type: policy.SubjectGroup, Name: "friends"}},
			Actions:  []core.Action{core.ActionRead},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a1.LinkGeneral("bob", "travel", p.ID); err != nil {
		t.Fatal(err)
	}
	if err := a1.AddGroupMember("bob", "bob", "friends", "alice"); err != nil {
		t.Fatal(err)
	}
	tok, err := a1.IssueToken(core.TokenRequest{
		Requester: "alice-browser", Subject: "alice", Host: "webpics",
		Realm: "travel", Resource: "photo", Action: core.ActionRead,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Snapshot → disk → reload, as cmd/amserver does on restart.
	path := filepath.Join(t.TempDir(), "am-state.json")
	if err := st.Snapshot(path); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	a2 := New(Config{Name: "am", Store: st2, TokenKey: key})

	// The pairing channel still verifies.
	secret, ok := a2.PairingSecret(pairing.PairingID)
	if !ok || secret != pairing.Secret {
		t.Fatal("pairing secret lost across restart")
	}
	// Group membership was rebuilt from the store.
	if got := a2.GroupMembers("bob", "friends"); len(got) != 1 || got[0] != "alice" {
		t.Fatalf("groups after restart = %v", got)
	}
	// Pre-restart tokens still decide correctly (stable key + persisted
	// realm/link state; the token carries its own grant context).
	dec, err := a2.Decide(pairing.PairingID, core.DecisionQuery{
		Host: "webpics", Realm: "travel", Resource: "photo",
		Action: core.ActionRead, Token: tok.Token,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Permit() {
		t.Fatalf("pre-restart token denied: %+v", dec)
	}
	// New tokens can be issued as well.
	if _, err := a2.IssueToken(core.TokenRequest{
		Requester: "alice-browser", Subject: "alice", Host: "webpics",
		Realm: "travel", Resource: "photo", Action: core.ActionRead,
	}); err != nil {
		t.Fatal(err)
	}
	// Without the stable key, old tokens fail closed (fresh random key).
	a3 := New(Config{Name: "am", Store: st2})
	dec, err = a3.Decide(pairing.PairingID, core.DecisionQuery{
		Host: "webpics", Realm: "travel", Resource: "photo",
		Action: core.ActionRead, Token: tok.Token,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Permit() {
		t.Fatal("token verified under a different master key")
	}
	if !dec.TokenProblem {
		t.Fatal("key-mismatch deny not flagged as token problem")
	}
}

func TestConsentApprovalReEvaluatesPolicy(t *testing.T) {
	// The owner approves a consent ticket, but by then the policy has been
	// replaced with a deny: approval must NOT mint a token.
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
	resp, err := a.IssueToken(core.TokenRequest{
		Requester: "editor", Subject: "evelyn", Host: "webpics",
		Realm: "private", Resource: "diary", Action: core.ActionRead,
	})
	if err != nil || resp.PendingConsent == "" {
		t.Fatalf("resp=%+v err=%v", resp, err)
	}
	// Policy flips to deny before the owner approves.
	p.Rules = []policy.Rule{{
		Effect:   policy.EffectDeny,
		Subjects: []policy.Subject{{Type: policy.SubjectEveryone}},
	}}
	if err := a.UpdatePolicy("bob", p); err != nil {
		t.Fatal(err)
	}
	if err := a.ResolveConsent("bob", resp.PendingConsent, true); err == nil {
		t.Fatal("consent approval minted a token against a denying policy")
	}
	st, err := a.ConsentStatus(resp.PendingConsent)
	if err != nil || st.Approved || st.Token != "" {
		t.Fatalf("st=%+v err=%v", st, err)
	}
}
