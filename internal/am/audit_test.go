package am

import (
	"fmt"
	"testing"

	"umac/internal/audit"
	"umac/internal/core"
	"umac/internal/policy"
)

// auditFixture pairs webpics for bob, protects "travel" with the
// friends-read policy, puts alice in friends and mints her a read token.
func auditFixture(t *testing.T, a *AM) (pairingID, tok string) {
	t.Helper()
	pr := pairHost(t, a, "webpics", "bob")
	protectRealm(t, a, pr.PairingID, "travel")
	friendsReadPolicy(t, a, "bob", "travel")
	if err := a.AddGroupMember("bob", "bob", "friends", "alice"); err != nil {
		t.Fatal(err)
	}
	resp, err := a.IssueToken(core.TokenRequest{
		Requester: "alice-browser", Subject: "alice", Host: "webpics",
		Realm: "travel", Resource: "photo", Action: core.ActionRead,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pr.PairingID, resp.Token
}

// TestAuditSeqFollowsCallOrder: decisions go through the asynchronous
// pipeline, so the policy writes, token and pairing events beside them
// must too — otherwise a policy write made after a decision lands first in
// seq order and an owner reads "revoked, then permitted" for a permit that
// happened before the revoke.
func TestAuditSeqFollowsCallOrder(t *testing.T) {
	a, _ := newTestAM(t)
	defer a.Close()
	pairingID, tok := auditFixture(t, a)
	setup := a.Audit().Query(audit.Filter{})
	after := setup[len(setup)-1].Seq

	q := core.DecisionQuery{Host: "webpics", Realm: "travel", Resource: "photo", Action: core.ActionRead, Token: tok}
	batch := core.BatchDecisionQuery{Host: "webpics", Token: tok}
	for i := 0; i < 16; i++ {
		batch.Items = append(batch.Items, core.BatchDecisionItem{
			Realm: "travel", Resource: core.ResourceID(fmt.Sprintf("p%d", i)), Action: core.ActionRead,
		})
	}
	var want []audit.EventType
	for i := 0; i < 300; i++ {
		switch i % 3 {
		case 0:
			if _, err := a.Decide(pairingID, q); err != nil {
				t.Fatal(err)
			}
			want = append(want, audit.EventDecision)
		case 1:
			if _, err := a.DecideBatch(pairingID, batch); err != nil {
				t.Fatal(err)
			}
			for range batch.Items {
				want = append(want, audit.EventDecision)
			}
		case 2:
			if _, err := a.CreatePolicy("bob", policy.Policy{
				Owner: "bob", Kind: policy.KindGeneral,
				Rules: []policy.Rule{{Effect: policy.EffectDeny, Subjects: []policy.Subject{{Type: policy.SubjectEveryone}}}},
			}); err != nil {
				t.Fatal(err)
			}
			want = append(want, audit.EventPolicyCreated)
		}
	}

	var got []audit.Event
	for _, e := range a.Audit().Query(audit.Filter{}) {
		if e.Seq > after {
			got = append(got, e)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d events after setup, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.Type != want[i] {
			t.Fatalf("event %d (seq %d) is %s, call order says %s", i, e.Seq, e.Type, want[i])
		}
		if e.Seq != after+int64(i)+1 {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, after+int64(i)+1)
		}
	}
}
