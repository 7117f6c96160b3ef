package am

import (
	"fmt"
	"testing"

	"umac/internal/core"
	"umac/internal/store"
	"umac/internal/token"
)

// TestCostLedger pins the allocations per call of the hot operations.
// Counts, unlike wall-clock numbers, repeat exactly from run to run, so a
// row failing means garbage crept back into that path. The ceilings are
// the measured values: a change that lowers one lowers its ceiling with
// it, and raising one needs a CHANGES.md line giving the reason.
func TestCostLedger(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	a, _ := newTestAM(t)
	pairingID, tok := protocolFixture(t, a, "bob")
	// Never-repeating resources, as a decision-cache miss sees them; the
	// names are built before counting.
	resources := make([]core.ResourceID, 20000)
	for i := range resources {
		resources[i] = core.ResourceID(fmt.Sprintf("photo-%d", i))
	}
	next := 0
	fresh := func() core.ResourceID { next++; return resources[next%len(resources)] }
	batch := core.BatchDecisionQuery{Host: "webpics", Token: tok, Items: make([]core.BatchDecisionItem, 16)}

	svc := token.NewService([]byte("ledger-key"), 0)
	minted, _, err := svc.Mint("alice-browser", "alice", "webpics", "travel")
	if err != nil {
		t.Fatal(err)
	}
	// Tokens never presented before, each carrying a term and consent, as
	// the memo misses them on first use; minted before counting.
	unseen := make([]string, 256)
	for i := range unseen {
		if unseen[i], _, err = svc.MintClaims(token.Claims{Requester: "printshop", Subject: "alice",
			Host: "webpics", Realm: "shop", Terms: map[string]string{"payment": "rcpt-42"}, Consent: true}); err != nil {
			t.Fatal(err)
		}
	}
	nextUnseen := 0
	issue := core.TokenRequest{Requester: "alice-browser", Subject: "alice", Host: "webpics",
		Realm: "travel", Resource: "photo", Action: core.ActionRead}

	// A struct without slices, maps or pointers: a Get hit is a copy.
	type flat struct {
		Name  string
		Count int
	}
	st := store.New()
	if _, err := st.Put("flat", "k", flat{Name: "n", Count: 1}); err != nil {
		t.Fatal(err)
	}

	rows := []struct {
		name    string
		ceiling float64
		op      func() error
	}{
		{"AM.Decide", 7, func() error {
			d, err := a.Decide(pairingID, core.DecisionQuery{Host: "webpics", Realm: "travel",
				Resource: fresh(), Action: core.ActionRead, Token: tok})
			if err == nil && !d.Permit() {
				err = fmt.Errorf("denied: %s", d.Reason)
			}
			return err
		}},
		{"AM.DecideBatch/16", 54, func() error {
			for i := range batch.Items {
				batch.Items[i] = core.BatchDecisionItem{Realm: "travel", Resource: fresh(), Action: core.ActionRead}
			}
			_, err := a.DecideBatch(pairingID, batch)
			return err
		}},
		{"AM.IssueToken/permit", 23, func() error {
			resp, err := a.IssueToken(issue)
			if err == nil && resp.Token == "" {
				err = fmt.Errorf("no token: %+v", resp)
			}
			return err
		}},
		{"token.Validate/memo-hit", 0, func() error {
			_, err := svc.Validate(minted)
			return err
		}},
		{"token.Validate/miss", 26, func() error {
			nextUnseen++
			_, err := svc.Validate(unseen[nextUnseen])
			return err
		}},
		{"store.Get/hit-no-slices", 0, func() error {
			var v flat
			_, err := st.Get("flat", "k", &v)
			return err
		}},
	}
	for _, r := range rows {
		var err error
		n := testing.AllocsPerRun(200, func() {
			if e := r.op(); e != nil && err == nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		t.Logf("%-26s %5.1f allocs/op (ceiling %v)", r.name, n, r.ceiling)
		if n > r.ceiling {
			t.Errorf("%s: %.1f allocs/op, ceiling %v", r.name, n, r.ceiling)
		}
	}
}
