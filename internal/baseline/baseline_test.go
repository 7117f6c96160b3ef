// Package baseline_test exercises the pull-model and UMA-state baselines
// against a live AM over HTTP, verifying that all three protocol variants
// (push-token, pull, state) agree on who may access what while differing in
// round-trip structure — the premise of experiment E9.
package baseline_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"umac/internal/baseline/pullmodel"
	"umac/internal/baseline/umastate"
	"umac/internal/core"
	"umac/internal/policy"
	"umac/internal/sim"
)

// amExchanges lists the AM's wire log entries as "METHOD path status".
func amExchanges(w *sim.World) []string {
	var out []string
	for _, e := range w.Wire() {
		if e.Server == sim.AMServerName {
			out = append(out, fmt.Sprintf("%s %s %d", e.Method, e.Path, e.Status))
		}
	}
	return out
}

// expectAM compares the AM's wire log with want.
func expectAM(t *testing.T, w *sim.World, want ...string) {
	t.Helper()
	if got := amExchanges(w); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("AM wire log = %q, want %q", got, want)
	}
}

// setup builds a world where alice (friend) may read bob's travel realm.
func setup(t *testing.T) (*sim.World, *sim.SimpleHost) {
	t.Helper()
	w := sim.NewWorld()
	t.Cleanup(w.Close)
	h := w.AddHost("webpics")
	h.AddResource("bob", "travel", "photo-1", []byte("x"))
	bob := sim.NewUserAgent("bob")
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

func TestPullModelDecision(t *testing.T) {
	w, h := setup(t)
	pairing, _ := h.Enforcer.PairingFor("bob")
	pull := pullmodel.New("webpics", nil)
	w.ResetWire()

	ok, err := pull.Check(pairing, "alice", "alice-browser", "travel", "photo-1", core.ActionRead)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("alice denied in pull model")
	}
	ok, err = pull.Check(pairing, "mallory", "m-app", "travel", "photo-1", core.ActionRead)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("mallory permitted in pull model")
	}
	// Every check is an AM round-trip, a token request the Host makes and
	// drops: the defining pull-model property.
	expectAM(t, w,
		"POST /v1/token 200",
		"POST /v1/token 403",
	)
}

func TestPullModelUnknownRealm(t *testing.T) {
	_, h := setup(t)
	pairing, _ := h.Enforcer.PairingFor("bob")
	pull := pullmodel.New("webpics", nil)
	if _, err := pull.Check(pairing, "alice", "a", "ghosts", "photo-1", core.ActionRead); err == nil {
		t.Fatal("unknown realm accepted")
	}
}

func TestStateModelDecision(t *testing.T) {
	w, h := setup(t)
	pairing, _ := h.Enforcer.PairingFor("bob")

	w.ResetWire()
	rc := &umastate.RequesterClient{ID: "alice-browser", Subject: "alice"}
	handle, err := rc.Establish(w.AMServer.URL, "webpics", "travel", "photo-1", core.ActionRead)
	if err != nil {
		t.Fatal(err)
	}
	if handle == "" {
		t.Fatal("empty handle")
	}

	enf := umastate.New("webpics", nil)
	ok, err := enf.Check(pairing, handle, "travel", "photo-1", core.ActionRead)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("established state denied")
	}
	// A bogus handle is denied, not errored (the AM answers deny).
	ok, err = enf.Check(pairing, "state-forged", "travel", "photo-1", core.ActionRead)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("forged handle permitted")
	}
	// State is established once at the AM; each Host check is one
	// uncached decision round-trip on the handle.
	expectAM(t, w,
		"POST /v1/token 200",
		"POST /v1/api/decision 200",
		"POST /v1/api/decision 200",
	)
}

func TestStateEstablishmentDeniedForStranger(t *testing.T) {
	w, _ := setup(t)
	rc := &umastate.RequesterClient{ID: "m-app", Subject: "mallory"}
	_, err := rc.Establish(w.AMServer.URL, "webpics", "travel", "photo-1", core.ActionRead)
	if !errors.Is(err, core.ErrAccessDenied) {
		t.Fatalf("err = %v", err)
	}
}

func TestStateIsRealmScoped(t *testing.T) {
	w, h := setup(t)
	pairing, _ := h.Enforcer.PairingFor("bob")
	// Protect a second realm alice may also read.
	h.AddResource("bob", "work", "doc-1", []byte("y"))
	if err := h.Enforcer.Protect("bob", "work", []core.ResourceID{"doc-1"}, ""); err != nil {
		t.Fatal(err)
	}
	p, _ := w.AM.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:   policy.EffectPermit,
			Subjects: []policy.Subject{{Type: policy.SubjectUser, Name: "alice"}},
		}},
	})
	w.AM.LinkGeneral("bob", "work", p.ID)

	rc := &umastate.RequesterClient{ID: "alice-browser", Subject: "alice"}
	handle, err := rc.Establish(w.AMServer.URL, "webpics", "travel", "photo-1", core.ActionRead)
	if err != nil {
		t.Fatal(err)
	}
	enf := umastate.New("webpics", nil)
	// The travel-realm state must not open the work realm.
	ok, err := enf.Check(pairing, handle, "work", "doc-1", core.ActionRead)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("state crossed realms")
	}
}

func TestAllModelsAgreeOnOutcome(t *testing.T) {
	// The three delegated variants must produce identical allow/deny
	// outcomes for the same request — they differ only in mechanics.
	w, h := setup(t)
	pairing, _ := h.Enforcer.PairingFor("bob")
	pull := pullmodel.New("webpics", nil)
	stateEnf := umastate.New("webpics", nil)

	for _, tc := range []struct {
		subject core.UserID
		want    bool
	}{
		{"alice", true},
		{"mallory", false},
	} {
		// Pull.
		gotPull, err := pull.Check(pairing, tc.subject, core.RequesterID(tc.subject+"-app"), "travel", "photo-1", core.ActionRead)
		if err != nil {
			t.Fatal(err)
		}
		// State.
		rc := &umastate.RequesterClient{ID: core.RequesterID(tc.subject + "-app"), Subject: tc.subject}
		handle, err := rc.Establish(w.AMServer.URL, "webpics", "travel", "photo-1", core.ActionRead)
		gotState := err == nil
		if gotState {
			gotState, err = stateEnf.Check(pairing, handle, "travel", "photo-1", core.ActionRead)
			if err != nil {
				t.Fatal(err)
			}
		}
		// Push-token via the AM core.
		tok, err := w.AM.IssueToken(core.TokenRequest{
			Requester: core.RequesterID(tc.subject + "-app"), Subject: tc.subject,
			Host: "webpics", Realm: "travel", Resource: "photo-1", Action: core.ActionRead,
		})
		gotPush := err == nil
		if gotPush {
			dec, err := w.AM.Decide(pairing.PairingID, core.DecisionQuery{
				Host: "webpics", Realm: "travel", Resource: "photo-1",
				Action: core.ActionRead, Token: tok.Token,
			})
			if err != nil {
				t.Fatal(err)
			}
			gotPush = dec.Permit()
		}
		if gotPull != tc.want || gotState != tc.want || gotPush != tc.want {
			t.Fatalf("subject %s: pull=%v state=%v push=%v want=%v",
				tc.subject, gotPull, gotState, gotPush, tc.want)
		}
	}
}
