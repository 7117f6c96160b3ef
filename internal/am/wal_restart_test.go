package am

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"umac/internal/audit"
	"umac/internal/core"
	"umac/internal/policy"
	"umac/internal/seglog"
	"umac/internal/store"
)

// TestAMStateSurvivesHardKill is the WAL counterpart of
// TestAMStateSurvivesRestart: state written through the AM is NEVER
// snapshot — the process "dies" with only the write-ahead log on disk —
// and a second instance opened from the same path must still serve
// decisions from every acknowledged write (what cmd/amserver guarantees
// between -snapshot-every ticks).
func TestAMStateSurvivesHardKill(t *testing.T) {
	key := []byte("stable-master-key-0123456789abcd")
	path := filepath.Join(t.TempDir(), "am-state.json")
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	a1 := New(Config{Name: "am", Store: st, TokenKey: key})

	// Full setup through the first instance: pairing, realm, policy, link,
	// group membership, and a minted token.
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
	// Hard kill: no Snapshot, no Close. Only the WAL survives.

	st2, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	a2 := New(Config{Name: "am", Store: st2, TokenKey: key})

	secret, ok := a2.PairingSecret(pairing.PairingID)
	if !ok || secret != pairing.Secret {
		t.Fatal("pairing secret lost across hard kill")
	}
	if got := a2.GroupMembers("bob", "friends"); len(got) != 1 || got[0] != "alice" {
		t.Fatalf("groups after replay = %v", got)
	}
	dec, err := a2.Decide(pairing.PairingID, core.DecisionQuery{
		Host: "webpics", Realm: "travel", Resource: "photo",
		Action: core.ActionRead, Token: tok.Token,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Permit() {
		t.Fatalf("pre-kill token denied after WAL replay: %+v", dec)
	}
}

// TestAMAuditSurvivesHardKill is the audit counterpart: decisions and PAP
// events, then no Close of the AM or the log — only the pipeline's flush
// tick writes the events — and a second instance opened from the same
// files must hold every event under its original seq and continue the
// sequence without duplicates.
func TestAMAuditSurvivesHardKill(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "am-state.json.audit")
	log1, err := audit.Open(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	a1 := New(Config{Name: "am", Audit: log1})
	pairingID, tok := auditFixture(t, a1)
	total := a1.Audit().Len() + 51
	q := core.DecisionQuery{Host: "webpics", Realm: "travel", Resource: "photo", Action: core.ActionRead, Token: tok}
	for i := 0; i < 50; i++ {
		if _, err := a1.Decide(pairingID, q); err != nil {
			t.Fatal(err)
		}
	}
	denyAll := policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{Effect: policy.EffectDeny, Subjects: []policy.Subject{{Type: policy.SubjectEveryone}}}},
	}
	if _, err := a1.CreatePolicy("bob", denyAll); err != nil {
		t.Fatal(err)
	}
	// a1.Audit() would flush the pipeline, so read the log directly: the
	// hard kill must rely on the tick alone. Once the worker has appended
	// every event, wait one flush interval, then give a loaded machine a
	// bounded grace period for the tick to run.
	deadline := time.Now().Add(5 * time.Second)
	for log1.Len() < total {
		if time.Now().After(deadline) {
			t.Fatalf("pipeline appended %d of %d events", log1.Len(), total)
		}
		time.Sleep(time.Millisecond)
	}
	want := log1.Query(audit.Filter{})
	time.Sleep(audit.FlushInterval)
	for onDisk(t, base) < total {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d events on disk without a Close", onDisk(t, base), total)
		}
		time.Sleep(10 * time.Millisecond)
	}

	log2, err := audit.Open(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	got := log2.Query(audit.Filter{})
	if len(got) != len(want) {
		t.Fatalf("reopened log holds %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq || got[i].Type != want[i].Type || got[i].Detail != want[i].Detail {
			t.Fatalf("event %d = %+v after reopen, want %+v", i, got[i], want[i])
		}
	}
	a2 := New(Config{Name: "am", Audit: log2})
	defer a2.Close()
	if _, err := a2.CreatePolicy("bob", denyAll); err != nil {
		t.Fatal(err)
	}
	all := a2.Audit().Query(audit.Filter{})
	if len(all) != len(want)+1 {
		t.Fatalf("after one more event: %d events, want %d", len(all), len(want)+1)
	}
	for i, e := range all {
		if e.Seq != int64(i)+1 {
			t.Fatalf("event %d has seq %d: sequence not continued densely", i, e.Seq)
		}
	}
}

// onDisk counts the complete audit records in the segment files under base.
func onDisk(t *testing.T, base string) int {
	t.Helper()
	segs, err := seglog.List(base)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, s := range segs {
		data, err := os.ReadFile(s.Path)
		if err != nil {
			t.Fatal(err)
		}
		seglog.Scan(bytes.NewReader(data), int64(len(data)), func([]byte) bool { n++; return true })
	}
	return n
}
