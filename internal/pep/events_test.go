package pep

import (
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"umac/internal/am"
	"umac/internal/amclient"
	"umac/internal/core"
	"umac/internal/policy"
)

// These tests prove the PEP's consumer side of the event control plane:
// StartInvalidationStream subscribes over the signed channel before it
// returns, applies scoped evictions pushed by the AM, reports a rejected
// subscription as an error, and Close never waits out a parked stream
// read.

// streamFixture pairs an Enforcer with a live AM over HTTP.
type streamFixture struct {
	am  *am.AM
	enf *Enforcer
}

func newStreamFixture(t *testing.T, owner core.UserID) *streamFixture {
	t.Helper()
	a := am.New(am.Config{Name: "am", Notifier: &am.Outbox{}})
	srv := httptest.NewServer(a.Handler())
	t.Cleanup(srv.Close)
	a.SetBaseURL(srv.URL)

	e := New(Config{Host: "h1", StreamRetry: 20 * time.Millisecond})
	t.Cleanup(func() { e.Close() })
	code, err := a.ApprovePairing(core.PairingRequest{Host: "h1", User: owner})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CompletePairing(srv.URL, owner, code); err != nil {
		t.Fatal(err)
	}
	return &streamFixture{am: a, enf: e}
}

// waitEmpty blocks until the decision cache drains (eviction applied).
func waitEmpty(t *testing.T, c *DecisionCache) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.Len() == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("cache still holds %d entries", c.Len())
}

// TestInvalidationStreamEvictsScoped: a PAP mutation at the AM reaches the
// subscribed PEP and evicts exactly the affected scope — the AM never
// dials the Host.
func TestInvalidationStreamEvictsScoped(t *testing.T) {
	f := newStreamFixture(t, "bob")
	if err := f.enf.Protect("bob", "travel", nil, ""); err != nil {
		t.Fatal(err)
	}
	pol, err := f.am.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:   policy.EffectPermit,
			Subjects: []policy.Subject{{Type: policy.SubjectEveryone}},
			Actions:  []core.Action{core.ActionRead},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}

	if err := f.enf.StartInvalidationStream("bob"); err != nil {
		t.Fatal(err)
	}

	cache := f.enf.Cache()
	cache.PutScopedAt(cache.Gen(), strKey("tok", "diary", core.ActionRead),
		EntryScope{Owner: "bob", Realm: "travel"}, true, 600)
	cache.PutScopedAt(cache.Gen(), strKey("tok", "pics", core.ActionRead),
		EntryScope{Owner: "carol", Realm: "albums"}, true, 600)

	// A PAP mutation scoped to bob's realm must evict bob's entry and leave
	// carol's alone.
	if err := f.am.LinkGeneral("bob", "travel", pol.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && cache.Len() > 1 {
		time.Sleep(5 * time.Millisecond)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache len = %d, want 1 (only carol's entry)", cache.Len())
	}
	if _, ok := cache.Get(strKey("tok", "pics", core.ActionRead)); !ok {
		t.Fatal("unrelated owner's entry was evicted")
	}
}

// TestInvalidationStreamUnscopedDropsAll: a node-wide (ownerless)
// invalidation event drops everything — when in doubt, no stale permits.
func TestInvalidationStreamUnscopedDropsAll(t *testing.T) {
	f := newStreamFixture(t, "bob")
	if err := f.enf.StartInvalidationStream("bob"); err != nil {
		t.Fatal(err)
	}
	cache := f.enf.Cache()
	cache.PutScopedAt(cache.Gen(), strKey("tok", "diary", core.ActionRead),
		EntryScope{Owner: "bob"}, true, 600)
	f.am.Events().Publish(core.Event{Type: core.EventInvalidation})
	waitEmpty(t, cache)
}

// TestInvalidationStreamAppliesEventRightAfterStart: StartInvalidationStream
// returns only once the AM has registered the subscription, so an event
// published the moment it returns is delivered — no waiting for the
// subscriber count first.
func TestInvalidationStreamAppliesEventRightAfterStart(t *testing.T) {
	f := newStreamFixture(t, "bob")
	cache := f.enf.Cache()
	cache.PutScopedAt(cache.Gen(), strKey("tok", "diary", core.ActionRead),
		EntryScope{Owner: "bob", Realm: "travel"}, true, 600)
	if err := f.enf.StartInvalidationStream("bob"); err != nil {
		t.Fatal(err)
	}
	f.am.Events().Publish(core.Event{
		Type: core.EventInvalidation, Owner: "bob",
		Invalidation: &core.InvalidationPush{Owner: "bob", Realms: []core.RealmID{"travel"}},
	})
	waitEmpty(t, cache)
}

// TestInvalidationStreamRejectedIsError: a subscription the AM refuses
// (here: a pairing secret the AM does not know) fails StartInvalidationStream
// itself instead of leaving a goroutine retrying in the background.
func TestInvalidationStreamRejectedIsError(t *testing.T) {
	f := newStreamFixture(t, "bob")
	f.enf.mu.Lock()
	p := f.enf.pairings["bob"]
	p.Secret = "not-the-pairing-secret"
	f.enf.pairings["bob"] = p
	f.enf.mu.Unlock()
	if err := f.enf.StartInvalidationStream("bob"); !errors.Is(err, amclient.ErrStreamFailed) {
		t.Fatalf("err = %v, want ErrStreamFailed", err)
	}
	if n := f.am.Events().Health().Subscribers[core.EventInvalidation]; n != 0 {
		t.Fatalf("AM holds %d invalidation subscribers after a rejected start", n)
	}
}

// TestStreamRequiresPairing: subscribing for an unpaired owner fails fast.
func TestStreamRequiresPairing(t *testing.T) {
	e := New(Config{Host: "h1"})
	defer e.Close()
	if err := e.StartInvalidationStream("nobody"); !errors.Is(err, core.ErrNotPaired) {
		t.Fatalf("err = %v, want ErrNotPaired", err)
	}
}

// TestClosePrompt: Close returns while a stream read is parked on a silent
// connection, mirroring the follower-sync cancellation discipline.
func TestClosePrompt(t *testing.T) {
	f := newStreamFixture(t, "bob")
	if err := f.enf.StartInvalidationStream("bob"); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		f.enf.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return while stream was parked")
	}
}

// TestInvalidationStreamFailureIsLogged: a subscription that fails for
// good once running (here: the pairing is revoked and the connection
// dropped) drops the cache and says so, naming the owner and the AM.
func TestInvalidationStreamFailureIsLogged(t *testing.T) {
	logs := captureLog(t)
	a := am.New(am.Config{Name: "am", Notifier: &am.Outbox{}})
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()
	a.SetBaseURL(srv.URL)
	e := New(Config{Host: "h1", StreamRetry: time.Hour})
	defer e.Close()
	code, err := a.ApprovePairing(core.PairingRequest{Host: "h1", User: "bob"})
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.CompletePairing(srv.URL, "bob", code)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.StartInvalidationStream("bob"); err != nil {
		t.Fatal(err)
	}
	if err := a.RevokePairing(p.PairingID); err != nil {
		t.Fatal(err)
	}
	srv.CloseClientConnections()

	want := "invalidation stream for bob at " + srv.URL + " failed"
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(logs.String(), want) {
		if time.Now().After(deadline) {
			t.Fatalf("no %q in log: %q", want, logs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
