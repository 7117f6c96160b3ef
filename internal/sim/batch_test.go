package sim

import (
	"fmt"
	"net/http"
	"testing"
	"time"

	"umac/internal/am"
	"umac/internal/core"
	"umac/internal/pep"
	"umac/internal/policy"
	"umac/internal/requester"
)

// batchWorld builds a world with one host, n read-permitted resources for
// alice in realm "travel" owned by bob, and returns a request bearing
// alice's realm token.
func batchWorld(t *testing.T, n int) (*World, *SimpleHost, []pep.ResourceAction, *requestFixture) {
	t.Helper()
	w := NewWorldConfig(am.Config{DefaultCacheTTL: time.Hour})
	t.Cleanup(w.Close)
	h := w.AddHost("webpics")
	ids := make([]core.ResourceID, n)
	pairs := make([]pep.ResourceAction, n)
	for i := 0; i < n; i++ {
		ids[i] = core.ResourceID(fmt.Sprintf("photo-%04d", i))
		pairs[i] = pep.ResourceAction{Resource: ids[i], Action: core.ActionRead}
		h.AddResource("bob", "travel", ids[i], []byte("x"))
	}
	bob := NewUserAgent("bob")
	if err := bob.PairHost(h, w.AMServer.URL); err != nil {
		t.Fatal(err)
	}
	if err := h.Enforcer.Protect("bob", "travel", ids, ""); err != nil {
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
	client := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
	tok, err := client.ObtainToken(w.AMServer.URL, h.ID, "travel", ids[0], core.ActionRead)
	if err != nil {
		t.Fatal(err)
	}
	return w, h, pairs, &requestFixture{token: tok}
}

type requestFixture struct{ token string }

// TestBatchDecisionOneRoundTrip is the tentpole claim: resolving N uncached
// (resource, action) pairs costs ONE signed AM round-trip via CheckBatch,
// against N for per-pair Check — at least the 3× the acceptance criteria
// demand, here N×.
func TestBatchDecisionOneRoundTrip(t *testing.T) {
	const n = 8
	w, h, pairs, fx := batchWorld(t, n)
	req := TokenRequestFor(fx.token)

	// Per-pair baseline, cold cache.
	h.Enforcer.Cache().Invalidate()
	w.ResetWire()
	for _, pr := range pairs {
		res, err := h.Enforcer.Check(req, "bob", "travel", pr.Resource, pr.Action)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != pep.VerdictAllow {
			t.Fatalf("single check denied: %+v", res)
		}
	}
	single := w.AMRequests()
	if single != n {
		t.Fatalf("per-pair checks cost %d AM round-trips, want %d", single, n)
	}

	// Batched, cold cache.
	h.Enforcer.Cache().Invalidate()
	w.ResetWire()
	results, err := h.Enforcer.CheckBatch(req, "bob", "travel", pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Verdict != pep.VerdictAllow {
			t.Fatalf("batch item %d denied: %+v", i, res)
		}
	}
	batched := w.AMRequests()
	if batched != 1 {
		t.Fatalf("batch check cost %d AM round-trips, want 1", batched)
	}
	if single < 3*batched {
		t.Fatalf("batch saves %dx, want >= 3x", single/batched)
	}

	// The batch filled the cache: a second batch answers fully locally.
	w.ResetWire()
	results, err = h.Enforcer.CheckBatch(req, "bob", "travel", pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Verdict != pep.VerdictAllow || !res.CacheHit {
			t.Fatalf("warm batch item %d not a cache hit: %+v", i, res)
		}
	}
	if got := w.AMRequests(); got != 0 {
		t.Fatalf("warm batch cost %d AM round-trips, want 0", got)
	}
}

// TestBatchDecisionMixedVerdicts: one batch carrying permitted reads and a
// policy-denied write keeps per-item verdicts straight.
func TestBatchDecisionMixedVerdicts(t *testing.T) {
	_, h, pairs, fx := batchWorld(t, 2)
	req := TokenRequestFor(fx.token)
	mixed := append(pairs, pep.ResourceAction{Resource: pairs[0].Resource, Action: core.ActionWrite})
	results, err := h.Enforcer.CheckBatch(req, "bob", "travel", mixed)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Verdict != pep.VerdictAllow || results[1].Verdict != pep.VerdictAllow {
		t.Fatalf("reads denied: %+v", results)
	}
	if results[2].Verdict != pep.VerdictDeny {
		t.Fatalf("write verdict = %v, want deny", results[2].Verdict)
	}
}

// TestBatchDecisionDuplicatePairs: the same (resource, action) pair listed
// twice resolves once upstream and both result slots agree.
func TestBatchDecisionDuplicatePairs(t *testing.T) {
	w, h, pairs, fx := batchWorld(t, 1)
	req := TokenRequestFor(fx.token)
	dup := []pep.ResourceAction{pairs[0], pairs[0], pairs[0]}
	h.Enforcer.Cache().Invalidate()
	w.ResetWire()
	results, err := h.Enforcer.CheckBatch(req, "bob", "travel", dup)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Verdict != pep.VerdictAllow {
			t.Fatalf("dup item %d: %+v", i, res)
		}
	}
	if got := w.AMRequests(); got != 1 {
		t.Fatalf("duplicate pairs cost %d round-trips, want 1", got)
	}
}

// TestBatchDecisionChunksAboveLimit: a page wider than the AM's per-batch
// item limit resolves in ceil(n/limit) round-trips instead of erroring.
func TestBatchDecisionChunksAboveLimit(t *testing.T) {
	n := core.MaxBatchDecisionItems + 8
	w, h, pairs, fx := batchWorld(t, n)
	req := TokenRequestFor(fx.token)
	w.ResetWire()
	results, err := h.Enforcer.CheckBatch(req, "bob", "travel", pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Verdict != pep.VerdictAllow {
			t.Fatalf("item %d denied: %+v", i, res)
		}
	}
	if got := w.AMRequests(); got != 2 {
		t.Fatalf("oversized batch cost %d round-trips, want 2 (chunked)", got)
	}
}

// TestBatchDecisionWithoutToken: a tokenless batch refers every pair to the
// AM without any round-trip.
func TestBatchDecisionWithoutToken(t *testing.T) {
	w, h, pairs, _ := batchWorld(t, 3)
	req, err := newGet("http://host/res/x")
	if err != nil {
		t.Fatal(err)
	}
	w.ResetWire()
	results, err := h.Enforcer.CheckBatch(req, "bob", "travel", pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Verdict != pep.VerdictNeedToken || res.AMURL == "" {
			t.Fatalf("item %d = %+v, want need-token with AM URL", i, res)
		}
	}
	if got := w.AMRequests(); got != 0 {
		t.Fatalf("tokenless batch cost %d round-trips, want 0", got)
	}
}

// TestScopedInvalidationKeepsUnrelatedEntries is the scoped-eviction
// acceptance criterion: after a policy change on one realm, the affected
// pairing's entries are gone (no stale PERMIT survives) while cached
// decisions for an unrelated realm still answer locally.
func TestScopedInvalidationKeepsUnrelatedEntries(t *testing.T) {
	w := NewWorldConfig(am.Config{DefaultCacheTTL: time.Hour})
	t.Cleanup(w.Close)
	h := w.AddHost("webpics")
	h.AddResource("bob", "travel", "photo-1", []byte("x"))
	h.AddResource("bob", "work", "doc-1", []byte("x"))
	bob := NewUserAgent("bob")
	if err := bob.PairHost(h, w.AMServer.URL); err != nil {
		t.Fatal(err)
	}
	if err := h.Enforcer.Protect("bob", "travel", []core.ResourceID{"photo-1"}, ""); err != nil {
		t.Fatal(err)
	}
	if err := h.Enforcer.Protect("bob", "work", []core.ResourceID{"doc-1"}, ""); err != nil {
		t.Fatal(err)
	}
	mkPolicy := func(name string) policy.Policy {
		return policy.Policy{
			Owner: "bob", Name: name, Kind: policy.KindGeneral,
			Rules: []policy.Rule{{
				Effect:   policy.EffectPermit,
				Subjects: []policy.Subject{{Type: policy.SubjectUser, Name: "alice"}},
				Actions:  []core.Action{core.ActionRead},
			}},
		}
	}
	travelPol, err := w.AM.CreatePolicy("bob", mkPolicy("travel-pol"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AM.LinkGeneral("bob", "travel", travelPol.ID); err != nil {
		t.Fatal(err)
	}
	workPol, err := w.AM.CreatePolicy("bob", mkPolicy("work-pol"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AM.LinkGeneral("bob", "work", workPol.ID); err != nil {
		t.Fatal(err)
	}
	if err := h.Enforcer.StartInvalidationStream("bob"); err != nil {
		t.Fatal(err)
	}

	// Separate clients per realm so each keeps presenting its own realm's
	// token (a shared client's token juggling would add referral
	// round-trips that have nothing to do with the cache under test).
	alice := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
	aliceWork := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
	if _, err := alice.Fetch(h.ResourceURL("photo-1"), core.ActionRead); err != nil {
		t.Fatal(err)
	}
	if _, err := aliceWork.Fetch(h.ResourceURL("doc-1"), core.ActionRead); err != nil {
		t.Fatal(err)
	}
	if n := h.Enforcer.Cache().Len(); n != 2 {
		t.Fatalf("cache len = %d, want 2", n)
	}

	// Bob flips the travel policy to deny; the scoped event must evict the
	// travel entry and leave the work entry alone.
	travelPol.Rules = []policy.Rule{{
		Effect:   policy.EffectDeny,
		Subjects: []policy.Subject{{Type: policy.SubjectEveryone}},
	}}
	gen := h.Enforcer.Cache().Gen()
	if err := w.AM.UpdatePolicy("bob", travelPol); err != nil {
		t.Fatal(err)
	}
	if err := AwaitInvalidation(h.Enforcer.Cache(), gen); err != nil {
		t.Fatal(err)
	}
	if n := h.Enforcer.Cache().Len(); n != 1 {
		t.Fatalf("cache len after scoped event = %d, want 1 (work entry only)", n)
	}

	// No stale PERMIT: the next travel access is denied immediately.
	if resp, err := alice.Get(h.ResourceURL("photo-1"), core.ActionRead); err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != 403 {
			t.Fatalf("travel status = %d, want 403 right after the policy change", resp.StatusCode)
		}
	}

	// The unrelated work entry still answers locally: no AM round-trip.
	w.ResetWire()
	if _, err := aliceWork.Fetch(h.ResourceURL("doc-1"), core.ActionRead); err != nil {
		t.Fatal(err)
	}
	if got := w.AMRequests(); got != 0 {
		t.Fatalf("unrelated access cost %d AM round-trips, want 0 (still cached)", got)
	}
}

// The policy-churn + hot-resource workload behind the scoped
// cache-invalidation experiments (E14): a Requester hammers a hot set of
// cached resources while the owner keeps editing an unrelated realm's
// policy. Every edit reaches the Host as a scoped event on its
// invalidation stream; only the edited realm's entries fall out of the
// Host cache, so the hot set keeps answering locally and the AM sees no
// decision re-queries.

// ChurnConfig sizes the workload.
type ChurnConfig struct {
	// HotResources is the size of the hot set (all in one realm).
	HotResources int
	// Rounds is how many times the hot set is fully accessed.
	Rounds int
	// ChurnEvery inserts a policy change on the unrelated realm every N
	// rounds (0 = never).
	ChurnEvery int
}

// ChurnResult reports what the workload cost.
type ChurnResult struct {
	Accesses      int   // total (resource, action) checks performed
	PolicyChanges int   // unrelated-realm policy edits applied
	AMRoundTrips  int64 // HTTP requests that reached the AM after warmup
	CacheHits     int64 // Host decision-cache hits after warmup
	CacheMisses   int64 // Host decision-cache misses after warmup
	Denied        int   // sanity: must stay 0 (the hot policy never changes)
}

// RunChurnWorkload builds a world with a hot realm and a churning cold
// realm, warms the Host cache, then runs the access/churn mix and reports
// the AM round-trips it cost. Warmup traffic (pairing, protection, token
// issuance, first-touch decisions) is excluded from the counters.
func RunChurnWorkload(cfg ChurnConfig) (ChurnResult, error) {
	var result ChurnResult
	if cfg.HotResources <= 0 || cfg.Rounds <= 0 {
		return result, fmt.Errorf("sim: churn workload needs resources and rounds")
	}
	// Hour-long TTLs so every eviction observed is an invalidation effect,
	// not expiry.
	w := NewWorldConfig(am.Config{DefaultCacheTTL: time.Hour})
	defer w.Close()
	h := w.AddHost("webpics")

	hot := make([]core.ResourceID, cfg.HotResources)
	for i := range hot {
		hot[i] = core.ResourceID(fmt.Sprintf("hot-%04d", i))
		h.AddResource("bob", "hot", hot[i], []byte("x"))
	}
	h.AddResource("bob", "cold", "cold-0", []byte("x"))

	bob := NewUserAgent("bob")
	if err := bob.PairHost(h, w.AMServer.URL); err != nil {
		return result, err
	}
	if err := h.Enforcer.Protect("bob", "hot", hot, ""); err != nil {
		return result, err
	}
	if err := h.Enforcer.Protect("bob", "cold", []core.ResourceID{"cold-0"}, ""); err != nil {
		return result, err
	}
	// Policy setup goes through the typed v1 management API — the same
	// surface a real owner's tooling uses. (This is warmup traffic: the
	// round-trip counters reset below, after the cache warm.)
	mgmt := w.Client("bob")
	hotPol, err := mgmt.CreatePolicy(policy.Policy{
		Owner: "bob", Name: "hot-readers", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:   policy.EffectPermit,
			Subjects: []policy.Subject{{Type: policy.SubjectUser, Name: "alice"}},
			Actions:  []core.Action{core.ActionRead},
		}},
	})
	if err != nil {
		return result, err
	}
	if err := mgmt.LinkGeneral("bob", "hot", hotPol.ID); err != nil {
		return result, err
	}
	coldPol, err := mgmt.CreatePolicy(policy.Policy{
		Owner: "bob", Name: "cold-policy", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:   policy.EffectDeny,
			Subjects: []policy.Subject{{Type: policy.SubjectEveryone}},
		}},
	})
	if err != nil {
		return result, err
	}
	if err := mgmt.LinkGeneral("bob", "cold", coldPol.ID); err != nil {
		return result, err
	}

	// One token opens the whole hot realm.
	client := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
	tok, err := client.ObtainToken(w.AMServer.URL, h.ID, "hot", hot[0], core.ActionRead)
	if err != nil {
		return result, err
	}
	req, err := http.NewRequest(http.MethodGet, "http://workload/", nil)
	if err != nil {
		return result, err
	}
	req.Header.Set("Authorization", pep.TokenScheme+" "+tok)

	accessRound := func() error {
		for _, res := range hot {
			r, err := h.Enforcer.Check(req, "bob", "hot", res, core.ActionRead)
			if err != nil {
				return err
			}
			result.Accesses++
			if r.Verdict != pep.VerdictAllow {
				result.Denied++
			}
		}
		return nil
	}

	// Subscribe only now, after the setup mutations: their events would
	// otherwise race the warmup fill and drop it via the generation guard.
	if err := h.Enforcer.StartInvalidationStream("bob"); err != nil {
		return result, err
	}
	// Warm the cache, then exclude warmup traffic from the counters.
	if err := accessRound(); err != nil {
		return result, err
	}
	result = ChurnResult{}
	w.ResetWire()
	hits0, misses0 := h.Enforcer.Cache().Stats()

	churn := 0
	for round := 0; round < cfg.Rounds; round++ {
		if cfg.ChurnEvery > 0 && round%cfg.ChurnEvery == 0 {
			churn++
			coldPol.Name = fmt.Sprintf("cold-policy-%d", churn)
			gen := h.Enforcer.Cache().Gen()
			if err := w.AM.UpdatePolicy("bob", coldPol); err != nil {
				return result, err
			}
			if err := AwaitInvalidation(h.Enforcer.Cache(), gen); err != nil {
				return result, err
			}
			result.PolicyChanges++
		}
		if err := accessRound(); err != nil {
			return result, err
		}
	}
	result.AMRoundTrips = w.AMRequests()
	hits1, misses1 := h.Enforcer.Cache().Stats()
	result.CacheHits = hits1 - hits0
	result.CacheMisses = misses1 - misses0
	return result, nil
}

// TestChurnWorkloadScopedBeatsDropAll runs the E14 workload and asserts
// scoped invalidation suppresses the stampede entirely on this mix: the
// churned realm is not the hot realm, so the hot cache survives every
// event and no decision re-queries happen at all — where dropping the
// whole cache would force a full re-query round per churn.
func TestChurnWorkloadScopedBeatsDropAll(t *testing.T) {
	cfg := ChurnConfig{HotResources: 8, Rounds: 6, ChurnEvery: 2}
	scoped, err := RunChurnWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if scoped.Denied != 0 {
		t.Fatalf("hot accesses denied: %d", scoped.Denied)
	}
	if scoped.PolicyChanges != 3 {
		t.Fatalf("policy changes = %d, want 3", scoped.PolicyChanges)
	}
	if scoped.AMRoundTrips != 0 {
		t.Fatalf("scoped round-trips = %d, want 0 (hot cache must survive churn)", scoped.AMRoundTrips)
	}
	t.Logf("scoped: %+v", scoped)
}
