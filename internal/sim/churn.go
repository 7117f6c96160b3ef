package sim

import (
	"fmt"
	"net/http"
	"time"

	"umac/internal/am"
	"umac/internal/core"
	"umac/internal/pep"
	"umac/internal/policy"
	"umac/internal/requester"
)

// This file is the policy-churn + hot-resource workload behind the scoped
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
	// Batch resolves each round's misses through the batched decision
	// endpoint instead of per-pair queries.
	Batch bool
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
	pairs := make([]pep.ResourceAction, cfg.HotResources)
	for i := range hot {
		hot[i] = core.ResourceID(fmt.Sprintf("hot-%04d", i))
		pairs[i] = pep.ResourceAction{Resource: hot[i], Action: core.ActionRead}
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
		if cfg.Batch {
			results, err := h.Enforcer.CheckBatch(req, "bob", "hot", pairs)
			if err != nil {
				return err
			}
			for _, r := range results {
				result.Accesses++
				if r.Verdict != pep.VerdictAllow {
					result.Denied++
				}
			}
			return nil
		}
		for _, pr := range pairs {
			r, err := h.Enforcer.Check(req, "bob", "hot", pr.Resource, pr.Action)
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

// AwaitInvalidation waits until the cache has applied an invalidation
// since its generation read gen — every event the invalidation stream
// applies advances it — and fails after five seconds.
func AwaitInvalidation(c *pep.DecisionCache, gen uint64) error {
	deadline := time.Now().Add(5 * time.Second)
	for c.Gen() == gen {
		if time.Now().After(deadline) {
			return fmt.Errorf("sim: no invalidation applied within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// TokenRequestFor builds an http.Request presenting tok as the UMAC
// authorization token — the shape Check/CheckBatch expect from a
// Requester's access.
func TokenRequestFor(tok string) *http.Request {
	req, _ := http.NewRequest(http.MethodGet, "http://sim/", nil)
	req.Header.Set("Authorization", pep.TokenScheme+" "+tok)
	return req
}
