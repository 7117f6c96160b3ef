package loadgen

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"umac/internal/amclient"
	"umac/internal/core"
	"umac/internal/policy"
)

// The abusive-tenant isolation drill. One tenant (the abuser) floods the
// cluster with decisions and policy churn far past its per-tenant rate
// budget — from clients with 429 retries disabled, so every throttle
// surfaces — while a victim tenant homed on the SAME shard runs the
// standard paced mix. The scenario asserts the three properties the
// abuse controls promise an internet-facing AM:
//
//   - the abuser drowns: once over budget, at least abuseMinThrottleShare
//     of its requests answer rate_limited (429);
//   - the victim doesn't: its decision p99 under the flood stays within
//     abuseVictimSlack x its clean-run baseline (with a floor absorbing
//     smoke-run noise);
//   - nothing acknowledged is lost: every write either tenant saw
//     succeed — including the abuser's trickle of admitted writes — is
//     re-read afterwards.
//
// The cluster must be started with ScenarioExtraArgs("abusive_tenant"),
// which arms the limiter with tight pairing/session budgets and an
// effectively unlimited IP tier (all harness traffic shares 127.0.0.1).

const (
	// abuseFlooders is how many unpaced goroutines the abuser runs.
	abuseFlooders = 8
	// abuseRate is each tenant's armed pairing and session refill rate,
	// in cost units per second, with a burst of twice that
	// (ScenarioExtraArgs formats the flags from it).
	abuseRate = 10
	// abusePace is the victim's inter-op target interval. It spends half
	// of each budget — decisions cost 1 on the pairing budget, every
	// 10th op is a write costing 10 on the session budget — so the paced
	// mix fits with headroom while the unpaced flood is over budget.
	abusePace = 2 * time.Second / abuseRate
	// abuseMinThrottleShare is the minimum fraction of post-first-429
	// abuser requests that must be throttled.
	abuseMinThrottleShare = 0.95
	// abuseVictimSlack bounds the victim's under-flood decision p99 as a
	// multiple of its clean baseline; abuseVictimFloor absorbs the
	// smoke-sized baseline's noise (a 3ms baseline would otherwise make
	// a 7ms p99 a failure).
	abuseVictimSlack = 2.0
	abuseVictimFloor = 50 * time.Millisecond
)

// timedOp runs f as one op of ph and also returns its duration, so a
// phase mixing op kinds can keep a separate latency series for one kind.
func timedOp(ph *PhaseRec, f func() error) (time.Duration, error) {
	var d time.Duration
	err := ph.Op(func() error {
		t0 := time.Now()
		ferr := f()
		d = time.Since(t0)
		return ferr
	})
	return d, err
}

// isRateLimited reports whether err is the structured 429.
func isRateLimited(err error) bool {
	var ae *core.APIError
	return errors.As(err, &ae) && ae.Code == core.CodeRateLimited
}

// abuserClients builds shard-routed clients for the abuser with 429
// retries disabled: the flood must SEE its throttles, not absorb them.
func abuserClients(rig *Rig, or *OwnerRig) (decider, manager *amclient.ClusterClient, err error) {
	seed := rig.ClientConfig()
	seed.Retry429 = -1
	decCfg := seed
	decCfg.PairingID, decCfg.Secret = or.Pairing.PairingID, or.Pairing.Secret
	if decider, err = amclient.NewCluster(decCfg); err != nil {
		return nil, nil, err
	}
	mgrCfg := seed
	mgrCfg.User = or.Owner
	if manager, err = amclient.NewCluster(mgrCfg); err != nil {
		return nil, nil, err
	}
	return decider, manager, nil
}

// AbusiveTenant floods the cluster from one over-budget tenant while a
// victim on the same shard runs the paced standard mix, asserting tenant
// isolation: abuser ≥95% throttled once over budget, victim p99 within
// slack of its clean baseline, zero acknowledged-write loss.
func AbusiveTenant(ctx context.Context, rig *Rig, opts Options) (*Recorder, error) {
	rec := &Recorder{Scenario: "abusive_tenant"}
	victim := rig.OwnersFor("abuse-victim", "shard-a", 1)[0]
	abuser := rig.OwnersFor("abuse-flood", "shard-a", 1)[0]
	rigs, err := setupOwners(ctx, rig, rec, "setup", []core.UserID{victim, abuser})
	if err != nil {
		return rec, err
	}
	vr, ar := rigs[victim], rigs[abuser]
	floodDecider, floodManager, err := abuserClients(rig, ar)
	if err != nil {
		return rec, err
	}

	var (
		ackedMu sync.Mutex
		acked   []ackedWrite
	)
	ack := func(owner core.UserID, id core.PolicyID) {
		ackedMu.Lock()
		acked = append(acked, ackedWrite{owner, id})
		ackedMu.Unlock()
	}

	// victimMix runs the victim's standard paced mix — decisions with an
	// every-10th policy write — and returns the decision latency series.
	victimMix := func(phase string) ([]time.Duration, error) {
		ph := rec.Phase(phase)
		defer ph.End()
		var decDurs []time.Duration
		for i := 0; i < opts.Ops; i++ {
			if err := checkCtx(ctx, phase); err != nil {
				return nil, err
			}
			var d time.Duration
			if i%10 == 9 {
				var id core.PolicyID
				d, err = timedOp(ph, func() error {
					var werr error
					id, werr = vr.WritePolicy(i)
					return werr
				})
				if err != nil {
					return nil, phaseErr(phase, err)
				}
				ack(victim, id)
			} else {
				if d, err = timedOp(ph, vr.Decide); err != nil {
					return nil, phaseErr(phase, err)
				}
				decDurs = append(decDurs, d)
			}
			if d < abusePace {
				time.Sleep(abusePace - d)
			}
		}
		return decDurs, nil
	}

	// Clean baseline: the victim alone on an armed but idle limiter.
	cleanDurs, err := victimMix("victim_clean")
	if err != nil {
		return rec, err
	}

	// The flood. Abuser goroutines hammer unpaced until the victim's
	// measured window ends; throttle accounting starts at the first 429
	// (the burst allowance before it is the limiter working as designed).
	floodPh := rec.Phase("abuse_flood")
	var (
		overBudget     atomic.Bool
		floodAttempts  atomic.Int64 // post-first-429 requests
		floodThrottled atomic.Int64 // ... of which answered 429
		stop           = make(chan struct{})
		wg             sync.WaitGroup
		floodMu        sync.Mutex
		floodDurs      []time.Duration
		floodErrs      int
	)
	decideQ := core.DecisionQuery{
		Host: rigHost, Realm: ar.Realm, Resource: "photo",
		Action: core.ActionRead, Token: ar.Token,
	}
	for g := 0; g < abuseFlooders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var durs []time.Duration
			errs := 0
			defer func() {
				floodMu.Lock()
				floodDurs = append(floodDurs, durs...)
				floodErrs += errs
				floodMu.Unlock()
			}()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-ctx.Done():
					return
				default:
				}
				counted := overBudget.Load()
				t0 := time.Now()
				var err error
				if i%2 == 0 {
					_, err = floodDecider.Decide(abuser, decideQ)
				} else {
					var p policy.Policy
					p, err = floodManager.CreatePolicy(policy.Policy{
						Owner: abuser, Kind: policy.KindGeneral,
						Rules: []policy.Rule{{
							Effect:   policy.EffectPermit,
							Subjects: []policy.Subject{{Type: policy.SubjectUser, Name: fmt.Sprintf("flood-%d-%d", g, i)}},
							Actions:  []core.Action{core.ActionRead},
						}},
					})
					if err == nil {
						ack(abuser, p.ID)
					}
				}
				durs = append(durs, time.Since(t0))
				throttled := isRateLimited(err)
				if err != nil {
					errs++
				}
				if throttled {
					overBudget.Store(true)
				}
				if counted {
					floodAttempts.Add(1)
					if throttled {
						floodThrottled.Add(1)
					}
				}
			}
		}(g)
	}

	// The victim's measured window runs concurrently with the flood —
	// the one deliberate phase overlap in the harness; both records keep
	// their own wall clocks.
	abuseDurs, vErr := victimMix("victim_under_abuse")
	close(stop)
	wg.Wait()
	floodPh.durs = floodDurs
	floodPh.Errors = floodErrs
	floodPh.End()
	if vErr != nil {
		return rec, vErr
	}

	// Assertion 1: the abuser drowned.
	attempts, throttled := floodAttempts.Load(), floodThrottled.Load()
	if !overBudget.Load() || attempts == 0 {
		return rec, fmt.Errorf("loadgen: flood of %d requests never went over budget; the limiter is not armed", len(floodDurs))
	}
	share := float64(throttled) / float64(attempts)
	rig.Logf("loadgen: abuser: %d flood requests post-budget, %d throttled (%.1f%%)", attempts, throttled, 100*share)
	if share < abuseMinThrottleShare {
		return rec, fmt.Errorf("loadgen: abuser throttle share %.3f < %.2f (%d of %d requests 429)",
			share, abuseMinThrottleShare, throttled, attempts)
	}

	// Assertion 2: the victim didn't feel it.
	cleanP99, abuseP99 := sortedP99(cleanDurs), sortedP99(abuseDurs)
	bound := time.Duration(abuseVictimSlack * float64(cleanP99))
	if floor := abuseVictimFloor; bound < floor {
		bound = floor
	}
	rig.Logf("loadgen: victim decision p99: clean %s, under abuse %s (bound %s)", cleanP99, abuseP99, bound)
	if abuseP99 > bound {
		return rec, fmt.Errorf("loadgen: victim decision p99 %s under abuse exceeds %s (clean baseline %s)",
			abuseP99, bound, cleanP99)
	}

	// The limiter's own gauges must corroborate what the wire showed.
	if err := checkAbuseGauges(rig); err != nil {
		return rec, err
	}

	// Assertion 3: zero acknowledged loss, abuser's admitted writes
	// included — throttling must shed load, never durability.
	return rec, verifyAcked(ctx, rec, "verify", acked, func(w ackedWrite) error {
		_, err := rigs[w.owner].Manager.GetPolicy(w.owner, w.id)
		return err
	})
}

// sortedP99 is quantile() over an unsorted latency series.
func sortedP99(durs []time.Duration) time.Duration {
	if len(durs) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(durs))
	copy(sorted, durs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return quantile(sorted, 0.99)
}

// checkAbuseGauges reads the flooded primary's healthz and asserts the
// abuse gauges are present and recorded the flood.
func checkAbuseGauges(rig *Rig) error {
	node := rig.Nodes["a-primary"]
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(node.URL + "/v1/healthz")
	if err != nil {
		return fmt.Errorf("loadgen: healthz after flood: %w", err)
	}
	defer resp.Body.Close()
	var h core.HealthStatus
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return fmt.Errorf("loadgen: healthz after flood: %w", err)
	}
	if h.Abuse == nil {
		return errors.New("loadgen: flooded node's healthz carries no abuse gauges")
	}
	if h.Abuse.Throttled < 1 {
		return fmt.Errorf("loadgen: flooded node's gauges saw %d throttles; the wire saw thousands", h.Abuse.Throttled)
	}
	rig.Logf("loadgen: a-primary abuse gauges: allowed=%d throttled=%d buckets=%d top-share=%.2f",
		h.Abuse.Allowed, h.Abuse.Throttled, h.Abuse.Buckets, h.Abuse.TopTenantShare)
	return nil
}
