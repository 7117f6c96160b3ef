// Package loadgen is the scenario-diverse load harness: it starts a small
// sharded amserver cluster, fronts every node with a fault-injection
// proxy, and drives UMA protocol traffic through the shard-aware typed
// client — the same SDK production callers use. Every scenario runs on
// two rigs (see rig.go): spawned amserver processes killed with a real
// SIGKILL, or the same nodes booted inside the calling process by
// internal/amserver from the same argument lists. Each scenario stresses
// a different axis of the paper's AM design:
//
//   - zipf_hot_owner: Zipf-distributed owner popularity — a handful of
//     hot owners absorb most of the decision traffic while writes trickle
//     in, with a latency shim phase on the hot shard.
//   - pairing_churn: IoT-style Host↔AM pairing lifecycle churn —
//     confirm/exchange/protect/decide/revoke loops, half of them under
//     injected latency.
//   - delegation_chain: custodian delegation chains — each owner appoints
//     the next as custodian, custodians write policies for their wards
//     cross-shard, and the chain is walked with decision queries.
//   - kill_migration: a hard kill of a shard primary in the middle of a
//     live owner migration; the follower answers every decision and no
//     write is acknowledged while it is down; recovery from the WAL, the
//     follower converging on the restarted primary, a migration retry
//     under load on the moving owner, and a zero-acknowledged-write-loss
//     audit afterwards.
//   - consent_storm: consent-gated token requests with subscribers on the
//     GET /v1/events/consent stream — resolution→notification latency
//     measured over the stream and over the TokenStatus poll loop, under
//     concurrent policy-write churn, with lost notifications counted as
//     Lost.
//   - ring_double: the ring grows from two shards to four through the
//     bulk-rebalance coordinator under sustained Zipf load; the plan is
//     aborted mid-way and re-posted, then a migrating shard primary AND
//     the coordinator host are killed mid-plan — the resumed plan must
//     finish unchanged, with zero acknowledged loss and a bounded
//     under-rebalance p99.
//   - kill_rebalance: shard-b is drained to extinction through the same
//     coordinator under the same two kills; afterwards the final ring
//     (shard-b gone) must be in force everywhere and the drained node
//     must disclaim every owner it used to serve.
//   - abusive_tenant: one tenant floods decisions and policy churn far
//     past its per-tenant rate budget while a victim on the SAME shard
//     runs the standard paced mix — the abuser must drown in 429s
//     (≥95% once over budget), the victim's decision p99 must stay
//     within 2x its clean-run baseline, and no acknowledged write may
//     be lost. The cluster runs with the abuse-control flags enabled
//     (the only scenario that does; see ScenarioExtraArgs).
//
// Every scenario reports per-phase throughput, p50/p99 latency, error and
// loss counters (Record), and asserts that no write acknowledged to the
// client is ever lost — the durability contract the WAL + replication +
// migration stack promises.
//
// The harness runs from `go test ./internal/loadgen` (small smoke
// instances on both rigs, subtests inproc and spawned, each checked
// against the scenario's exact phase list) and from `cmd/loadgen`
// (full-size runs on spawned processes). It is a correctness drill; the
// repo's performance is measured by benchmark/.
package loadgen

import (
	"context"
	"fmt"
	"sort"
	"strconv"
)

// Options sizes a scenario run. The zero value is invalid; use
// SmokeOptions or FullOptions as a base.
type Options struct {
	// Owners is how many resource owners the scenario provisions.
	Owners int
	// Ops is the per-phase operation budget (decisions, writes, churn
	// cycles — each scenario documents its own unit).
	Ops int
	// Seed feeds every random source in the scenario (Zipf picks, owner
	// spread), making runs reproducible bit-for-bit.
	Seed int64
}

// SmokeOptions is the CI-sized run: seconds per scenario, enough load to
// exercise every code path but not to produce stable latency numbers.
func SmokeOptions() Options { return Options{Owners: 4, Ops: 40, Seed: 1} }

// FullOptions is cmd/loadgen's default: minutes per scenario, enough
// samples for the p99 to mean something on one CPU.
func FullOptions() Options { return Options{Owners: 8, Ops: 400, Seed: 1} }

// Scenario drives one workload against a running rig and reports its
// per-phase measurements. Scenarios own their fault schedule (latency
// shims, partitions, kills) and restart every node they kill.
type Scenario func(ctx context.Context, rig *Rig, opts Options) (*Recorder, error)

// Scenarios is the registry, keyed by the scenario name that prefixes its
// record names. cmd/loadgen and the scenario smokes iterate it.
var Scenarios = map[string]Scenario{
	"zipf_hot_owner":   ZipfHotOwner,
	"pairing_churn":    PairingChurn,
	"delegation_chain": DelegationChain,
	"kill_migration":   KillMigration,
	"consent_storm":    ConsentStorm,
	"ring_double":      RingDouble,
	"kill_rebalance":   KillRebalance,
	"abusive_tenant":   AbusiveTenant,
}

// ScenarioExtraArgs returns the extra amserver flags a scenario's cluster
// must be started with (passed through to StartCluster). Most scenarios
// run the stock server; abusive_tenant needs the per-tenant limiter armed:
// tight pairing/session budgets sized so the paced victim mix fits with
// headroom while an unpaced flood is over budget within a second, and an
// effectively unlimited IP tier because every harness client shares
// 127.0.0.1 — the per-IP tier would otherwise punish the victim for the
// abuser's address.
func ScenarioExtraArgs(name string) []string {
	if name != "abusive_tenant" {
		return nil
	}
	rate, burst := strconv.Itoa(abuseRate), strconv.Itoa(2*abuseRate)
	return []string{
		"-rate-pairing", rate, "-rate-pairing-burst", burst,
		"-rate-session", rate, "-rate-session-burst", burst,
		"-rate-ip", "1000000", "-rate-ip-burst", "2000000",
	}
}

// ScenarioNames returns the registry keys sorted, for deterministic
// iteration order in CLIs and tests.
func ScenarioNames() []string {
	names := make([]string, 0, len(Scenarios))
	for name := range Scenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// phaseErr wraps an error with the scenario phase it interrupted, so a
// hung drain or a context deadline names the exact spot.
func phaseErr(phase string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("loadgen: phase %s: %w", phase, err)
}

// checkCtx is the per-iteration guard of every load loop: it converts a
// cancelled or expired context into a phase-named error instead of letting
// the loop spin against dead servers.
func checkCtx(ctx context.Context, phase string) error {
	select {
	case <-ctx.Done():
		return phaseErr(phase, ctx.Err())
	default:
		return nil
	}
}
