package am

import (
	"errors"
	"fmt"
	"testing"

	"umac/internal/cluster"
	"umac/internal/core"
	"umac/internal/policy"
)

// clusterFixture builds a two-shard ring and one AM per shard, plus one
// owner name hashing to each shard.
type clusterFixture struct {
	ring   *cluster.Ring
	amA    *AM
	amB    *AM
	ownerA core.UserID
	ownerB core.UserID
}

func newClusterFixture(t *testing.T) *clusterFixture {
	t.Helper()
	shards := []core.ShardInfo{
		{Name: "shard-a", Primary: "http://shard-a", Endpoints: []string{"http://shard-a"}},
		{Name: "shard-b", Primary: "http://shard-b", Endpoints: []string{"http://shard-b"}},
	}
	ring, err := cluster.New(shards, 64)
	if err != nil {
		t.Fatal(err)
	}
	f := &clusterFixture{ring: ring}
	for i := 0; f.ownerA == "" || f.ownerB == ""; i++ {
		owner := core.UserID(fmt.Sprintf("owner-%d", i))
		switch ring.Owner(owner).Name {
		case "shard-a":
			if f.ownerA == "" {
				f.ownerA = owner
			}
		case "shard-b":
			if f.ownerB == "" {
				f.ownerB = owner
			}
		}
	}
	f.amA = New(Config{Name: "am-a", Cluster: ClusterConfig{Shard: "shard-a", Ring: ring}})
	f.amB = New(Config{Name: "am-b", Cluster: ClusterConfig{Shard: "shard-b", Ring: ring}})
	t.Cleanup(func() { f.amA.Close(); f.amB.Close() })
	return f
}

// wantWrongShard asserts err is the structured wrong_shard error hinting
// at the given primary URL.
func wantWrongShard(t *testing.T, err error, hint string) {
	t.Helper()
	var ae *core.APIError
	if !errors.As(err, &ae) || ae.Code != core.CodeWrongShard {
		t.Fatalf("want wrong_shard, got %v", err)
	}
	if ae.Shard != hint {
		t.Fatalf("wrong_shard hint = %q, want %q", ae.Shard, hint)
	}
	if !ae.Retryable || ae.Status != 421 {
		t.Fatalf("wrong_shard must be retryable 421, got %+v", ae)
	}
}

func permitPolicy(owner core.UserID) policy.Policy {
	return policy.Policy{
		Owner: owner, Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:   policy.EffectPermit,
			Subjects: []policy.Subject{{Type: policy.SubjectEveryone}},
		}},
	}
}

func TestShardGateOnMutatingRoutes(t *testing.T) {
	f := newClusterFixture(t)

	// A foreign owner's writes bounce with the owning shard's primary as
	// the hint, on every owner-scoped mutation family.
	_, err := f.amB.CreatePolicy(f.ownerA, permitPolicy(f.ownerA))
	wantWrongShard(t, err, "http://shard-a")

	_, err = f.amB.ApprovePairing(core.PairingRequest{Host: "webpics", User: f.ownerA})
	wantWrongShard(t, err, "http://shard-a")

	wantWrongShard(t, f.amB.LinkGeneral(f.ownerA, "travel", "pol-x"), "http://shard-a")
	wantWrongShard(t, f.amB.AddGroupMember(f.ownerA, f.ownerA, "friends", "alice"), "http://shard-a")
	wantWrongShard(t, f.amB.AddCustodian(f.ownerA, "carol"), "http://shard-a")

	// The owner's own shard accepts the same calls.
	if _, err := f.amA.CreatePolicy(f.ownerA, permitPolicy(f.ownerA)); err != nil {
		t.Fatalf("own shard rejected owner: %v", err)
	}
	if err := f.amA.AddGroupMember(f.ownerA, f.ownerA, "friends", "alice"); err != nil {
		t.Fatalf("own shard rejected group write: %v", err)
	}
}

// TestShardOfWithoutOverrideAllocatesNothing: resolving an owner that has
// no override — every owner not mid-migration — runs on every decision
// item, so it must not allocate.
func TestShardOfWithoutOverrideAllocatesNothing(t *testing.T) {
	f := newClusterFixture(t)
	if n := testing.AllocsPerRun(100, func() { f.amA.shardOf(f.ownerA) }); n != 0 {
		t.Fatalf("shardOf: %v allocs per call, want 0", n)
	}
}

// protocolFixture pairs a host and protects a realm for owner on am.
func protocolFixture(t *testing.T, a *AM, owner core.UserID) (pairingID string, token string) {
	t.Helper()
	code, err := a.ApprovePairing(core.PairingRequest{Host: "webpics", User: owner})
	if err != nil {
		t.Fatal(err)
	}
	pairing, err := a.ExchangeCode(code, "webpics")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.RegisterRealm(pairing.PairingID, core.ProtectRequest{Realm: "travel"}); err != nil {
		t.Fatal(err)
	}
	p, err := a.CreatePolicy(owner, permitPolicy(owner))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.LinkGeneral(owner, "travel", p.ID); err != nil {
		t.Fatal(err)
	}
	tok, err := a.IssueToken(core.TokenRequest{
		Requester: "alice-browser", Subject: "alice", Host: "webpics",
		Realm: "travel", Resource: "photo", Action: core.ActionRead,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pairing.PairingID, tok.Token
}

func TestShardGateOnDecisionAfterOverride(t *testing.T) {
	f := newClusterFixture(t)
	pairingID, tok := protocolFixture(t, f.amA, f.ownerA)

	q := core.DecisionQuery{
		Host: "webpics", Realm: "travel", Resource: "photo",
		Action: core.ActionRead, Token: tok,
	}
	dec, err := f.amA.Decide(pairingID, q)
	if err != nil || !dec.Permit() {
		t.Fatalf("pre-override decide: dec=%+v err=%v", dec, err)
	}

	// The migration cutover: pin the owner to shard-b. The losing shard
	// still holds all the owner's state, but must stop serving decisions
	// and writes for it.
	if err := f.amA.SetOwnerShard(f.ownerA, "shard-b"); err != nil {
		t.Fatal(err)
	}
	_, err = f.amA.Decide(pairingID, q)
	wantWrongShard(t, err, "http://shard-b")

	_, err = f.amA.DecideBatch(pairingID, core.BatchDecisionQuery{
		Host: "webpics", Token: tok,
		Items: []core.BatchDecisionItem{{Realm: "travel", Resource: "photo", Action: core.ActionRead}},
	})
	wantWrongShard(t, err, "http://shard-b")

	_, err = f.amA.IssueToken(core.TokenRequest{
		Requester: "alice-browser", Subject: "alice", Host: "webpics",
		Realm: "travel", Resource: "photo", Action: core.ActionRead,
	})
	wantWrongShard(t, err, "http://shard-b")

	_, err = f.amA.CreatePolicy(f.ownerA, permitPolicy(f.ownerA))
	wantWrongShard(t, err, "http://shard-b")

	// Revocation must re-route too: acknowledging it against the losing
	// shard's stale pairing copy would leave the authoritative pairing
	// un-revoked.
	wantWrongShard(t, f.amA.RevokePairing(pairingID), "http://shard-b")

	// The gaining shard accepts the owner once its own override is set
	// (its hash ring would otherwise still map the owner to shard-a).
	if err := f.amB.SetOwnerShard(f.ownerA, "shard-b"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.amB.CreatePolicy(f.ownerA, permitPolicy(f.ownerA)); err != nil {
		t.Fatalf("gaining shard rejected migrated owner: %v", err)
	}
}

func TestSetOwnerShardValidation(t *testing.T) {
	f := newClusterFixture(t)
	if err := f.amA.SetOwnerShard(f.ownerA, "no-such-shard"); err == nil {
		t.Fatal("unknown shard accepted")
	}
	if err := f.amA.SetOwnerShard("", "shard-b"); err == nil {
		t.Fatal("empty owner accepted")
	}
	unsharded := New(Config{Name: "plain"})
	defer unsharded.Close()
	if err := unsharded.SetOwnerShard("bob", "shard-a"); err == nil {
		t.Fatal("unsharded node accepted an override")
	}
	if err := unsharded.checkShard("bob"); err != nil {
		t.Fatalf("unsharded node gated a write: %v", err)
	}
}

func TestClusterInfoReportsRingAndOverrides(t *testing.T) {
	f := newClusterFixture(t)
	if err := f.amA.SetOwnerShard(f.ownerA, "shard-b"); err != nil {
		t.Fatal(err)
	}
	info, err := f.amA.ClusterInfo()
	if err != nil {
		t.Fatal(err)
	}
	if info.Shard != "shard-a" || len(info.Shards) != 2 || info.Vnodes != 64 {
		t.Fatalf("cluster info wrong: %+v", info)
	}
	if info.Overrides[string(f.ownerA)] != "shard-b" {
		t.Fatalf("override missing from cluster info: %+v", info.Overrides)
	}
	unsharded := New(Config{Name: "plain"})
	defer unsharded.Close()
	if _, err := unsharded.ClusterInfo(); err == nil {
		t.Fatal("unsharded node served cluster info")
	}
}

func TestOwnerClosureSnapshotAndImport(t *testing.T) {
	f := newClusterFixture(t)
	pairingID, tok := protocolFixture(t, f.amA, f.ownerA)
	if err := f.amA.AddGroupMember(f.ownerA, f.ownerA, "friends", "alice"); err != nil {
		t.Fatal(err)
	}
	// Foreign noise that must not leak into ownerA's closure.
	if _, err := f.amB.CreatePolicy(f.ownerB, permitPolicy(f.ownerB)); err != nil {
		t.Fatal(err)
	}

	snap := f.amA.Store().ReplicationSnapshotFilter(replOwnerKeep(f.ownerA))
	kinds := make(map[string]int)
	for _, rec := range snap.Records {
		kinds[rec.Kind]++
	}
	for _, kind := range []string{kindPairing, kindRealm, kindPolicy, kindLinkGen, kindGroup} {
		if kinds[kind] == 0 {
			t.Fatalf("owner closure misses kind %s: %v", kind, kinds)
		}
	}

	// Import the closure into shard-b and pin the owner there: decisions
	// must work from migrated state alone — including the group-backed
	// policy, which exercises the directory install path.
	for _, rec := range snap.Records {
		if err := f.amB.applyImported(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.amB.SetOwnerShard(f.ownerA, "shard-b"); err != nil {
		t.Fatal(err)
	}
	// The pairing and realm resolve from migrated state (the token itself
	// was minted under amA's random key, so the decision is a token-problem
	// deny here — the sim workload covers shared-key clusters end to end).
	if _, err := f.amB.Decide(pairingID, core.DecisionQuery{
		Host: "webpics", Realm: "travel", Resource: "photo",
		Action: core.ActionRead, Token: tok,
	}); err != nil {
		t.Fatalf("decide on migrated state: %v", err)
	}
	// The group-backed directory must have been restored by the install
	// path, not just the store contents.
	members := f.amB.GroupMembers(f.ownerA, "friends")
	if len(members) != 1 || members[0] != "alice" {
		t.Fatalf("group directory not restored on import: %v", members)
	}
}

func TestRingUpdateVersioning(t *testing.T) {
	f := newClusterFixture(t)

	// A newer ring installs, swaps the routing view, and reports its
	// version; re-pushing the same version is an idempotent no-op; pushing
	// an older version is a conflict.
	next := f.ring.State()
	next.Version = 3
	info, err := f.amA.UpdateRing(next)
	if err != nil {
		t.Fatal(err)
	}
	if info.RingVersion != 3 {
		t.Fatalf("ring version %d after install, want 3", info.RingVersion)
	}
	if info, err = f.amA.UpdateRing(next); err != nil || info.RingVersion != 3 {
		t.Fatalf("same-version push: info=%+v err=%v", info, err)
	}
	stale := f.ring.State()
	stale.Version = 2
	if _, err := f.amA.UpdateRing(stale); err == nil {
		t.Fatal("stale ring push accepted")
	} else {
		var ae *core.APIError
		if !errors.As(err, &ae) || ae.Code != core.CodeConflict {
			t.Fatalf("stale ring push: want conflict, got %v", err)
		}
	}

	// The installed ring persists: a new AM over the same store must come
	// up at v3 even though its config seeds the v0 ring.
	st := f.amA.Store()
	f.amA.Close()
	reborn := New(Config{Name: "am-a2", Store: st, Cluster: ClusterConfig{Shard: "shard-a", Ring: f.ring}})
	defer reborn.Close()
	rinfo, err := reborn.ClusterInfo()
	if err != nil {
		t.Fatal(err)
	}
	if rinfo.RingVersion != 3 {
		t.Fatalf("rebuilt AM at ring v%d, want persisted v3", rinfo.RingVersion)
	}

	// A draining ring keeps the draining shard addressable (overrides and
	// hints still validate against it) but routes no owners to it.
	drain := f.ring.State()
	drain.Version = 4
	drain.Draining = []string{"shard-b"}
	if _, err := reborn.UpdateRing(drain); err != nil {
		t.Fatal(err)
	}
	if err := reborn.SetOwnerShard(f.ownerB, "shard-b"); err != nil {
		t.Fatalf("draining shard no longer addressable for overrides: %v", err)
	}
	inf, err := reborn.ClusterInfo()
	if err != nil {
		t.Fatal(err)
	}
	if len(inf.Draining) != 1 || inf.Draining[0] != "shard-b" {
		t.Fatalf("draining set %v, want [shard-b]", inf.Draining)
	}
}

func TestOwnerStatsEffectiveOwnership(t *testing.T) {
	f := newClusterFixture(t)
	if _, err := f.amA.CreatePolicy(f.ownerA, permitPolicy(f.ownerA)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.amA.CreatePolicy(f.ownerA, permitPolicy(f.ownerA)); err != nil {
		t.Fatal(err)
	}

	stats, err := f.amA.OwnerStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shard != "shard-a" || len(stats.Owners) != 1 {
		t.Fatalf("stats %+v, want one shard-a owner", stats)
	}
	if got := stats.Owners[0]; got.Owner != f.ownerA || got.Records < 2 {
		t.Fatalf("owner load %+v, want %s with >=2 records", got, f.ownerA)
	}

	// An owner pinned away stops counting even though its data is still
	// resident — OwnerStats reports effective ownership, so a rebalance
	// replan after an abort only sees the un-moved remainder.
	if err := f.amA.SetOwnerShard(f.ownerA, "shard-b"); err != nil {
		t.Fatal(err)
	}
	stats, err = f.amA.OwnerStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Owners) != 0 {
		t.Fatalf("migrated-away owner still counted: %+v", stats.Owners)
	}

	// Clearing the pin restores it, and ClearOwnerShard is idempotent.
	if err := f.amA.ClearOwnerShard(f.ownerA); err != nil {
		t.Fatal(err)
	}
	if err := f.amA.ClearOwnerShard(f.ownerA); err != nil {
		t.Fatalf("second clear not idempotent: %v", err)
	}
	stats, err = f.amA.OwnerStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Owners) != 1 {
		t.Fatalf("owner not restored after pin clear: %+v", stats.Owners)
	}
}
