package sim

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"umac/internal/am"
	"umac/internal/amclient"
	"umac/internal/cluster"
	"umac/internal/core"
	"umac/internal/policy"
	"umac/internal/store"
)

// This file is the sharded-cluster workload: two shards (shard-a a durable
// primary with an in-memory follower, shard-b a durable primary) behind
// one consistent-hash ring, three owners spread across them, and a
// shard-aware client stream of writes and decisions. Mid-run one owner is
// live-migrated from shard-a to shard-b while its load keeps flowing, and
// afterwards shard-a's primary is hard-killed. The assertions are the
// cluster design's promises: zero acknowledged-write loss across both
// events, no decision served by the losing shard after cutover, and
// decision continuity throughout (the chase and the in-shard failover
// absorb the topology changes).

// clusterSecret and clusterTokenKey are the deployment-wide shared
// secrets of the workload.
const clusterSecret = "sim-cluster-secret"

var clusterTokenKey = []byte("sim-cluster-token-key-0123456789")

// ClusterReport summarizes one RunClusterWorkload execution.
type ClusterReport struct {
	// Owners maps the scenario roles to the generated owner names:
	// "stay" (shard-a resident), "move" (migrated a→b), "b" (shard-b
	// resident).
	Owners map[string]core.UserID
	// WritesAcked counts acknowledged policy writes per role, including
	// the migrated owner's writes during the migration window.
	WritesAcked map[string]int
	// DecisionsServed counts decision queries answered across all phases;
	// DecisionFailures counts ones no endpoint answered (0 in a healthy
	// run).
	DecisionsServed  int
	DecisionFailures int
	// MigrationWindowWrites counts the migrated owner's writes
	// acknowledged while the migration was in flight.
	MigrationWindowWrites int
	// Migration is the migration drill's own report.
	Migration amclient.MigrateReport
	// WrongShardAfterCutover reports whether the losing shard answered a
	// direct post-cutover decision with wrong_shard (it must).
	WrongShardAfterCutover bool
	// LostOnGainingShard lists the migrated owner's acknowledged policy
	// IDs missing from shard-b after the migration. Non-empty means the
	// zero-loss contract broke.
	LostOnGainingShard []core.PolicyID
	// DecisionsAfterKill counts decisions served after shard-a's primary
	// was killed (necessarily by its follower or by shard-b).
	DecisionsAfterKill int
	// LostAfterRecovery lists stay-owner policy IDs missing from
	// shard-a's store once reopened from its WAL.
	LostAfterRecovery []core.PolicyID
}

// clusterOwnerFor scans generated names for one hashing to the wanted
// shard (skipping any in taken).
func clusterOwnerFor(ring *cluster.Ring, shard string, taken map[core.UserID]bool) core.UserID {
	for i := 0; ; i++ {
		owner := core.UserID(fmt.Sprintf("user-%d", i))
		if !taken[owner] && ring.Owner(owner).Name == shard {
			taken[owner] = true
			return owner
		}
	}
}

// ClusterOwnerRig is one owner's protocol fixture and shard-aware
// clients in a sharded-cluster scenario. The cluster workload and the
// E16 benchmarks share it.
type ClusterOwnerRig struct {
	// Owner is the resource owner; Realm its per-owner protected realm.
	Owner core.UserID
	Realm core.RealmID
	// Pairing is the Host↔AM channel credential minted on the owner's
	// home shard; Token an authorization token for alice's reads.
	Pairing core.PairingResponse
	Token   string
	// Decider signs decision queries with the pairing credential;
	// Manager acts as the owner's session. Both route by owner.
	Decider *amclient.ClusterClient
	Manager *amclient.ClusterClient
}

// SetupClusterOwner builds pairing, realm, permit policy and token for
// owner entirely over the shard-routed HTTP surface: seed templates the
// per-shard clients (BaseURL names any cluster node; HTTPClient, timeouts
// and the rest are inherited), so the same rig drives in-process httptest
// clusters, the E16/E17 benchmarks, and the loadgen harness's real spawned
// binaries.
func SetupClusterOwner(seed amclient.Config, owner core.UserID) (*ClusterOwnerRig, error) {
	mgrCfg := seed
	mgrCfg.User = owner
	mgrCfg.PairingID, mgrCfg.Secret = "", ""
	manager, err := amclient.NewCluster(mgrCfg)
	if err != nil {
		return nil, err
	}
	code, err := manager.ConfirmPairing(owner, "webpics")
	if err != nil {
		return nil, fmt.Errorf("sim: confirm pairing for %s: %w", owner, err)
	}
	pairing, err := manager.ExchangePairingCode(owner, code, "webpics")
	if err != nil {
		return nil, fmt.Errorf("sim: exchange pairing code for %s: %w", owner, err)
	}
	decCfg := seed
	decCfg.User = ""
	decCfg.PairingID, decCfg.Secret = pairing.PairingID, pairing.Secret
	decider, err := amclient.NewCluster(decCfg)
	if err != nil {
		return nil, err
	}
	realm := core.RealmID("travel-" + string(owner))
	if _, err := decider.Protect(owner, core.ProtectRequest{Realm: realm}); err != nil {
		return nil, fmt.Errorf("sim: protect realm for %s: %w", owner, err)
	}
	pol, err := manager.CreatePolicy(policy.Policy{
		Owner: owner, Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:   policy.EffectPermit,
			Subjects: []policy.Subject{{Type: policy.SubjectUser, Name: "alice"}},
			Actions:  []core.Action{core.ActionRead},
		}},
	})
	if err != nil {
		return nil, fmt.Errorf("sim: base policy for %s: %w", owner, err)
	}
	if err := manager.LinkGeneral(owner, realm, pol.ID); err != nil {
		return nil, fmt.Errorf("sim: link policy for %s: %w", owner, err)
	}
	tok, err := manager.RequestToken(owner, core.TokenRequest{
		Requester: "alice-browser", Subject: "alice", Host: "webpics",
		Realm: realm, Resource: "photo", Action: core.ActionRead,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: token for %s: %w", owner, err)
	}
	return &ClusterOwnerRig{
		Owner: owner, Realm: realm, Pairing: pairing, Token: tok.Token,
		Decider: decider, Manager: manager,
	}, nil
}

// Decide runs one shard-routed decision for the rig's owner, requiring
// a permit.
func (r *ClusterOwnerRig) Decide() error {
	dec, err := r.Decider.Decide(r.Owner, core.DecisionQuery{
		Host: "webpics", Realm: r.Realm, Resource: "photo",
		Action: core.ActionRead, Token: r.Token,
	})
	if err != nil {
		return err
	}
	if !dec.Permit() {
		return fmt.Errorf("sim: unexpected deny for %s: %+v", r.Owner, dec)
	}
	return nil
}

// WritePolicy creates one throwaway permit policy for the rig's owner
// (i disambiguates the rule subject) and returns the acknowledged ID.
func (r *ClusterOwnerRig) WritePolicy(i int) (core.PolicyID, error) {
	p, err := r.Manager.CreatePolicy(policy.Policy{
		Owner: r.Owner, Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:   policy.EffectPermit,
			Subjects: []policy.Subject{{Type: policy.SubjectUser, Name: fmt.Sprintf("friend-%d", i)}},
			Actions:  []core.Action{core.ActionRead},
		}},
	})
	if err != nil {
		return "", err
	}
	return p.ID, nil
}

// RunClusterWorkload drives the sharded-cluster scenario in dir (scratch
// space for the two primaries' durable state). writes is the per-owner
// write budget of the steady phases. ctx bounds every phase: cancellation
// (or a test deadline) surfaces as a phase-named error instead of a hang.
func RunClusterWorkload(ctx context.Context, dir string, writes int) (ClusterReport, error) {
	rep := ClusterReport{
		Owners:      make(map[string]core.UserID),
		WritesAcked: make(map[string]int),
	}

	// --- Topology: shard-a (primary + follower), shard-b (primary) ---
	aStore, err := store.Open(filepath.Join(dir, "shard-a.json"))
	if err != nil {
		return rep, err
	}
	bStore, err := store.Open(filepath.Join(dir, "shard-b.json"))
	if err != nil {
		return rep, err
	}

	// The ring must name the URLs before the servers know their handlers;
	// allocate servers first, wire handlers after the AMs exist.
	aPrimarySrv := httptest.NewUnstartedServer(nil)
	aFollowerSrv := httptest.NewUnstartedServer(nil)
	bPrimarySrv := httptest.NewUnstartedServer(nil)
	aPrimarySrv.Start()
	aFollowerSrv.Start()
	bPrimarySrv.Start()

	shards := []core.ShardInfo{
		{Name: "shard-a", Primary: aPrimarySrv.URL, Endpoints: []string{aPrimarySrv.URL, aFollowerSrv.URL}},
		{Name: "shard-b", Primary: bPrimarySrv.URL, Endpoints: []string{bPrimarySrv.URL}},
	}
	ring, err := cluster.New(shards, 0)
	if err != nil {
		return rep, err
	}

	aPrimary := am.New(am.Config{
		Name: "am-a", Store: aStore, TokenKey: clusterTokenKey, BaseURL: aPrimarySrv.URL,
		Replication: am.ReplicationConfig{Role: am.RolePrimary, Secret: clusterSecret},
		Cluster:     am.ClusterConfig{Shard: "shard-a", Ring: ring},
	})
	bPrimary := am.New(am.Config{
		Name: "am-b", Store: bStore, TokenKey: clusterTokenKey, BaseURL: bPrimarySrv.URL,
		Replication: am.ReplicationConfig{Role: am.RolePrimary, Secret: clusterSecret},
		Cluster:     am.ClusterConfig{Shard: "shard-b", Ring: ring},
	})
	aPrimarySrv.Config.Handler = aPrimary.Handler()
	bPrimarySrv.Config.Handler = bPrimary.Handler()
	// The follower's sync loop dials the primary from inside am.New, so it
	// is built only once the primary's handler is in place.
	aFollower := am.New(am.Config{
		Name: "am-a-f", TokenKey: clusterTokenKey, BaseURL: aFollowerSrv.URL,
		Replication: am.ReplicationConfig{
			Role: am.RoleFollower, Secret: clusterSecret,
			PrimaryURL: aPrimarySrv.URL, PollWait: 100 * time.Millisecond,
		},
		Cluster: am.ClusterConfig{Shard: "shard-a", Ring: ring},
	})
	aFollowerSrv.Config.Handler = aFollower.Handler()
	// Shard-a's primary is hard-killed mid-run on the happy path; the
	// guard keeps early error returns from leaking its server, AM loops
	// and open WAL handle.
	aPrimaryClosed := false
	closeAPrimary := func() {
		if !aPrimaryClosed {
			aPrimaryClosed = true
			aPrimarySrv.Close()
			aPrimary.Close()
			aStore.Close()
		}
	}
	defer func() {
		closeAPrimary()
		aFollowerSrv.Close()
		aFollower.Close()
		bPrimarySrv.Close()
		bPrimary.Close()
		bStore.Close()
	}()

	taken := make(map[core.UserID]bool)
	ownerStay := clusterOwnerFor(ring, "shard-a", taken)
	ownerMove := clusterOwnerFor(ring, "shard-a", taken)
	ownerB := clusterOwnerFor(ring, "shard-b", taken)
	rep.Owners["stay"], rep.Owners["move"], rep.Owners["b"] = ownerStay, ownerMove, ownerB

	rigs := make(map[string]*ClusterOwnerRig, 3)
	for role, owner := range map[string]core.UserID{
		"stay": ownerStay, "move": ownerMove, "b": ownerB,
	} {
		rig, err := SetupClusterOwner(amclient.Config{BaseURL: aPrimarySrv.URL}, owner)
		if err != nil {
			return rep, fmt.Errorf("sim: setup %s: %w", owner, err)
		}
		rigs[role] = rig
	}
	var ackedMu sync.Mutex
	acked := make(map[string][]core.PolicyID)
	ack := func(role string, id core.PolicyID) {
		ackedMu.Lock()
		acked[role] = append(acked[role], id)
		rep.WritesAcked[role]++
		ackedMu.Unlock()
	}

	// --- Phase 1: steady sharded load on all three owners ---
	half := writes / 2
	for i := 0; i < half; i++ {
		if err := checkPhase(ctx, "steady-load"); err != nil {
			return rep, err
		}
		for role, rig := range rigs {
			id, err := rig.WritePolicy(i)
			if err != nil {
				return rep, fmt.Errorf("sim: phase-1 write for %s: %w", rig.Owner, err)
			}
			ack(role, id)
			if err := rig.Decide(); err != nil {
				rep.DecisionFailures++
			} else {
				rep.DecisionsServed++
			}
		}
	}

	// --- Phase 2: live-migrate ownerMove a→b while its load keeps
	// flowing ---
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var windowWrites, windowDecisions, windowFailures int
	wg.Add(1)
	go func() {
		defer wg.Done()
		rig := rigs["move"]
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			default:
			}
			if id, err := rig.WritePolicy(10000 + i); err == nil {
				ack("move", id)
				windowWrites++
			}
			if err := rig.Decide(); err != nil {
				windowFailures++
			} else {
				windowDecisions++
			}
		}
	}()
	src := amclient.New(amclient.Config{BaseURL: aPrimarySrv.URL, ReplSecret: clusterSecret})
	dst := amclient.New(amclient.Config{BaseURL: bPrimarySrv.URL, ReplSecret: clusterSecret})
	time.Sleep(20 * time.Millisecond) // let the window load overlap the copy
	rep.Migration, err = amclient.MigrateOwner(src, dst, ownerMove, "shard-b", nil)
	if err != nil {
		return rep, fmt.Errorf("sim: migration: %w", err)
	}
	time.Sleep(20 * time.Millisecond) // post-cutover load through the chase
	close(stop)
	wg.Wait()
	rep.MigrationWindowWrites = windowWrites
	rep.DecisionsServed += windowDecisions
	rep.DecisionFailures += windowFailures

	// No decision from the losing shard after cutover: a direct (ring-
	// oblivious) signed query against shard-a must answer wrong_shard.
	direct := amclient.New(amclient.Config{
		BaseURL: aPrimarySrv.URL, PairingID: rigs["move"].Pairing.PairingID, Secret: rigs["move"].Pairing.Secret,
	})
	_, err = direct.Decide(core.DecisionQuery{
		Host: "webpics", Realm: rigs["move"].Realm, Resource: "photo",
		Action: core.ActionRead, Token: rigs["move"].Token,
	})
	var ae *core.APIError
	rep.WrongShardAfterCutover = errors.As(err, &ae) && ae.Code == core.CodeWrongShard
	if !rep.WrongShardAfterCutover {
		return rep, fmt.Errorf("sim: losing shard answered a post-cutover decision with %v", err)
	}

	// Zero-loss check: every acknowledged ownerMove policy is on shard-b.
	bReader := amclient.New(amclient.Config{BaseURL: bPrimarySrv.URL, User: ownerMove})
	ackedMu.Lock()
	moveIDs := append([]core.PolicyID(nil), acked["move"]...)
	ackedMu.Unlock()
	for _, id := range moveIDs {
		if _, err := bReader.GetPolicy(id); err != nil {
			rep.LostOnGainingShard = append(rep.LostOnGainingShard, id)
		}
	}

	// Post-migration load: everything still flows (move now on shard-b).
	for i := 0; i < half; i++ {
		if err := checkPhase(ctx, "post-migration-load"); err != nil {
			return rep, err
		}
		for role, rig := range rigs {
			id, err := rig.WritePolicy(20000 + i)
			if err != nil {
				return rep, fmt.Errorf("sim: phase-3 write for %s: %w", rig.Owner, err)
			}
			ack(role, id)
			if err := rig.Decide(); err != nil {
				rep.DecisionFailures++
			} else {
				rep.DecisionsServed++
			}
		}
	}

	// --- Phase 3: hard-kill shard-a's primary ---
	// The follower must hold everything acknowledged so far before the
	// kill demonstrates decision continuity from replicated state.
	if err := awaitReplicated(ctx, "pre-kill-catchup", aFollower, aStore.LastSeq(), 10*time.Second); err != nil {
		return rep, err
	}
	closeAPrimary()

	for i := 0; i < half; i++ {
		if err := checkPhase(ctx, "post-kill-load"); err != nil {
			return rep, err
		}
		// ownerStay decisions fail over to shard-a's follower; the other
		// owners are untouched (shard-b).
		for _, role := range []string{"stay", "move", "b"} {
			if err := rigs[role].Decide(); err != nil {
				rep.DecisionFailures++
			} else {
				rep.DecisionsServed++
				rep.DecisionsAfterKill++
			}
		}
		// Writes to the dead shard must fail, not silently ack.
		if id, err := rigs["stay"].WritePolicy(30000 + i); err == nil {
			return rep, fmt.Errorf("sim: write %s acknowledged with shard-a's primary dead", id)
		}
	}

	// --- Phase 4: recover shard-a's primary from its WAL ---
	aStore2, err := store.Open(filepath.Join(dir, "shard-a.json"))
	if err != nil {
		return rep, err
	}
	recovered := am.New(am.Config{
		Name: "am-a", Store: aStore2, TokenKey: clusterTokenKey,
		Replication: am.ReplicationConfig{Role: am.RolePrimary, Secret: clusterSecret},
		Cluster:     am.ClusterConfig{Shard: "shard-a", Ring: ring},
	})
	defer func() {
		recovered.Close()
		aStore2.Close()
	}()
	ackedMu.Lock()
	stayIDs := append([]core.PolicyID(nil), acked["stay"]...)
	ackedMu.Unlock()
	for _, id := range stayIDs {
		if _, err := recovered.GetPolicy(id); err != nil {
			rep.LostAfterRecovery = append(rep.LostAfterRecovery, id)
		}
	}
	return rep, nil
}
