package amclient_test

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"umac/internal/am"
	"umac/internal/amclient"
	"umac/internal/cluster"
	"umac/internal/core"
	"umac/internal/policy"
)

// clusterWorld is a running two-shard cluster: one AM per shard behind a
// request-counting httptest server, both built from the same ring.
type clusterWorld struct {
	ring   *cluster.Ring
	shards []core.ShardInfo
	ams    map[string]*am.AM
	srvs   map[string]*httptest.Server
	calls  map[string]*atomic.Int64
	ownerA core.UserID // hashes to shard-a
	ownerB core.UserID // hashes to shard-b
}

const clusterTestSecret = "cluster-test-secret"

func newClusterWorld(t *testing.T) *clusterWorld {
	t.Helper()
	w := &clusterWorld{
		ams:   make(map[string]*am.AM),
		srvs:  make(map[string]*httptest.Server),
		calls: make(map[string]*atomic.Int64),
	}
	// Servers must exist before the ring (it names their URLs), so start
	// them on deferred handlers and wire the AMs after.
	handlers := make(map[string]*http.Handler)
	for _, name := range []string{"shard-a", "shard-b"} {
		var h http.Handler
		handlers[name] = &h
		counter := &atomic.Int64{}
		w.calls[name] = counter
		hp := handlers[name]
		srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			counter.Add(1)
			(*hp).ServeHTTP(rw, r)
		}))
		w.srvs[name] = srv
		t.Cleanup(srv.Close)
		w.shards = append(w.shards, core.ShardInfo{
			Name: name, Primary: srv.URL, Endpoints: []string{srv.URL},
		})
	}
	ring, err := cluster.New(w.shards, 64)
	if err != nil {
		t.Fatal(err)
	}
	w.ring = ring
	key := []byte("cluster-test-token-key-012345678")
	for _, s := range w.shards {
		a := am.New(am.Config{
			Name: "am-" + s.Name, BaseURL: s.Primary, TokenKey: key,
			Replication: am.ReplicationConfig{Role: am.RolePrimary, Secret: clusterTestSecret},
			Cluster:     am.ClusterConfig{Shard: s.Name, Ring: ring},
		})
		t.Cleanup(func() { a.Close() })
		w.ams[s.Name] = a
		*handlers[s.Name] = a.Handler()
	}
	for i := 0; w.ownerA == "" || w.ownerB == ""; i++ {
		owner := core.UserID(fmt.Sprintf("owner-%d", i))
		switch ring.Owner(owner).Name {
		case "shard-a":
			if w.ownerA == "" {
				w.ownerA = owner
			}
		case "shard-b":
			if w.ownerB == "" {
				w.ownerB = owner
			}
		}
	}
	return w
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

func TestClusterClientRoutesByOwner(t *testing.T) {
	w := newClusterWorld(t)
	cc, err := amclient.NewCluster(amclient.Config{BaseURL: w.srvs["shard-a"].URL, User: w.ownerB})
	if err != nil {
		t.Fatal(err)
	}
	w.calls["shard-a"].Store(0)
	w.calls["shard-b"].Store(0)
	if _, err := cc.CreatePolicy(permitPolicy(w.ownerB)); err != nil {
		t.Fatal(err)
	}
	// ownerB's policy create must land on shard-b directly — no bounce
	// through the seed endpoint.
	if got := w.calls["shard-a"].Load(); got != 0 {
		t.Fatalf("shard-a saw %d calls for a shard-b owner", got)
	}
	if got := w.calls["shard-b"].Load(); got != 1 {
		t.Fatalf("shard-b saw %d calls, want 1", got)
	}
}

// migrate pins owner to shard-b on both AMs (state already present or
// irrelevant for the scenario under test).
func (w *clusterWorld) migrate(t *testing.T, owner core.UserID) {
	t.Helper()
	if err := w.ams["shard-b"].SetOwnerShard(owner, "shard-b"); err != nil {
		t.Fatal(err)
	}
	if err := w.ams["shard-a"].SetOwnerShard(owner, "shard-b"); err != nil {
		t.Fatal(err)
	}
}

func TestClusterClientChasesHintOnceAndRefreshes(t *testing.T) {
	w := newClusterWorld(t)
	// The client learns the ring while ownerA still lives on shard-a.
	cc, err := amclient.NewCluster(amclient.Config{BaseURL: w.srvs["shard-a"].URL, User: w.ownerA})
	if err != nil {
		t.Fatal(err)
	}
	// Migrate ownerA's ownership to shard-b behind the client's back.
	w.migrate(t, w.ownerA)

	w.calls["shard-a"].Store(0)
	w.calls["shard-b"].Store(0)
	if _, err := cc.CreatePolicy(permitPolicy(w.ownerA)); err != nil {
		t.Fatalf("stale-ring call failed despite hint: %v", err)
	}
	// One bounced attempt on shard-a, then the ring refresh (served by the
	// hinted shard-b) and the chased retry on shard-b.
	if got := w.calls["shard-a"].Load(); got != 1 {
		t.Fatalf("shard-a saw %d calls, want exactly the one bounce", got)
	}

	// The refresh must stick: the next call goes straight to shard-b.
	w.calls["shard-a"].Store(0)
	w.calls["shard-b"].Store(0)
	if _, err := cc.CreatePolicy(permitPolicy(w.ownerA)); err != nil {
		t.Fatal(err)
	}
	if got := w.calls["shard-a"].Load(); got != 0 {
		t.Fatalf("shard-a saw %d calls after refresh, want 0", got)
	}
}

func TestClusterClientChasesAtMostOnce(t *testing.T) {
	w := newClusterWorld(t)
	cc, err := amclient.NewCluster(amclient.Config{BaseURL: w.srvs["shard-a"].URL, User: w.ownerA})
	if err != nil {
		t.Fatal(err)
	}
	// A half-flipped migration: shard-a disclaims ownerA (override → b)
	// but shard-b was never told to accept (its ring still maps ownerA to
	// shard-a). Both shards now answer wrong_shard pointing at each other;
	// the client must chase once and surface the error, not ping-pong.
	if err := w.ams["shard-a"].SetOwnerShard(w.ownerA, "shard-b"); err != nil {
		t.Fatal(err)
	}
	_, err = cc.CreatePolicy(permitPolicy(w.ownerA))
	if ws := wrongShard(err); ws == nil {
		t.Fatalf("want wrong_shard after a single chase, got %v", err)
	}
}

func TestClusterClientOwnerWithNoShard(t *testing.T) {
	w := newClusterWorld(t)
	cc, err := amclient.NewCluster(amclient.Config{BaseURL: w.srvs["shard-a"].URL, User: w.ownerA})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a ring naming a shard with no endpoints: every owner that
	// hashes there is unroutable, reported per call rather than breaking
	// the client as a whole.
	info := cc.Info()
	for i := range info.Shards {
		if info.Shards[i].Name == w.ring.Owner(w.ownerA).Name {
			info.Shards[i].Primary = ""
			info.Shards[i].Endpoints = nil
		}
	}
	if err := cc.Install(info); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.For(w.ownerA); err == nil {
		t.Fatal("owner mapping to an endpoint-less shard resolved a client")
	}
	if _, err := cc.CreatePolicy(permitPolicy(w.ownerA)); err == nil {
		t.Fatal("call for an unroutable owner succeeded")
	}
	// Other owners keep working (through their own session identity).
	ccB, err := amclient.NewCluster(amclient.Config{BaseURL: w.srvs["shard-b"].URL, User: w.ownerB})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ccB.CreatePolicy(permitPolicy(w.ownerB)); err != nil {
		t.Fatalf("unrelated owner broken by the unroutable shard: %v", err)
	}
}

func TestMigrateOwnerMovesClosure(t *testing.T) {
	w := newClusterWorld(t)
	// Fixture on shard-a: pairing + realm + policy for ownerA.
	amA := w.ams["shard-a"]
	code, err := amA.ApprovePairing(core.PairingRequest{Host: "webpics", User: w.ownerA})
	if err != nil {
		t.Fatal(err)
	}
	pairing, err := amA.ExchangeCode(code, "webpics")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := amA.RegisterRealm(pairing.PairingID, core.ProtectRequest{Realm: "travel"}); err != nil {
		t.Fatal(err)
	}
	pol, err := amA.CreatePolicy(w.ownerA, permitPolicy(w.ownerA))
	if err != nil {
		t.Fatal(err)
	}
	if err := amA.LinkGeneral(w.ownerA, "travel", pol.ID); err != nil {
		t.Fatal(err)
	}
	tok, err := amA.IssueToken(core.TokenRequest{
		Requester: "alice-browser", Subject: "alice", Host: "webpics",
		Realm: "travel", Resource: "photo", Action: core.ActionRead,
	})
	if err != nil {
		t.Fatal(err)
	}

	src := amclient.New(amclient.Config{BaseURL: w.srvs["shard-a"].URL, ReplSecret: clusterTestSecret})
	dst := amclient.New(amclient.Config{BaseURL: w.srvs["shard-b"].URL, ReplSecret: clusterTestSecret})
	rep, err := amclient.MigrateOwner(src, dst, w.ownerA, "shard-b", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SnapshotRecords == 0 || rep.FromShard != "shard-a" {
		t.Fatalf("report looks wrong: %+v", rep)
	}

	// The losing shard refuses the owner's decisions now…
	decider := amclient.New(amclient.Config{
		BaseURL: w.srvs["shard-a"].URL, PairingID: pairing.PairingID, Secret: pairing.Secret,
	})
	q := core.DecisionQuery{
		Host: "webpics", Realm: "travel", Resource: "photo",
		Action: core.ActionRead, Token: tok.Token,
	}
	if _, err := decider.Decide(q); wrongShard(err) == nil {
		t.Fatalf("losing shard still serves decisions: %v", err)
	}
	// …and the gaining shard serves them from migrated state (shared
	// token key, migrated pairing secret; the token carries its grant
	// context).
	decider2 := amclient.New(amclient.Config{
		BaseURL: w.srvs["shard-b"].URL, PairingID: pairing.PairingID, Secret: pairing.Secret,
	})
	dec, err := decider2.Decide(q)
	if err != nil || dec.Decision != "permit" {
		t.Fatalf("gaining shard: dec=%+v err=%v", dec, err)
	}

	// Bad target shard name is refused up front.
	if _, err := amclient.MigrateOwner(src, dst, w.ownerB, "shard-x", nil); err == nil {
		t.Fatal("migration to an unknown shard accepted")
	}
}

// wrongShard extracts a wrong_shard APIError, nil for anything else (the
// external-test mirror of the package's unexported helper).
func wrongShard(err error) *core.APIError {
	var ae *core.APIError
	if errors.As(err, &ae) && ae.Code == core.CodeWrongShard {
		return ae
	}
	return nil
}
