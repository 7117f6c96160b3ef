package rebalance_test

// The coordinator's proof suite runs against real AM nodes behind
// httptest servers — the same HTTP surface production coordinators
// drive — covering the three contracts ISSUE'd for the self-rebalancing
// cluster: crash-resume (a killed coordinator continues its checkpointed
// plan without double-migrating), abort (a clean stop leaves every owner
// wholly on exactly one shard with consistent wrong_shard hints, under
// concurrent writes), and end-to-end convergence for both topology
// directions (shard add, shard drain).

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"umac/internal/am"
	"umac/internal/amclient"
	"umac/internal/cluster"
	"umac/internal/core"
	"umac/internal/policy"
	"umac/internal/rebalance"
	"umac/internal/store"
)

const testSecret = "rebalance-test-secret"

// callCounter records per-(method,path-prefix,owner) request counts so
// tests can assert exactly-once migration work after a resume.
type callCounter struct {
	mu     sync.Mutex
	counts map[string]int
}

func (cc *callCounter) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := ""
		switch {
		case r.URL.Path == "/v1/replication/snapshot" && r.URL.Query().Get("owner") != "":
			key = "snapshot/" + r.URL.Query().Get("owner")
		case r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/v1/cluster/owners/"):
			key = "pin/" + strings.TrimPrefix(r.URL.Path, "/v1/cluster/owners/")
		}
		if key != "" {
			cc.mu.Lock()
			cc.counts[key]++
			cc.mu.Unlock()
		}
		next.ServeHTTP(w, r)
	})
}

func (cc *callCounter) get(key string) int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.counts[key]
}

func (cc *callCounter) snapshot() map[string]int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	out := make(map[string]int, len(cc.counts))
	for k, v := range cc.counts {
		out[k] = v
	}
	return out
}

// rig is a running multi-shard cluster of in-process AMs, one primary
// per shard, each behind a counting httptest server.
type rig struct {
	t      *testing.T
	ring   *cluster.Ring
	shards []core.ShardInfo
	ams    map[string]*am.AM
	srvs   map[string]*httptest.Server
	calls  *callCounter
	// handlers maps shard names to the http.Handler their server runs,
	// so a restart can swap the AM behind a live listener.
	handlers sync.Map
}

// newRig starts one AM primary per named shard, all built from the same
// version-0 ring over those shards.
func newRig(t *testing.T, shardNames ...string) *rig {
	t.Helper()
	r := &rig{
		t:     t,
		ams:   make(map[string]*am.AM),
		srvs:  make(map[string]*httptest.Server),
		calls: &callCounter{counts: make(map[string]int)},
	}
	// Servers first: the ring must name the URLs before the AMs exist.
	for _, name := range shardNames {
		srv := r.newServer(name)
		r.shards = append(r.shards, core.ShardInfo{
			Name: name, Primary: srv.URL, Endpoints: []string{srv.URL},
		})
	}
	ring, err := cluster.New(r.shards, 64)
	if err != nil {
		t.Fatal(err)
	}
	r.ring = ring
	for _, s := range r.shards {
		r.startAM(s.Name, nil)
	}
	t.Cleanup(r.close)
	return r
}

// newServer starts the named shard's server, serving whatever handler
// startAM last installed for it.
func (r *rig) newServer(name string) *httptest.Server {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		h, _ := r.handlers.Load(name)
		h.(http.Handler).ServeHTTP(w, req)
	}))
	r.srvs[name] = srv
	return srv
}

// startAM builds (or rebuilds, with the given store — the crash-restart
// path) the named shard's AM and points its server at it.
func (r *rig) startAM(name string, st *store.Store) *am.AM {
	r.t.Helper()
	a := am.New(am.Config{
		Name: "am-" + name, Store: st, BaseURL: r.srvs[name].URL,
		Replication: am.ReplicationConfig{Role: am.RolePrimary, Secret: testSecret},
		Cluster:     am.ClusterConfig{Shard: name, Ring: r.ring},
	})
	r.handlers.Store(name, r.calls.middleware(a.Handler()))
	r.ams[name] = a
	return a
}

// addShard starts a fresh, empty shard primary built from the rig's
// original ring (which does not include it): exactly how a new node
// joins — it owns nothing until a rebalance pushes a ring that includes
// it.
func (r *rig) addShard(name string) core.ShardInfo {
	r.t.Helper()
	srv := r.newServer(name)
	info := core.ShardInfo{Name: name, Primary: srv.URL, Endpoints: []string{srv.URL}}
	r.shards = append(r.shards, info)
	r.startAM(name, nil)
	return info
}

func (r *rig) close() {
	for _, a := range r.ams {
		a.Close()
	}
	for _, s := range r.srvs {
		s.Close()
	}
}

// client returns an admin client for the named shard's primary.
func (r *rig) client(name string) *amclient.Client {
	return amclient.New(amclient.Config{BaseURL: r.srvs[name].URL, ReplSecret: testSecret})
}

// seedOwners creates n owners per shard (by ring placement), each with
// two policies and a custodian record, and returns every owner seeded.
func (r *rig) seedOwners(perShard int) []core.UserID {
	r.t.Helper()
	var owners []core.UserID
	seeded := make(map[string]int, len(r.ams))
	for i := 0; ; i++ {
		owner := core.UserID(fmt.Sprintf("owner-%03d", i))
		shard := r.ring.Owner(owner).Name
		if seeded[shard] >= perShard {
			done := true
			for name := range r.ams {
				if seeded[name] < perShard {
					done = false
				}
			}
			if done {
				break
			}
			continue
		}
		seeded[shard]++
		owners = append(owners, owner)
		a := r.ams[shard]
		for j := 0; j < 2; j++ {
			if _, err := a.CreatePolicy(owner, permitPolicy(owner)); err != nil {
				r.t.Fatalf("seed policy for %s on %s: %v", owner, shard, err)
			}
		}
		if err := a.AddCustodian(owner, owner+"-friend"); err != nil {
			r.t.Fatalf("seed custodian for %s: %v", owner, err)
		}
	}
	return owners
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

// buildPlan gathers effective owners over the rig's live topology and
// plans toward target.
func (r *rig) buildPlan(req core.RebalanceRequest) *rebalance.Plan {
	r.t.Helper()
	owners, err := rebalance.GatherOwners(r.currentShards(), testSecret, nil)
	if err != nil {
		r.t.Fatal(err)
	}
	plan, err := rebalance.BuildPlan(req, owners)
	if err != nil {
		r.t.Fatal(err)
	}
	return plan
}

// currentShards returns the shard membership of the ring currently in
// force on the first seeded shard (the coordinator host's view).
func (r *rig) currentShards() []core.ShardInfo {
	info, err := r.client(r.shards[0].Name).ClusterInfo()
	if err != nil {
		r.t.Fatal(err)
	}
	return info.Shards
}

// targetAdd returns a v1 RingState adding the given shard infos.
func (r *rig) targetAdd(added ...core.ShardInfo) core.RingState {
	st := r.ring.State()
	st.Version = r.ring.Version() + 1
	st.Shards = append(append([]core.ShardInfo(nil), st.Shards...), added...)
	return st
}

// targetDrain returns a v1 RingState marking the given shard draining.
func (r *rig) targetDrain(name string) core.RingState {
	st := r.ring.State()
	st.Version = r.ring.Version() + 1
	st.Draining = append(st.Draining, name)
	return st
}

// coordinator builds a coordinator checkpointing through the named
// shard's store.
func (r *rig) coordinator(host string, cfg rebalance.Config) *rebalance.Coordinator {
	cfg.Store = r.ams[host].Store()
	cfg.Secret = testSecret
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	}
	return rebalance.New(cfg)
}

// effectiveOwners asks every live shard for its effective owner set.
func (r *rig) effectiveOwners() map[string][]core.UserID {
	r.t.Helper()
	out := make(map[string][]core.UserID)
	for name := range r.ams {
		stats, err := r.client(name).OwnerStats()
		if err != nil {
			r.t.Fatalf("owner stats of %s: %v", name, err)
		}
		for _, o := range stats.Owners {
			out[name] = append(out[name], o.Owner)
		}
	}
	return out
}

// assertConverged asserts every seeded owner is effectively owned by
// exactly the shard the target ring places it on, with no overrides left
// anywhere.
func (r *rig) assertConverged(owners []core.UserID, target core.RingState) {
	r.t.Helper()
	ring, err := cluster.NewState(target)
	if err != nil {
		r.t.Fatal(err)
	}
	byShard := r.effectiveOwners()
	placed := make(map[core.UserID]string)
	for shard, os := range byShard {
		for _, o := range os {
			if prev, dup := placed[o]; dup {
				r.t.Fatalf("owner %s effectively owned by both %s and %s", o, prev, shard)
			}
			placed[o] = shard
		}
	}
	for _, o := range owners {
		want := ring.Owner(o).Name
		if placed[o] != want {
			r.t.Errorf("owner %s on shard %q, target ring places it on %q", o, placed[o], want)
		}
	}
	for name := range r.ams {
		info, err := r.client(name).ClusterInfo()
		if err != nil {
			r.t.Fatal(err)
		}
		if len(info.Overrides) != 0 {
			r.t.Errorf("shard %s still holds %d overrides after convergence: %v", name, len(info.Overrides), info.Overrides)
		}
		if info.RingVersion != target.Version {
			r.t.Errorf("shard %s at ring v%d, want v%d", name, info.RingVersion, target.Version)
		}
	}
}

// --- End-to-end: shard add ---

func TestRebalanceAddShard(t *testing.T) {
	r := newRig(t, "shard-a", "shard-b")
	owners := r.seedOwners(8)
	added := r.addShard("shard-c")
	target := r.targetAdd(added)

	plan := r.buildPlan(core.RebalanceRequest{Target: target})
	if len(plan.Moves) == 0 {
		t.Fatal("shard add planned no moves")
	}
	for _, m := range plan.Moves {
		if m.To != "shard-c" {
			t.Fatalf("shard-add move %s targets %s, not the new shard", m.Owner, m.To)
		}
	}

	var moves []core.UserID
	co := r.coordinator("shard-a", rebalance.Config{
		Notify: func(signal string, owner core.UserID, st core.RebalanceStatus) {
			if signal == core.SignalRebalanceMove {
				moves = append(moves, owner)
			}
		},
	})
	if _, err := co.Start(plan); err != nil {
		t.Fatal(err)
	}
	st := co.Wait(60 * time.Second)
	if st.State != core.RebalanceDone {
		t.Fatalf("rebalance ended %q (%+v)", st.State, st)
	}
	if st.Done != len(plan.Moves) || st.Remaining != 0 {
		t.Fatalf("progress %d/%d remaining %d, want all %d done", st.Done, st.Total, st.Remaining, len(plan.Moves))
	}
	if len(moves) != len(plan.Moves) {
		t.Fatalf("got %d move signals, want %d", len(moves), len(plan.Moves))
	}
	r.assertConverged(owners, target)

	// Moved owners' data actually lives on the new shard and serves reads.
	for _, m := range plan.Moves {
		got := r.ams["shard-c"].ListPolicies(m.Owner)
		if len(got) != 2 {
			t.Errorf("owner %s has %d policies on shard-c, want 2", m.Owner, len(got))
		}
	}
}

// --- Crash-resume: the coordinator dies between moves and after a copy ---

func TestRebalanceCrashResume(t *testing.T) {
	r := newRig(t, "shard-a", "shard-b")
	r.seedOwners(8)
	added := r.addShard("shard-c")
	target := r.targetAdd(added)

	plan := r.buildPlan(core.RebalanceRequest{Target: target})
	if len(plan.Moves) < 5 {
		t.Fatalf("need at least 5 moves for the crash window, got %d", len(plan.Moves))
	}
	crashAfter := 3

	// Coordinator #1 dies (as a SIGKILL would: no abort, no failed
	// checkpoint) before its fourth move.
	started := 0
	co1 := r.coordinator("shard-a", rebalance.Config{
		BeforeMove: func(m core.RebalanceMove) error {
			if started++; started > crashAfter {
				return fmt.Errorf("injected crash before move %d", started)
			}
			return nil
		},
	})
	if _, err := co1.Start(plan); err != nil {
		t.Fatal(err)
	}
	st := co1.Wait(60 * time.Second)
	if st.State != core.RebalanceRunning || st.Done != crashAfter {
		t.Fatalf("after crash: state %q done %d, want running with %d done", st.State, st.Done, crashAfter)
	}

	// Push one pending owner past its copy leg by hand and checkpoint it
	// copied — the state a coordinator killed between copy and cutover
	// leaves behind.
	copiedOwner := plan.Moves[crashAfter].Owner
	src, dst := r.client(plan.Moves[crashAfter].From), r.client("shard-c")
	_, offset, err := amclient.MigrateCopy(src, dst, copiedOwner, "shard-c", nil)
	if err != nil {
		t.Fatal(err)
	}
	hostStore := r.ams["shard-a"].Store()
	if _, err := hostStore.Put("rebalance-move", plan.ID+"/"+string(copiedOwner),
		map[string]any{"phase": core.MoveCopied, "offset": offset}); err != nil {
		t.Fatal(err)
	}

	before := r.calls.snapshot()

	// Coordinator #2: a fresh process over the same checkpoint store.
	co2 := r.coordinator("shard-a", rebalance.Config{})
	if _, resumed, err := co2.Resume(); err != nil || !resumed {
		t.Fatalf("resume: resumed=%v err=%v", resumed, err)
	}
	st = co2.Wait(60 * time.Second)
	if st.State != core.RebalanceDone || st.Done != len(plan.Moves) {
		t.Fatalf("after resume: state %q done %d/%d", st.State, st.Done, st.Total)
	}

	// Exactly-once: finished owners saw no new snapshot fetch; the
	// copied-checkpoint owner resumed at cutover (no re-copy); each
	// still-pending owner was copied exactly once.
	for i, m := range plan.Moves {
		delta := r.calls.get("snapshot/"+string(m.Owner)) - before["snapshot/"+string(m.Owner)]
		switch {
		case i < crashAfter || m.Owner == copiedOwner:
			if delta != 0 {
				t.Errorf("owner %s (done or copied before resume) re-copied %d times", m.Owner, delta)
			}
		default:
			if delta != 1 {
				t.Errorf("owner %s copied %d times during resume, want exactly 1", m.Owner, delta)
			}
		}
	}
	r.assertConverged(nil, target)
}

// --- AM.Close stops the embedded coordinator like a crash ---

// TestAMCloseStopsCoordinator: closing the AM that hosts a running plan
// stops its coordinator before Close returns — no remote pin or copy
// afterwards — and leaves the plan running, so a new AM over the same
// store resumes it to done.
func TestAMCloseStopsCoordinator(t *testing.T) {
	r := newRig(t, "shard-a", "shard-b")
	r.seedOwners(8)
	added := r.addShard("shard-c")
	target := r.targetAdd(added)

	st, err := r.client("shard-a").RebalanceStart(core.RebalanceRequest{Target: target, MovesPerSec: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.Total < 3 {
		t.Fatalf("need at least 3 moves, got %d", st.Total)
	}
	host := r.ams["shard-a"]
	for host.Rebalancer().Status().Done < 1 {
		time.Sleep(5 * time.Millisecond)
	}
	host.Close()

	before := r.calls.snapshot()
	time.Sleep(time.Second) // four move intervals
	if after := r.calls.snapshot(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("coordinator kept working after AM.Close:\nbefore %v\nafter  %v", before, after)
	}
	stopped := host.Rebalancer().Status()
	if stopped.State != core.RebalanceRunning || stopped.Done >= stopped.Total {
		t.Fatalf("closed mid-plan, status %+v; want running with moves left", stopped)
	}

	resumed := r.startAM("shard-a", host.Store())
	st = resumed.Rebalancer().Wait(60 * time.Second)
	if st.State != core.RebalanceDone || st.Done != st.Total || st.ID != stopped.ID {
		t.Fatalf("after restart: %+v, want plan %s done", st, stopped.ID)
	}
	r.assertConverged(nil, target)
}

// --- Abort: clean stop at a move boundary under concurrent writes ---

func TestRebalanceAbortUnderWrites(t *testing.T) {
	r := newRig(t, "shard-a", "shard-b")
	owners := r.seedOwners(8)
	target := r.targetDrain("shard-b")

	// Rate-limit moves so the writer goroutines genuinely interleave with
	// the migration window instead of racing a sub-millisecond plan.
	plan := r.buildPlan(core.RebalanceRequest{Target: target, MovesPerSec: 10})
	if len(plan.Moves) < 4 {
		t.Fatalf("drain planned only %d moves", len(plan.Moves))
	}
	for _, m := range plan.Moves {
		if m.From != "shard-b" {
			t.Fatalf("drain move %s leaves %s, not the draining shard", m.Owner, m.From)
		}
	}

	// Concurrent acked writes against the moving owners, each through that
	// owner's own shard-aware client (chasing wrong_shard like production
	// PEPs do). Writes need a user session, so one client per owner.
	ccFor := make(map[core.UserID]*amclient.ClusterClient)
	for _, m := range plan.Moves {
		cc, err := amclient.NewCluster(amclient.Config{
			BaseURL: r.srvs["shard-a"].URL, User: m.Owner,
		})
		if err != nil {
			t.Fatal(err)
		}
		ccFor[m.Owner] = cc
	}
	stop := make(chan struct{})
	var wmu sync.Mutex
	acked := make(map[core.UserID][]core.PolicyID)
	var lastErr error
	var writers sync.WaitGroup
	for i := 0; i < 2; i++ {
		writers.Add(1)
		go func(lane int) {
			defer writers.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				owner := plan.Moves[(lane+2*n)%len(plan.Moves)].Owner
				p, err := ccFor[owner].CreatePolicy(permitPolicy(owner))
				if err != nil {
					wmu.Lock()
					lastErr = err
					wmu.Unlock()
					_ = ccFor[owner].Refresh()
					continue
				}
				wmu.Lock()
				acked[owner] = append(acked[owner], p.ID)
				wmu.Unlock()
			}
		}(i)
	}

	// Abort from the move-boundary hook: the third move completes, the
	// fourth never starts.
	var co *rebalance.Coordinator
	started := 0
	co = r.coordinator("shard-a", rebalance.Config{
		BeforeMove: func(m core.RebalanceMove) error {
			if started++; started == 3 {
				if _, err := co.Abort(); err != nil {
					t.Errorf("abort: %v", err)
				}
			}
			return nil
		},
	})
	if _, err := co.Start(plan); err != nil {
		t.Fatal(err)
	}
	st := co.Wait(60 * time.Second)
	close(stop)
	writers.Wait()
	if st.State != core.RebalanceAborted {
		t.Fatalf("state %q after abort, want aborted", st.State)
	}
	if st.Done >= len(plan.Moves) || st.Done < 1 {
		t.Fatalf("abort landed after %d/%d moves — not mid-plan", st.Done, st.Total)
	}

	// Every owner is wholly on exactly one shard, and both sides agree on
	// it: writes through the chasing client and direct hint checks.
	byShard := r.effectiveOwners()
	placed := make(map[core.UserID]string)
	for shard, os := range byShard {
		for _, o := range os {
			if prev, dup := placed[o]; dup {
				t.Fatalf("owner %s owned by both %s and %s after abort", o, prev, shard)
			}
			placed[o] = shard
		}
	}
	for _, o := range owners {
		if placed[o] == "" {
			t.Errorf("owner %s owned by no shard after abort", o)
		}
	}

	// No acked write lost: everything a writer got an ID for is readable
	// through the owner's client (whichever shard serves the owner now).
	wmu.Lock()
	defer wmu.Unlock()
	total := 0
	for owner, ids := range acked {
		if err := ccFor[owner].Refresh(); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if _, err := ccFor[owner].GetPolicy(owner, id); err != nil {
				t.Errorf("acked policy %s of %s lost after abort: %v", id, owner, err)
			}
		}
		total += len(ids)
	}
	if total == 0 {
		t.Fatalf("writers acked nothing; the abort ran without concurrent load (last write error: %v)", lastErr)
	}
	t.Logf("abort at %d/%d moves with %d concurrent acked writes, none lost", st.Done, st.Total, total)

	// Re-planning the same target covers exactly the remainder and
	// finishes the drain: the final ring drops shard-b everywhere.
	plan2 := r.buildPlan(core.RebalanceRequest{Target: target})
	if got := len(plan2.Moves); got != len(plan.Moves)-st.Done {
		t.Fatalf("re-plan has %d moves, want the %d remaining", got, len(plan.Moves)-st.Done)
	}
	co2 := r.coordinator("shard-a", rebalance.Config{})
	if _, err := co2.Start(plan2); err != nil {
		t.Fatal(err)
	}
	if st2 := co2.Wait(60 * time.Second); st2.State != core.RebalanceDone {
		t.Fatalf("drain completion ended %q", st2.State)
	}
	finalVersion := target.Version + 1
	for _, name := range []string{"shard-a", "shard-b"} {
		info, err := r.client(name).ClusterInfo()
		if err != nil {
			t.Fatal(err)
		}
		if info.RingVersion != finalVersion {
			t.Errorf("%s at ring v%d after drain, want v%d", name, info.RingVersion, finalVersion)
		}
		for _, s := range info.Shards {
			if s.Name == "shard-b" {
				t.Errorf("%s's final ring still contains the drained shard", name)
			}
		}
	}
	// The drained node disclaims owners it used to serve.
	for _, m := range plan.Moves {
		if _, err := r.ams["shard-b"].CreatePolicy(m.Owner, permitPolicy(m.Owner)); err == nil {
			t.Fatalf("drained shard still accepts writes for %s", m.Owner)
		}
	}
}

// --- Events: every lifecycle transition reaches an EventStream consumer ---

func TestRebalanceEventStream(t *testing.T) {
	r := newRig(t, "shard-a", "shard-b")
	r.seedOwners(4)
	added := r.addShard("shard-c")
	target := r.targetAdd(added)

	// The coordinator host's AM is where signals publish; subscribe its
	// node-wide stream with the repl-secret bearer before the plan runs.
	sc := r.client("shard-a")
	stream := sc.Stream(amclient.StreamConfig{
		Query: url.Values{"types": {"replication"}},
	})
	defer stream.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := stream.Connect(ctx); err != nil {
		t.Fatal(err)
	}

	plan := r.buildPlan(core.RebalanceRequest{Target: target})
	host := r.ams["shard-a"]
	co := r.coordinator("shard-a", rebalance.Config{
		Notify: func(signal string, owner core.UserID, st core.RebalanceStatus) {
			// Publish through the hosting AM's broker exactly as the
			// embedded coordinator does.
			host.Events().Publish(core.Event{
				Type: core.EventReplication, Signal: signal, Owner: owner, Rebalance: &st,
			})
		},
	})
	if _, err := co.Start(plan); err != nil {
		t.Fatal(err)
	}
	if st := co.Wait(60 * time.Second); st.State != core.RebalanceDone {
		t.Fatalf("rebalance ended %q", st.State)
	}

	seen := map[string]int{}
	var movedOwners []core.UserID
	var final core.RebalanceStatus
	for seen[core.SignalRebalanceDone] == 0 {
		ev, err := stream.Next(ctx)
		if err != nil {
			t.Fatalf("stream ended before rebalance-done: %v (seen %v)", err, seen)
		}
		if ev.Rebalance == nil {
			continue // ordinary replication signals interleave
		}
		seen[ev.Signal]++
		if ev.Signal == core.SignalRebalanceMove {
			if ev.Owner == "" {
				t.Error("rebalance-move event without an owner")
			}
			movedOwners = append(movedOwners, ev.Owner)
		}
		final = *ev.Rebalance
	}
	if seen[core.SignalRebalanceStarted] == 0 {
		t.Error("no rebalance-started event")
	}
	if len(movedOwners) != len(plan.Moves) {
		t.Errorf("saw %d move events, want %d", len(movedOwners), len(plan.Moves))
	}
	if final.State != core.RebalanceDone || final.Remaining != 0 {
		t.Errorf("final event carries %+v, want done with 0 remaining", final)
	}
}

// --- Planner properties (pure function, no HTTP) ---

func TestBuildPlanMovesExactlyTheRemapped(t *testing.T) {
	for _, vnodes := range []int{8, 64, 128} {
		shards := []core.ShardInfo{
			{Name: "s1", Primary: "http://s1"},
			{Name: "s2", Primary: "http://s2"},
			{Name: "s3", Primary: "http://s3"},
		}
		old, err := cluster.New(shards, vnodes)
		if err != nil {
			t.Fatal(err)
		}
		target := old.State()
		target.Version = 1
		target.Shards = append(target.Shards, core.ShardInfo{Name: "s4", Primary: "http://s4"})
		next, err := cluster.NewState(target)
		if err != nil {
			t.Fatal(err)
		}

		owners := make(map[string][]core.UserID)
		var all []core.UserID
		for i := 0; i < 200; i++ {
			o := core.UserID(fmt.Sprintf("u-%d-%d", vnodes, i))
			owners[old.Owner(o).Name] = append(owners[old.Owner(o).Name], o)
			all = append(all, o)
		}
		plan, err := rebalance.BuildPlan(core.RebalanceRequest{Target: target}, owners)
		if err != nil {
			t.Fatal(err)
		}

		planned := make(map[core.UserID]core.RebalanceMove, len(plan.Moves))
		for _, m := range plan.Moves {
			if _, dup := planned[m.Owner]; dup {
				t.Fatalf("vnodes=%d: owner %s planned twice", vnodes, m.Owner)
			}
			planned[m.Owner] = m
		}
		moved := 0
		for _, o := range all {
			from, to := old.Owner(o).Name, next.Owner(o).Name
			m, ok := planned[o]
			if from == to {
				if ok {
					t.Fatalf("vnodes=%d: unmoved owner %s planned (%+v)", vnodes, o, m)
				}
				continue
			}
			moved++
			if !ok {
				t.Fatalf("vnodes=%d: remapped owner %s not planned", vnodes, o)
			}
			if m.From != from || m.To != to || m.Phase != core.MovePending {
				t.Fatalf("vnodes=%d: move %+v, want %s→%s pending", vnodes, m, from, to)
			}
		}
		if moved != len(plan.Moves) {
			t.Fatalf("vnodes=%d: plan has %d moves, brute force says %d", vnodes, len(plan.Moves), moved)
		}
		// Minimal remap: adding 1 of 4 shards must move roughly 1/4, never
		// the majority.
		if moved == 0 || moved > len(all)/2 {
			t.Fatalf("vnodes=%d: %d/%d owners moved for a single added shard", vnodes, moved, len(all))
		}
	}
}

func TestBuildPlanRejectsDroppedShard(t *testing.T) {
	shards := []core.ShardInfo{
		{Name: "s1", Primary: "http://s1"},
		{Name: "s2", Primary: "http://s2"},
	}
	ring, err := cluster.New(shards, 16)
	if err != nil {
		t.Fatal(err)
	}
	target := core.RingState{Version: 1, Vnodes: 16, Shards: shards[:1]}
	owners := map[string][]core.UserID{"s2": {"alice"}}
	if _, err := rebalance.BuildPlan(core.RebalanceRequest{Target: target}, owners); err == nil {
		t.Fatal("dropping a populated shard without draining must be rejected")
	}
	_ = ring
}

func TestBuildPlanDrainFinalRing(t *testing.T) {
	shards := []core.ShardInfo{
		{Name: "s1", Primary: "http://s1"},
		{Name: "s2", Primary: "http://s2"},
		{Name: "s3", Primary: "http://s3"},
	}
	target := core.RingState{Version: 5, Vnodes: 16, Shards: shards, Draining: []string{"s2"}}
	plan, err := rebalance.BuildPlan(core.RebalanceRequest{Target: target},
		map[string][]core.UserID{"s2": {"alice", "bob"}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Final == nil {
		t.Fatal("drain plan has no final ring")
	}
	if plan.Final.Version != 6 || len(plan.Final.Shards) != 2 || len(plan.Final.Draining) != 0 {
		t.Fatalf("final ring %+v, want v6 with s1+s3", plan.Final)
	}
	for _, m := range plan.Moves {
		if m.From != "s2" || m.To == "s2" {
			t.Fatalf("drain move %+v touches the draining shard wrong", m)
		}
	}
}

func TestCoordinatorIdleSurface(t *testing.T) {
	st := store.New()
	co := rebalance.New(rebalance.Config{Store: st, Secret: "x"})
	if got := co.Status(); got.State != "" {
		t.Fatalf("fresh coordinator status %+v", got)
	}
	if _, resumed, err := co.Resume(); err != nil || resumed {
		t.Fatalf("nothing to resume, got resumed=%v err=%v", resumed, err)
	}
	if _, err := co.Abort(); err == nil {
		t.Fatal("abort with no plan must fail")
	}
}
