package loadgen

import (
	"context"
	"fmt"
	"time"

	"umac/internal/cluster"
	"umac/internal/core"
)

// This file holds the bulk-rebalance fault drills: ring_double grows the
// cluster from two shards to four under sustained Zipf load while both a
// migrating shard primary and the coordinator itself are SIGKILLed
// mid-plan; kill_rebalance drains a shard to extinction under the same
// two kills. Both assert the coordinator's contracts against real
// processes: zero acknowledged-write loss, a crash-resumed plan that
// finishes without replanning, and a decision tail that stays bounded
// relative to the clean phase.

// rebalanceRate is the coordinator rate limit the drills request: slow
// enough that the kill windows provably land mid-plan, fast enough that
// a smoke run stays in seconds.
const rebalanceRate = 2.0

// mixedLoad drives a decide-heavy load loop (every 5th op a write) over
// the owner rigs until stop closes (or, with stop nil, for ops
// iterations). Errors are tallied, not fatal — kill windows legitimately
// refuse writes — and only acknowledged writes enter the audit set.
func mixedLoad(ctx context.Context, rec *Recorder, phase string, rigs map[core.UserID]*OwnerRig, owners []core.UserID, ops int, stop <-chan struct{}, acked *[]ackedWrite) error {
	ph := rec.Phase(phase)
	defer ph.End()
	for i := 0; stop != nil || i < ops; i++ {
		if err := checkCtx(ctx, phase); err != nil {
			return err
		}
		if stop != nil {
			select {
			case <-stop:
				return nil
			default:
			}
		}
		or := rigs[owners[i%len(owners)]]
		if i%5 == 0 {
			var id core.PolicyID
			err := ph.Op(func() error {
				var werr error
				id, werr = or.WritePolicy(i)
				return werr
			})
			if err == nil {
				*acked = append(*acked, ackedWrite{or.Owner, id})
			}
		} else {
			ph.Op(or.Decide)
		}
	}
	return nil
}

// awaitMoves polls the coordinator until its checkpointed progress shows
// at least want completed moves (or a terminal state). Poll errors are
// tolerated — the coordinator host may be dead or restarting — and the
// last successfully read status is returned.
func awaitMoves(ctx context.Context, rig *Rig, want int) (core.RebalanceStatus, error) {
	var last core.RebalanceStatus
	for {
		if err := checkCtx(ctx, "await-moves"); err != nil {
			return last, err
		}
		st, err := rig.AdminClient("a-primary").RebalanceStatus()
		if err == nil {
			last = st
			if st.Done >= want || (st.State != core.RebalanceRunning && st.State != "") {
				return st, nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// bounceNode SIGKILLs a node, lets the cluster feel the loss, and
// restarts it from its WAL.
func bounceNode(ctx context.Context, rig *Rig, name string, down time.Duration) error {
	rig.Logf("loadgen: SIGKILL %s", name)
	rig.Nodes[name].Kill()
	time.Sleep(down)
	if err := rig.Restart(ctx, name); err != nil {
		return fmt.Errorf("loadgen: restart %s: %w", name, err)
	}
	rig.Logf("loadgen: %s recovered", name)
	return nil
}

// abortAndReplan lets the running plan complete one move, aborts it with
// DELETE /v1/rebalance, and requires the abort to land mid-plan with every
// seeded owner effectively on exactly one of the four shards. It then
// re-posts target and requires the new plan to cover exactly the moves
// the aborted one had left, returning its status.
func abortAndReplan(ctx context.Context, rig *Rig, owners []core.UserID, target core.RingState) (core.RebalanceStatus, error) {
	coord := rig.AdminClient("a-primary")
	st, err := awaitMoves(ctx, rig, 1)
	if err != nil {
		return st, err
	}
	if _, err := coord.RebalanceAbort(); err != nil {
		return st, phaseErr("abort", err)
	}
	for {
		if err := checkCtx(ctx, "abort"); err != nil {
			return st, err
		}
		if st, err = coord.RebalanceStatus(); err != nil {
			return st, phaseErr("abort", err)
		}
		if st.State != core.RebalanceRunning {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if st.State != core.RebalanceAborted || st.Done >= st.Total {
		return st, fmt.Errorf("loadgen: abort landed as %q after %d/%d moves, not mid-plan", st.State, st.Done, st.Total)
	}
	placed := make(map[core.UserID]int)
	for _, name := range []string{"a-primary", "b-primary", "shard-c-primary", "shard-d-primary"} {
		stats, err := rig.AdminClient(name).OwnerStats()
		if err != nil {
			return st, phaseErr("abort", err)
		}
		for _, o := range stats.Owners {
			placed[o.Owner]++
		}
	}
	for _, owner := range owners {
		if placed[owner] != 1 {
			return st, fmt.Errorf("loadgen: owner %s effectively on %d shards after the abort, want exactly 1", owner, placed[owner])
		}
	}
	left := st.Total - st.Done
	re, err := startRebalance(rig, target)
	if err != nil {
		return re, phaseErr("replan", err)
	}
	if re.Total != left {
		return re, fmt.Errorf("loadgen: re-posted plan has %d moves, the aborted one left %d", re.Total, left)
	}
	rig.Logf("loadgen: rebalance aborted after %d/%d moves; re-posted plan %s covers the %d left", st.Done, st.Total, re.ID, re.Total)
	return re, nil
}

// guardTail enforces the rebalance latency contract: the stressed
// phase's p99 must stay within factor times the clean phase's p99, with
// an absolute floor absorbing scheduler noise on tiny CI containers.
func guardTail(rec *Recorder, clean, stressed string, factor float64, floor time.Duration) error {
	var cleanP99, stressedP99 int64 = -1, -1
	for _, r := range rec.Records() {
		switch r.Name {
		case fmt.Sprintf("Loadgen/%s/%s", rec.Scenario, clean):
			cleanP99 = r.P99Ns
		case fmt.Sprintf("Loadgen/%s/%s", rec.Scenario, stressed):
			stressedP99 = r.P99Ns
		}
	}
	if cleanP99 < 0 || stressedP99 < 0 {
		return fmt.Errorf("loadgen: tail guard: phases %q/%q not both recorded", clean, stressed)
	}
	bound := int64(float64(cleanP99) * factor)
	if fl := floor.Nanoseconds(); bound < fl {
		bound = fl
	}
	if stressedP99 > bound {
		return fmt.Errorf("loadgen: %s p99 %s exceeds %.0fx clean p99 %s (bound %s)",
			stressed, time.Duration(stressedP99), factor, time.Duration(cleanP99), time.Duration(bound))
	}
	return nil
}

// startRebalance posts the target ring to the coordinator host and
// returns the initial checkpointed status.
func startRebalance(rig *Rig, target core.RingState) (core.RebalanceStatus, error) {
	return rig.AdminClient("a-primary").RebalanceStart(core.RebalanceRequest{
		Target: target, MovesPerSec: rebalanceRate,
	})
}

// RingDouble doubles the ring — two fresh shards join, the coordinator
// plans and executes the bulk migration — under sustained Zipf-spread
// load. The plan is aborted mid-way and re-posted, then a migrating shard
// primary AND the coordinator host are killed mid-plan. The resumed plan
// must be the re-posted plan (same ID, same move total), finish every
// move, leave every node on the grown ring with no overrides, lose
// nothing acknowledged, and keep the under-rebalance p99 within bounds of
// the clean phase.
func RingDouble(ctx context.Context, rig *Rig, opts Options) (*Recorder, error) {
	rec := &Recorder{Scenario: "ring_double"}
	// Ring placement hashes shard NAMES, so the grown ring's layout is
	// computable up front; seed a deterministic mix of owners that will
	// move to the new shards and owners that will stay put, guaranteeing
	// the plan is big enough for both kill windows.
	grownNames := []core.ShardInfo{
		{Name: "shard-a", Primary: "http://placeholder-a"},
		{Name: "shard-b", Primary: "http://placeholder-b"},
		{Name: "shard-c", Primary: "http://placeholder-c"},
		{Name: "shard-d", Primary: "http://placeholder-d"},
	}
	grown, err := cluster.New(grownNames, 0)
	if err != nil {
		return rec, err
	}
	var owners []core.UserID
	movers, stayers := 0, 0
	for i := 0; movers < opts.Owners*2 || stayers < opts.Owners; i++ {
		owner := core.UserID(fmt.Sprintf("rd-%d", i))
		from, to := rig.Ring.Owner(owner).Name, grown.Owner(owner).Name
		switch {
		case from != to && movers < opts.Owners*2:
			movers++
		case from == to && stayers < opts.Owners:
			stayers++
		default:
			continue
		}
		owners = append(owners, owner)
	}
	rigs, err := setupOwners(ctx, rig, rec, "setup", owners)
	if err != nil {
		return rec, err
	}

	// Clean-phase load: the latency baseline the rebalance is held to.
	var acked []ackedWrite
	if err := mixedLoad(ctx, rec, "clean_load", rigs, owners, opts.Ops, nil, &acked); err != nil {
		return rec, err
	}

	// Two shards join. They start on the transition spec (old ring plus
	// themselves — amserver requires its own shard in -ring) but receive
	// no client traffic until the coordinator pushes the grown ring.
	info, err := rig.AdminClient("a-primary").ClusterInfo()
	if err != nil {
		return rec, phaseErr("grow", err)
	}
	target := core.RingState{
		Version: info.RingVersion + 1, Vnodes: info.Vnodes,
		Shards: append([]core.ShardInfo(nil), info.Shards...),
	}
	grow := rec.Phase("grow")
	spec := rig.RingSpec
	var joined []*Node
	for _, shard := range []string{"shard-c", "shard-d"} {
		shard := shard
		err := grow.Op(func() error {
			// Each join extends the base spec cumulatively so shard-d's
			// node knows shard-c too.
			node, err := rig.SpawnShard(ctx, shard, spec)
			if err != nil {
				return err
			}
			joined = append(joined, node)
			return nil
		})
		if err != nil {
			grow.End()
			return rec, phaseErr("grow", err)
		}
		spec += "," + shard + "=" + joined[len(joined)-1].Proxy.URL()
	}
	grow.End()
	for _, node := range joined {
		target.Shards = append(target.Shards, core.ShardInfo{
			Name: node.Shard, Primary: node.Proxy.URL(), Endpoints: []string{node.Proxy.URL()},
		})
	}

	// Load keeps flowing for the whole rebalance window.
	stop := make(chan struct{})
	loadDone := make(chan error, 1)
	go func() {
		loadDone <- mixedLoad(ctx, rec, "rebalance_load", rigs, owners, 0, stop, &acked)
	}()
	finish := func() error { close(stop); return <-loadDone }

	st, err := startRebalance(rig, target)
	if err != nil {
		finish()
		return rec, phaseErr("rebalance_start", err)
	}
	planID, planTotal := st.ID, st.Total
	rig.Logf("loadgen: rebalance %s planned %d moves", planID, planTotal)
	if planTotal != movers {
		finish()
		return rec, fmt.Errorf("loadgen: %d moves planned, but %d seeded owners remap onto the new shards", planTotal, movers)
	}
	// The operator's stop and restart: abort mid-plan, then re-post the
	// same target. The kill windows below run on the re-posted plan.
	if st, err = abortAndReplan(ctx, rig, owners, target); err != nil {
		finish()
		return rec, err
	}
	planID, planTotal = st.ID, st.Total

	// Kill window 1: a migrating source primary dies after the first move
	// lands. The coordinator's per-move retry absorbs the outage.
	if _, err := awaitMoves(ctx, rig, 1); err != nil {
		finish()
		return rec, err
	}
	if err := bounceNode(ctx, rig, "b-primary", time.Second); err != nil {
		finish()
		return rec, err
	}

	// Kill window 2: the coordinator host itself dies mid-plan and must
	// resume its checkpointed plan on restart — same plan, no replan.
	if st, err = awaitMoves(ctx, rig, 2); err != nil {
		finish()
		return rec, err
	}
	killedMidPlan := st.State == core.RebalanceRunning && st.Done < st.Total
	if err := bounceNode(ctx, rig, "a-primary", 500*time.Millisecond); err != nil {
		finish()
		return rec, err
	}

	// Convergence: the auto-resumed plan runs to completion.
	deadline := time.Now().Add(3 * time.Minute)
	for {
		if err := checkCtx(ctx, "await-convergence"); err != nil {
			finish()
			return rec, err
		}
		st, err = rig.AdminClient("a-primary").RebalanceStatus()
		if err == nil && st.State == core.RebalanceDone {
			break
		}
		if err == nil && st.State != core.RebalanceRunning {
			finish()
			return rec, fmt.Errorf("loadgen: rebalance ended %q: %s", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			finish()
			return rec, fmt.Errorf("loadgen: rebalance never converged (last %+v, err %v)", st, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err := finish(); err != nil {
		return rec, err
	}
	if st.ID != planID || st.Total != planTotal {
		return rec, fmt.Errorf("loadgen: resumed plan drifted: %s/%d moves, started as %s/%d",
			st.ID, st.Total, planID, planTotal)
	}
	if !killedMidPlan {
		rig.Logf("loadgen: note — coordinator kill landed after the last move; resume proved idempotent completion only")
	}

	// The grown ring is in force everywhere, with no overrides left, and
	// the new shards actually own owners now.
	movedToNew := 0
	for _, name := range []string{"a-primary", "b-primary", "shard-c-primary", "shard-d-primary"} {
		cl := rig.AdminClient(name)
		inf, err := cl.ClusterInfo()
		if err != nil {
			return rec, phaseErr("post-ring-audit", err)
		}
		if inf.RingVersion != target.Version {
			return rec, fmt.Errorf("loadgen: %s at ring v%d after convergence, want v%d", name, inf.RingVersion, target.Version)
		}
		if len(inf.Overrides) != 0 {
			return rec, fmt.Errorf("loadgen: %s still holds %d overrides", name, len(inf.Overrides))
		}
		if inf.Shard == "shard-c" || inf.Shard == "shard-d" {
			stats, err := cl.OwnerStats()
			if err != nil {
				return rec, phaseErr("post-ring-audit", err)
			}
			movedToNew += len(stats.Owners)
		}
	}
	if movedToNew == 0 {
		return rec, fmt.Errorf("loadgen: ring doubled but the new shards own nothing")
	}
	rig.Logf("loadgen: new shards own %d owners after the double", movedToNew)

	// Zero acknowledged loss across both kills and the whole migration,
	// read through the shard-routed surface (clients chase the new ring).
	if err := verifyAcked(ctx, rec, "verify", acked, func(w ackedWrite) error {
		_, err := rigs[w.owner].Manager.GetPolicy(w.owner, w.id)
		return err
	}); err != nil {
		return rec, err
	}
	return rec, guardTail(rec, "clean_load", "rebalance_load", 5, 1500*time.Millisecond)
}

// KillRebalance drains shard-b to extinction — every owner bulk-migrated
// off it, then the shard dropped from the ring — while both the draining
// shard's primary and the coordinator are SIGKILLed mid-plan. Afterwards
// the final ring (without shard-b) must be in force, the drained node
// must disclaim its former owners, and nothing acknowledged may be lost.
func KillRebalance(ctx context.Context, rig *Rig, opts Options) (*Recorder, error) {
	rec := &Recorder{Scenario: "kill_rebalance"}
	owners := append(rig.OwnersFor("kr", "shard-a", opts.Owners),
		rig.OwnersFor("kr", "shard-b", opts.Owners*2)...)
	rigs, err := setupOwners(ctx, rig, rec, "setup", owners)
	if err != nil {
		return rec, err
	}

	var acked []ackedWrite
	if err := mixedLoad(ctx, rec, "clean_load", rigs, owners, opts.Ops, nil, &acked); err != nil {
		return rec, err
	}

	info, err := rig.AdminClient("a-primary").ClusterInfo()
	if err != nil {
		return rec, phaseErr("drain_start", err)
	}
	target := core.RingState{
		Version: info.RingVersion + 1, Vnodes: info.Vnodes,
		Shards:   append([]core.ShardInfo(nil), info.Shards...),
		Draining: append(append([]string(nil), info.Draining...), "shard-b"),
	}

	stop := make(chan struct{})
	loadDone := make(chan error, 1)
	go func() {
		loadDone <- mixedLoad(ctx, rec, "drain_load", rigs, owners, 0, stop, &acked)
	}()
	finish := func() error { close(stop); return <-loadDone }

	st, err := startRebalance(rig, target)
	if err != nil {
		finish()
		return rec, phaseErr("drain_start", err)
	}
	planID, planTotal := st.ID, st.Total
	rig.Logf("loadgen: drain %s planned %d moves off shard-b", planID, planTotal)
	if planTotal != opts.Owners*2 {
		finish()
		return rec, fmt.Errorf("loadgen: drain planned %d moves, want all %d shard-b owners", planTotal, opts.Owners*2)
	}

	// Kill the draining source mid-plan, then the coordinator.
	if _, err := awaitMoves(ctx, rig, 1); err != nil {
		finish()
		return rec, err
	}
	if err := bounceNode(ctx, rig, "b-primary", time.Second); err != nil {
		finish()
		return rec, err
	}
	if _, err := awaitMoves(ctx, rig, 2); err != nil {
		finish()
		return rec, err
	}
	if err := bounceNode(ctx, rig, "a-primary", 500*time.Millisecond); err != nil {
		finish()
		return rec, err
	}

	finalVersion := target.Version + 1 // drain plans push a final ring without the shard
	deadline := time.Now().Add(3 * time.Minute)
	for {
		if err := checkCtx(ctx, "await-drain"); err != nil {
			finish()
			return rec, err
		}
		st, err = rig.AdminClient("a-primary").RebalanceStatus()
		if err == nil && st.State == core.RebalanceDone {
			break
		}
		if err == nil && st.State != core.RebalanceRunning {
			finish()
			return rec, fmt.Errorf("loadgen: drain ended %q: %s", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			finish()
			return rec, fmt.Errorf("loadgen: drain never converged (last %+v, err %v)", st, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err := finish(); err != nil {
		return rec, err
	}
	if st.ID != planID || st.Total != planTotal {
		return rec, fmt.Errorf("loadgen: resumed drain drifted: %s/%d moves, started as %s/%d",
			st.ID, st.Total, planID, planTotal)
	}

	// The final ring — shard-b gone — is in force on the survivor and on
	// the drained node itself, which now owns nothing.
	for _, name := range []string{"a-primary", "b-primary"} {
		inf, err := rig.AdminClient(name).ClusterInfo()
		if err != nil {
			return rec, phaseErr("post-drain-audit", err)
		}
		if inf.RingVersion != finalVersion {
			return rec, fmt.Errorf("loadgen: %s at ring v%d after drain, want final v%d", name, inf.RingVersion, finalVersion)
		}
		for _, s := range inf.Shards {
			if s.Name == "shard-b" {
				return rec, fmt.Errorf("loadgen: %s's final ring still lists the drained shard", name)
			}
		}
	}
	stats, err := rig.AdminClient("b-primary").OwnerStats()
	if err != nil {
		return rec, phaseErr("post-drain-audit", err)
	}
	if len(stats.Owners) != 0 {
		return rec, fmt.Errorf("loadgen: drained shard still effectively owns %d owners", len(stats.Owners))
	}

	if err := verifyAcked(ctx, rec, "verify", acked, func(w ackedWrite) error {
		_, err := rigs[w.owner].Manager.GetPolicy(w.owner, w.id)
		return err
	}); err != nil {
		return rec, err
	}
	return rec, guardTail(rec, "clean_load", "drain_load", 5, 1500*time.Millisecond)
}
