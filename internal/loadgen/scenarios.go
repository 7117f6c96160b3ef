package loadgen

import (
	"context"
	"errors"
	"fmt"
	"time"

	"umac/internal/amclient"
	"umac/internal/core"
	"umac/internal/policy"
)

// ackedWrite is one policy write a scenario saw acknowledged; the verify
// phases re-read every one of them and count the missing as Lost.
type ackedWrite struct {
	owner core.UserID
	id    core.PolicyID
}

// setupOwners provisions each owner's full protocol fixture (pairing,
// realm, permit policy, token, shard-routed clients) over the proxied
// HTTP surface, timing each as one op of the given phase.
func setupOwners(ctx context.Context, rig *Rig, rec *Recorder, phase string, owners []core.UserID) (map[core.UserID]*OwnerRig, error) {
	ph := rec.Phase(phase)
	defer ph.End()
	rigs := make(map[core.UserID]*OwnerRig, len(owners))
	for _, owner := range owners {
		if err := checkCtx(ctx, phase); err != nil {
			return nil, err
		}
		err := ph.Op(func() error {
			r, err := SetupOwner(rig.ClientConfig(), owner)
			if err != nil {
				return err
			}
			rigs[owner] = r
			return nil
		})
		if err != nil {
			return nil, phaseErr(phase, err)
		}
	}
	return rigs, nil
}

// verifyAcked re-reads every acknowledged write through read, tallying
// the missing into the phase's Lost counter. It returns an error when
// anything was lost — the zero-loss contract is a hard failure, not a
// statistic.
func verifyAcked(ctx context.Context, rec *Recorder, phase string, acked []ackedWrite, read func(ackedWrite) error) error {
	ph := rec.Phase(phase)
	defer ph.End()
	for _, w := range acked {
		if err := checkCtx(ctx, phase); err != nil {
			return err
		}
		w := w
		if err := ph.Op(func() error { return read(w) }); err != nil {
			ph.Lost++
		}
	}
	if ph.Lost > 0 {
		return phaseErr(phase, fmt.Errorf("%d of %d acknowledged writes lost", ph.Lost, len(acked)))
	}
	return nil
}

// ZipfHotOwner drives Zipf-distributed decision traffic (with a 20%%
// write mix) over owners spread across both shards — then repeats the
// storm with injected latency on the hot shard's client paths, proving
// the mixed-tenant decision path stays correct when the popular shard
// slows down.
func ZipfHotOwner(ctx context.Context, rig *Rig, opts Options) (*Recorder, error) {
	rec := &Recorder{Scenario: "zipf_hot_owner"}
	owners := append(rig.OwnersFor("zipf", "shard-a", (opts.Owners+1)/2),
		rig.OwnersFor("zipf", "shard-b", opts.Owners/2)...)
	rigs, err := setupOwners(ctx, rig, rec, "setup", owners)
	if err != nil {
		return rec, err
	}
	picker := NewOwnerPicker(owners, opts.Seed, 1.3)

	var acked []ackedWrite
	storm := func(phase string) error {
		ph := rec.Phase(phase)
		defer ph.End()
		for i := 0; i < opts.Ops; i++ {
			if err := checkCtx(ctx, phase); err != nil {
				return err
			}
			owner := picker.Pick()
			or := rigs[owner]
			if i%5 == 0 {
				id := core.PolicyID("")
				err := ph.Op(func() error {
					var werr error
					id, werr = or.WritePolicy(i)
					return werr
				})
				if err != nil {
					return phaseErr(phase, err)
				}
				acked = append(acked, ackedWrite{owner, id})
			} else if err := ph.Op(or.Decide); err != nil {
				return phaseErr(phase, err)
			}
		}
		return nil
	}
	if err := storm("storm"); err != nil {
		return rec, err
	}

	// The hot shard (rank-0 owner's home) turns slow: 25ms on both of its
	// client paths. Correctness must hold; only latency may move.
	hot := rig.Ring.Owner(owners[0]).Name
	for _, n := range rig.Nodes {
		if n.Shard == hot {
			n.Proxy.SetLatency(25 * time.Millisecond)
		}
	}
	err = storm("storm_slow")
	for _, n := range rig.Nodes {
		n.Proxy.SetLatency(0)
	}
	if err != nil {
		return rec, err
	}

	return rec, verifyAcked(ctx, rec, "verify", acked, func(w ackedWrite) error {
		_, err := rigs[w.owner].Manager.GetPolicy(w.owner, w.id)
		return err
	})
}

// PairingChurn cycles the IoT pairing lifecycle — confirm, exchange,
// protect, policy, token, decide, revoke — with fresh owners every cycle,
// the second half under injected latency on every client path. A revoked
// pairing must stop deciding immediately; policies written during the
// churn must survive it.
func PairingChurn(ctx context.Context, rig *Rig, opts Options) (*Recorder, error) {
	rec := &Recorder{Scenario: "pairing_churn"}
	var acked []ackedWrite
	rigs := make(map[core.UserID]*OwnerRig)

	cycle := func(ph *PhaseRec, i int) error {
		owner := core.UserID(fmt.Sprintf("churn-%d", i))
		var or *OwnerRig
		if err := ph.Op(func() error {
			r, err := SetupOwner(rig.ClientConfig(), owner)
			or = r
			return err
		}); err != nil {
			return err
		}
		rigs[owner] = or
		if err := ph.Op(or.Decide); err != nil {
			return err
		}
		id, err := or.WritePolicy(i)
		if err != nil {
			return err
		}
		acked = append(acked, ackedWrite{owner, id})
		if err := ph.Op(func() error {
			return or.Manager.RevokePairing(owner, or.Pairing.PairingID)
		}); err != nil {
			return err
		}
		// The revoked channel must be dead: a decision signed with it has
		// to fail. Not timed as an op — it is an assertion, not load.
		if or.Decide() == nil {
			return fmt.Errorf("decision succeeded over revoked pairing of %s", owner)
		}
		return nil
	}

	churn := func(phase string, lo, hi int) error {
		ph := rec.Phase(phase)
		defer ph.End()
		for i := lo; i < hi; i++ {
			if err := checkCtx(ctx, phase); err != nil {
				return err
			}
			if err := cycle(ph, i); err != nil {
				return phaseErr(phase, err)
			}
		}
		return nil
	}
	// Churn cycles are ~7 HTTP calls each; size them down so a smoke run
	// stays in seconds.
	cycles := opts.Ops / 4
	if cycles < 4 {
		cycles = 4
	}
	half := (cycles + 1) / 2
	if err := churn("churn", 0, half); err != nil {
		return rec, err
	}
	for _, n := range rig.Nodes {
		n.Proxy.SetLatency(20 * time.Millisecond)
	}
	err := churn("churn_slow", half, cycles)
	for _, n := range rig.Nodes {
		n.Proxy.SetLatency(0)
	}
	if err != nil {
		return rec, err
	}

	return rec, verifyAcked(ctx, rec, "verify", acked, func(w ackedWrite) error {
		_, err := rigs[w.owner].Manager.GetPolicy(w.owner, w.id)
		return err
	})
}

// DelegationChain builds a custodian chain across both shards — each
// owner appoints the next as custodian — then has every custodian write a
// policy on the ward's behalf (a cross-shard write whenever neighbours
// live on different shards) and walks the chain with decision queries.
func DelegationChain(ctx context.Context, rig *Rig, opts Options) (*Recorder, error) {
	rec := &Recorder{Scenario: "delegation_chain"}
	// Interleave shard-a and shard-b residents so nearly every
	// custodian→ward hop crosses shards.
	a := rig.OwnersFor("chain", "shard-a", (opts.Owners+1)/2)
	b := rig.OwnersFor("chain", "shard-b", opts.Owners/2)
	var owners []core.UserID
	for i := 0; i < len(a) || i < len(b); i++ {
		if i < len(a) {
			owners = append(owners, a[i])
		}
		if i < len(b) {
			owners = append(owners, b[i])
		}
	}
	rigs, err := setupOwners(ctx, rig, rec, "setup", owners)
	if err != nil {
		return rec, err
	}

	appoint := rec.Phase("appoint")
	for i := 0; i+1 < len(owners); i++ {
		if err := checkCtx(ctx, "appoint"); err != nil {
			appoint.End()
			return rec, err
		}
		ward, cust := owners[i], owners[i+1]
		if err := appoint.Op(func() error {
			_, err := rigs[ward].Manager.AddCustodian(ward, cust)
			return err
		}); err != nil {
			appoint.End()
			return rec, phaseErr("appoint", err)
		}
	}
	appoint.End()

	// Custodians write on their wards' behalf: the policy names the ward
	// as owner, so the shard-aware client routes it to the ward's shard —
	// while the session identity is the custodian's.
	var acked []ackedWrite
	writes := rec.Phase("chain_write")
	for i := 0; i+1 < len(owners); i++ {
		if err := checkCtx(ctx, "chain_write"); err != nil {
			writes.End()
			return rec, err
		}
		ward, cust := owners[i], owners[i+1]
		var id core.PolicyID
		if err := writes.Op(func() error {
			p, err := rigs[cust].Manager.CreatePolicy(policy.Policy{
				Owner: ward, Kind: policy.KindGeneral,
				Rules: []policy.Rule{{
					Effect:   policy.EffectPermit,
					Subjects: []policy.Subject{{Type: policy.SubjectUser, Name: fmt.Sprintf("delegate-%d", i)}},
					Actions:  []core.Action{core.ActionRead},
				}},
			})
			id = p.ID
			return err
		}); err != nil {
			writes.End()
			return rec, phaseErr("chain_write", err)
		}
		acked = append(acked, ackedWrite{ward, id})
	}
	writes.End()

	walk := rec.Phase("chain_walk")
	for i := 0; i < opts.Ops; i++ {
		if err := checkCtx(ctx, "chain_walk"); err != nil {
			walk.End()
			return rec, err
		}
		if err := walk.Op(rigs[owners[i%len(owners)]].Decide); err != nil {
			walk.End()
			return rec, phaseErr("chain_walk", err)
		}
	}
	walk.End()

	return rec, verifyAcked(ctx, rec, "verify", acked, func(w ackedWrite) error {
		_, err := rigs[w.owner].Manager.GetPolicy(w.owner, w.id)
		return err
	})
}

// KillMigration kills shard-a's primary in the middle of a live owner
// migration (right after the snapshot import, before cutover), keeps
// decision traffic flowing through shard-a's follower while no write is
// acknowledged, restarts the primary from its WAL, checks that the
// follower converges on it, retries the migration to completion under
// load on the moving owner, and audits the full acknowledged-write set
// across both shards. The losing shard must answer wrong_shard for the
// migrated owner afterwards.
func KillMigration(ctx context.Context, rig *Rig, opts Options) (*Recorder, error) {
	rec := &Recorder{Scenario: "kill_migration"}
	mover := rig.OwnersFor("mover", "shard-a", 1)[0]
	stay := rig.OwnersFor("stay", "shard-a", 1)[0]
	rigs, err := setupOwners(ctx, rig, rec, "setup", []core.UserID{mover, stay})
	if err != nil {
		return rec, err
	}

	var acked []ackedWrite
	// drive runs ops of the scenario's mix in ph: mover and stay in turn,
	// every third op a write when write is set.
	drive := func(ph *PhaseRec, ops int, write bool) error {
		phase := ph.Name
		for i := 0; i < ops; i++ {
			if err := checkCtx(ctx, phase); err != nil {
				return err
			}
			owner := mover
			if i%2 == 1 {
				owner = stay
			}
			or := rigs[owner]
			if write && i%3 == 0 {
				var id core.PolicyID
				err := ph.Op(func() error {
					var werr error
					id, werr = or.WritePolicy(i)
					return werr
				})
				if err != nil {
					return phaseErr(phase, err)
				}
				acked = append(acked, ackedWrite{owner, id})
			} else if err := ph.Op(or.Decide); err != nil {
				return phaseErr(phase, err)
			}
		}
		return nil
	}
	load := func(phase string, ops int, write bool) error {
		ph := rec.Phase(phase)
		defer ph.End()
		return drive(ph, ops, write)
	}
	if err := load("pre_kill_load", opts.Ops, true); err != nil {
		return rec, err
	}

	// Migration attempt 1: the source primary dies right after the
	// snapshot import (step 3) — mid-drill, before any cutover. The drill
	// must fail; the cluster must not lose anything.
	src, dst := rig.AdminClient("a-primary"), rig.AdminClient("b-primary")
	_, err = amclient.MigrateOwner(src, dst, mover, "shard-b", func(step int, msg string) {
		rig.Logf("loadgen: migrate(1) step %d: %s", step, msg)
		if step == 3 {
			rig.Logf("loadgen: killing a-primary mid-migration")
			rig.Nodes["a-primary"].Kill()
		}
	})
	if err == nil {
		return rec, errors.New("loadgen: migration reported success with its source primary dead")
	}
	rig.Logf("loadgen: migrate(1) failed as expected: %v", err)

	// Decisions must keep flowing with the primary dead — shard-a's
	// follower serves them behind the same proxy-listed endpoints — while
	// a write must fail: the follower refuses it and shard-a has no other
	// node to take it.
	killed := rec.Phase("killed_decisions")
	err = drive(killed, opts.Ops/2, false)
	if err == nil && killed.Op(func() error {
		_, werr := rigs[stay].WritePolicy(-1)
		return werr
	}) == nil {
		err = errors.New("loadgen: a write was acknowledged with shard-a's primary dead")
	}
	killed.End()
	if err != nil {
		return rec, err
	}

	if err := rig.Restart(ctx, "a-primary"); err != nil {
		return rec, phaseErr("restart", err)
	}
	// Every write acknowledged before the kill must have survived the WAL
	// recovery — read straight from the restarted primary.
	direct := func(owner core.UserID) *amclient.Client {
		return amclient.New(amclient.Config{BaseURL: rig.Nodes["a-primary"].URL, User: owner})
	}
	if err := verifyAcked(ctx, rec, "verify_wal", acked, func(w ackedWrite) error {
		_, err := direct(w.owner).GetPolicy(w.id)
		return err
	}); err != nil {
		return rec, err
	}

	// The follower reconnects to the restarted primary on its own and
	// must converge on it: every write acknowledged so far (all of them
	// shard-a writes) reads back from the follower's real URL.
	if err := awaitFollower(ctx, rig, "a-primary", "a-follower"); err != nil {
		return rec, phaseErr("verify_follower", err)
	}
	if err := verifyAcked(ctx, rec, "verify_follower", acked, func(w ackedWrite) error {
		_, err := amclient.New(amclient.Config{BaseURL: rig.Nodes["a-follower"].URL, User: w.owner}).GetPolicy(w.id)
		return err
	}); err != nil {
		return rec, err
	}

	// Migration attempt 2: same drill, healthy source — must complete
	// while the mover's own load keeps flowing (phase migrate_load). Its
	// decisions chase the cutover to shard-b and none may fail; a write
	// may be refused mid-cutover, but every acknowledged one joins the
	// audit. The snapshot import repeats records attempt 1 already
	// shipped; the import path is idempotent by design.
	retry := rec.Phase("migrate_retry")
	moverLoad := rec.Phase("migrate_load")
	started, stop := make(chan struct{}), make(chan struct{})
	failed := make(chan int, 1)
	go func() {
		n := 0
		defer func() { failed <- n }()
		or := rigs[mover]
		for i := 0; ; i++ {
			if i%3 == 0 {
				var id core.PolicyID
				if moverLoad.Op(func() error {
					var werr error
					id, werr = or.WritePolicy(i)
					return werr
				}) == nil {
					acked = append(acked, ackedWrite{mover, id})
				}
			} else if moverLoad.Op(or.Decide) != nil {
				n++
			}
			if i == 0 {
				close(started)
			}
			// Past the migration, keep going for opts.Ops/2 ops in all, so
			// the chase after the cutover is part of the phase.
			select {
			case <-stop:
				if i+1 >= opts.Ops/2 {
					return
				}
			case <-ctx.Done():
				return
			default:
			}
		}
	}()
	<-started
	err = retry.Op(func() error {
		rep, err := amclient.MigrateOwner(rig.AdminClient("a-primary"), dst, mover, "shard-b",
			func(step int, msg string) { rig.Logf("loadgen: migrate(2) step %d: %s", step, msg) })
		if err == nil && rep.SnapshotRecords == 0 {
			return errors.New("retry shipped an empty owner closure")
		}
		return err
	})
	retry.End()
	close(stop)
	failedDecisions := <-failed
	moverLoad.End()
	if err != nil {
		return rec, phaseErr("migrate_retry", err)
	}
	if failedDecisions > 0 {
		return rec, fmt.Errorf("loadgen: %d of the mover's decisions failed through the migration", failedDecisions)
	}

	// Post-cutover: the mover's traffic lands on shard-b (the client
	// chases the wrong_shard hint); the losing shard answers wrong_shard
	// to anyone who still asks it directly.
	if err := load("post_migration_load", opts.Ops, true); err != nil {
		return rec, err
	}
	probe := amclient.New(amclient.Config{
		BaseURL:   rig.Nodes["a-primary"].URL,
		PairingID: rigs[mover].Pairing.PairingID,
		Secret:    rigs[mover].Pairing.Secret,
	})
	_, err = probe.Decide(core.DecisionQuery{
		Host: rigHost, Realm: rigs[mover].Realm, Resource: "photo",
		Action: core.ActionRead, Token: rigs[mover].Token,
	})
	var ae *core.APIError
	if !errors.As(err, &ae) || ae.Code != core.CodeWrongShard {
		return rec, fmt.Errorf("loadgen: losing shard answered %v for migrated owner, want wrong_shard", err)
	}

	// Final audit: every acknowledged write — pre-kill and post-migration,
	// mover and stay — readable through the shard-routed surface.
	return rec, verifyAcked(ctx, rec, "verify_migrated", acked, func(w ackedWrite) error {
		_, err := rigs[w.owner].Manager.GetPolicy(w.owner, w.id)
		return err
	})
}

// awaitFollower waits until the follower node is connected to its primary
// and has applied every record the primary has assigned.
func awaitFollower(ctx context.Context, rig *Rig, primary, follower string) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		if err := checkCtx(ctx, "await-follower"); err != nil {
			return err
		}
		p, perr := rig.AdminClient(primary).Healthz()
		f, ferr := rig.AdminClient(follower).Healthz()
		if perr == nil && ferr == nil && p.Replication != nil && f.Replication != nil &&
			f.Replication.Connected && f.Replication.LastSeq >= p.Replication.LastSeq {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: %s never caught up with %s (primary %v / %v, follower %v / %v)",
				follower, primary, p.Replication, perr, f.Replication, ferr)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
