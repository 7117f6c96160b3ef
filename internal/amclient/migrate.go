package amclient

import (
	"fmt"

	"umac/internal/core"
)

// This file orchestrates a live owner migration between two shards of a
// sharded AM cluster: the owner's closure (pairings, realms, policies,
// links, groups, custodians, grants) is streamed from the losing shard to
// the gaining shard over the owner-scoped replication surface, writes
// landing on the losing shard during the copy are shipped continuously
// (the WAL-tail catch-up — the double-write window of the cutover), ring
// ownership is flipped via per-owner overrides, and a final drain picks up
// every write the losing shard acknowledged before the flip took effect.
// Zero acknowledged-write loss: a write either lands before the flip (and
// the drain ships it) or after (and the losing shard answers wrong_shard,
// so the client's chase re-routes it to the gaining shard).
//
// umacctl migrate-owner and the internal/loadgen scenarios both drive this
// function; docs/OPERATIONS.md documents it as the 7-step migration drill.

// migrateTailBatch is the per-round record cap of the catch-up and drain
// tails.
const migrateTailBatch = 1024

// migrateMaxCatchup bounds the pre-cutover catch-up rounds: under a
// relentless write load the tail may never go empty, and correctness does
// not require it to — the post-cutover drain ships the remainder.
const migrateMaxCatchup = 64

// MigrateReport summarizes one live owner migration.
type MigrateReport struct {
	// Owner is the migrated owner.
	Owner core.UserID `json:"owner"`
	// FromShard and ToShard name the losing and gaining shards.
	FromShard string `json:"from_shard"`
	ToShard   string `json:"to_shard"`
	// SnapshotRecords counts the owner-closure records in the initial
	// scoped snapshot.
	SnapshotRecords int `json:"snapshot_records"`
	// CatchupRecords counts records shipped by the pre-cutover tail.
	CatchupRecords int `json:"catchup_records"`
	// DrainRecords counts records shipped by the post-cutover drain —
	// writes acknowledged by the losing shard while the flip propagated.
	DrainRecords int `json:"drain_records"`
}

// MigrateOwner moves owner from the shard behind src to the shard named
// toShard behind dst. Both clients need Config.ReplSecret (the migration
// surface's bearer auth). progress, when non-nil, receives one line per
// drill step. See the package comment above for the loss-freedom
// argument.
//
// MigrateOwner is the one-shot composition of the three resumable legs —
// MigrateCopy, MigrateCutover, MigrateDrain — which the rebalance
// coordinator drives individually so it can checkpoint between them and
// resume a killed migration at the right leg.
func MigrateOwner(src, dst *Client, owner core.UserID, toShard string, progress func(step int, msg string)) (MigrateReport, error) {
	rep, from, err := MigrateCopy(src, dst, owner, toShard, progress)
	if err != nil {
		return rep, err
	}
	if err := MigrateCutover(src, dst, owner, toShard, progress); err != nil {
		return rep, err
	}
	rep.DrainRecords, err = MigrateDrain(src, dst, owner, from, progress)
	return rep, err
}

// MigrateCopy is the migration's copy leg (drill steps 1–4): topology
// check, owner-scoped snapshot, snapshot import on the gaining shard, and
// the pre-cutover catch-up tail. It returns the source WAL offset the copy
// reached — the offset MigrateDrain must resume from, and the value a
// coordinator checkpoints before cutting over. The leg changes no
// ownership state: until MigrateCutover runs, the source keeps serving the
// owner, so re-running the whole leg after a crash is safe (the fresh
// snapshot supersedes the earlier import).
func MigrateCopy(src, dst *Client, owner core.UserID, toShard string, progress func(step int, msg string)) (MigrateReport, int64, error) {
	rep := MigrateReport{Owner: owner, ToShard: toShard}
	say := migrateSay(progress)

	// Step 1: confirm the topology — the target shard must exist on both
	// sides' rings, and dst must actually front it.
	srcInfo, err := src.ClusterInfo()
	if err != nil {
		return rep, 0, fmt.Errorf("amclient: migrate: source cluster info: %w", err)
	}
	dstInfo, err := dst.ClusterInfo()
	if err != nil {
		return rep, 0, fmt.Errorf("amclient: migrate: target cluster info: %w", err)
	}
	rep.FromShard = srcInfo.Shard
	if dstInfo.Shard != toShard {
		return rep, 0, fmt.Errorf("amclient: migrate: target node belongs to shard %q, not %q", dstInfo.Shard, toShard)
	}
	if srcInfo.Shard == toShard {
		return rep, 0, fmt.Errorf("amclient: migrate: owner already targeted at shard %q", toShard)
	}
	say(1, "topology confirmed: %s → %s", srcInfo.Shard, toShard)

	// Step 2: owner-scoped snapshot from the losing shard.
	snap, err := src.ReplicationSnapshotScoped(owner)
	if err != nil {
		return rep, 0, fmt.Errorf("amclient: migrate: scoped snapshot: %w", err)
	}
	rep.SnapshotRecords = len(snap.Records)
	say(2, "snapshot captured: %d records at seq %d", len(snap.Records), snap.Seq)

	// Step 3: install the snapshot on the gaining shard.
	if _, err := dst.ClusterImport(snap.Records); err != nil {
		return rep, 0, fmt.Errorf("amclient: migrate: import snapshot: %w", err)
	}
	say(3, "snapshot imported")

	// Step 4: catch-up — ship owner writes that landed during the copy,
	// until a round comes back empty (or the bound trips; the drain covers
	// the rest either way).
	from := snap.Seq
	for round := 0; round < migrateMaxCatchup; round++ {
		page, err := src.ReplicationTailScoped(owner, from, migrateTailBatch)
		if err != nil {
			return rep, from, fmt.Errorf("amclient: migrate: catch-up tail: %w", err)
		}
		if len(page.Records) > 0 {
			if _, err := dst.ClusterImport(page.Records); err != nil {
				return rep, from, fmt.Errorf("amclient: migrate: import catch-up: %w", err)
			}
			rep.CatchupRecords += len(page.Records)
		}
		caughtUp := len(page.Records) == 0 && page.LastSeq == from
		from = page.LastSeq
		if caughtUp {
			break
		}
	}
	say(4, "caught up: %d records shipped, offset %d", rep.CatchupRecords, from)
	return rep, from, nil
}

// MigrateCutover is the migration's ownership flip (drill steps 5–6):
// pin the owner to toShard on the gaining shard, then on the losing
// shard. Both writes are idempotent overwrites of the same override, so
// re-running the leg after a crash converges to the same state.
func MigrateCutover(src, dst *Client, owner core.UserID, toShard string, progress func(step int, msg string)) error {
	say := migrateSay(progress)

	// Step 5: the gaining shard starts accepting the owner (its hash ring
	// would otherwise still disclaim it). From here until step 6 both
	// shards accept the owner — the double-write window; writes still
	// landing at the source are shipped by the drain.
	if err := dst.SetOwnerShard(owner, toShard); err != nil {
		return fmt.Errorf("amclient: migrate: pin owner on target: %w", err)
	}
	say(5, "target accepts %s", owner)

	// Step 6: cutover — the losing shard stops serving the owner; every
	// subsequent decision or write there answers wrong_shard with the
	// gaining shard as the hint.
	if err := src.SetOwnerShard(owner, toShard); err != nil {
		return fmt.Errorf("amclient: migrate: flip owner on source: %w", err)
	}
	say(6, "cutover: source now answers wrong_shard for %s", owner)
	return nil
}

// MigrateDrain is the migration's final leg (drill step 7): ship
// everything the source acknowledged before the cutover became visible,
// starting at the offset MigrateCopy returned (or a checkpoint of it).
// Re-running from the same offset re-imports the same records — idempotent
// puts — so a crashed drain restarts safely.
func MigrateDrain(src, dst *Client, owner core.UserID, from int64, progress func(step int, msg string)) (int, error) {
	say := migrateSay(progress)

	// Two consecutive empty rounds mean no owner record appeared between
	// two scans of the source WAL, at which point nothing more can arrive
	// (the gate is closed).
	drained, empty := 0, 0
	for empty < 2 {
		page, err := src.ReplicationTailScoped(owner, from, migrateTailBatch)
		if err != nil {
			return drained, fmt.Errorf("amclient: migrate: drain tail: %w", err)
		}
		if len(page.Records) > 0 {
			if _, err := dst.ClusterImport(page.Records); err != nil {
				return drained, fmt.Errorf("amclient: migrate: import drain: %w", err)
			}
			drained += len(page.Records)
			empty = 0
		} else {
			empty++
		}
		from = page.LastSeq
	}
	say(7, "drained: %d records; migration complete", drained)
	return drained, nil
}

// migrateSay adapts the optional progress callback into a printf-shaped
// helper shared by the migration legs.
func migrateSay(progress func(step int, msg string)) func(step int, format string, args ...any) {
	return func(step int, format string, args ...any) {
		if progress != nil {
			progress(step, fmt.Sprintf(format, args...))
		}
	}
}
