package am

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"umac/internal/audit"
	"umac/internal/cluster"
	"umac/internal/core"
	"umac/internal/store"
	"umac/internal/webutil"
)

// This file is the multi-primary cluster side of the AM: a consistent-hash
// ring partitions the decision space by resource owner, each shard being
// one PR-4 replication group (primary + followers). Every owner-scoped
// mutating and decision route checks ownership and answers the structured
// wrong_shard error (421, retryable, with the owning shard's primary URL
// as the hint) when the owner hashes elsewhere — the sharded sibling of
// the follower's not_primary gate. Live migration flips ownership per
// owner via store-persisted overrides, which replicate to the shard's
// followers like any other state, and streams the owner's closure between
// shards over the owner-scoped replication surface plus the import route
// below.

// ClusterConfig configures an AM node's membership in a sharded cluster.
// The zero value is an unsharded node: no ownership checks, no cluster
// surface beyond GET /v1/cluster reporting the absence of a cluster.
type ClusterConfig struct {
	// Shard names the shard this node belongs to. It must match one of the
	// ring's shard names.
	Shard string
	// Ring is the cluster-wide owner ring the node boots with; every node
	// and client of the deployment must be built from the same shard list.
	// It is only the seed: a persisted ring state (installed by a
	// rebalance via PUT /v1/cluster/ring) with a higher version supersedes
	// it at startup and at runtime.
	Ring *cluster.Ring
}

// enabled reports whether the node participates in a sharded cluster.
func (c ClusterConfig) enabled() bool { return c.Ring != nil && c.Shard != "" }

// kindShardOverride is the store kind pinning an owner to a shard by name,
// irrespective of the hash ring: the live-migration cutover state. Keyed
// by owner; the value is the shard name. Being ordinary store state it
// travels the WAL, so a shard's followers enforce the same overrides as
// its primary.
const kindShardOverride = "shard-override"

// kindClusterRing is the store kind persisting the installed ring state
// (core.RingState) under clusterRingKey. Being ordinary store state it
// survives a SIGKILL through the WAL and replicates to the shard's
// followers, so the whole replication group routes by the same ring after
// a rebalance — and after a crash.
const kindClusterRing = "cluster-ring"

// clusterRingKey is the fixed key of the installed ring state.
const clusterRingKey = "current"

// sharded reports whether ownership gating is active on this node.
func (a *AM) sharded() bool { return a.ringPtr.Load() != nil && a.clusterCfg.Shard != "" }

// ring returns the ring currently in force (nil on an unsharded node).
// The pointer is swapped atomically by ring installs; readers must not
// cache it across requests.
func (a *AM) ring() *cluster.Ring { return a.ringPtr.Load() }

// restoreRing installs the persisted ring state when it is newer than the
// ring currently in force — the crash-recovery path (New) and the
// follower bootstrap path (the snapshot may carry a newer ring record).
func (a *AM) restoreRing() {
	cur := a.ringPtr.Load()
	if cur == nil {
		return // unsharded: a persisted ring without shard membership is meaningless
	}
	var st core.RingState
	if _, err := a.store.Get(kindClusterRing, clusterRingKey, &st); err != nil {
		return
	}
	if st.Version <= cur.Version() {
		return
	}
	if ring, err := cluster.NewState(st); err == nil {
		a.ringPtr.Store(ring)
	}
}

// installRingRecord applies a replicated or imported cluster-ring record:
// the follower-side mirror of UpdateRing. Older versions are skipped
// (snapshot-then-tail replays may present them transiently).
func (a *AM) installRingRecord(rec core.ReplRecord) {
	if rec.Op != core.ReplOpPut || rec.Key != clusterRingKey {
		return
	}
	cur := a.ringPtr.Load()
	if cur == nil {
		return
	}
	var st core.RingState
	if json.Unmarshal(rec.Data, &st) != nil || st.Version <= cur.Version() {
		return
	}
	if ring, err := cluster.NewState(st); err == nil {
		a.ringPtr.Store(ring)
	}
}

// UpdateRing installs a new ring state: the rebalance coordinator's
// topology push. Version discipline makes it idempotent and
// monotonic — a higher version persists and takes effect atomically, the
// current version is acknowledged without change, an older one answers
// conflict. The node's own shard may be absent from the new state (the
// final ring of its own drain), after which it disclaims every owner.
// The install write-locks the migration barrier, so no gated mutation
// straddles the routing flip.
func (a *AM) UpdateRing(st core.RingState) (core.ClusterInfo, error) {
	if !a.sharded() {
		return core.ClusterInfo{}, core.APIErrorf(core.CodeNotFound,
			"am: %s is not part of a sharded cluster", a.name)
	}
	cur := a.ring()
	if st.Version < cur.Version() {
		return core.ClusterInfo{}, core.APIErrorf(core.CodeConflict,
			"am: ring v%d is older than the installed v%d", st.Version, cur.Version())
	}
	if st.Version == cur.Version() {
		return a.ClusterInfo()
	}
	ring, err := cluster.NewState(st)
	if err != nil {
		return core.ClusterInfo{}, core.APIErrorf(core.CodeBadRequest, "am: %v", err)
	}
	a.migMu.Lock()
	_, err = a.store.Put(kindClusterRing, clusterRingKey, st)
	if err == nil {
		a.ringPtr.Store(ring)
	}
	a.migMu.Unlock()
	if err != nil {
		return core.ClusterInfo{}, err
	}
	a.auditPipe.Enqueue(audit.Event{
		Type:   audit.EventOwnerMigrated,
		Detail: fmt.Sprintf("ring v%d installed (%d shards, %d draining)", st.Version, len(st.Shards), len(st.Draining)),
	})
	return a.ClusterInfo()
}

// ShardName returns the name of the shard this node belongs to ("" when
// unsharded).
func (a *AM) ShardName() string { return a.clusterCfg.Shard }

// shardOf resolves the shard owning owner: a store-persisted override when
// one names a known shard, the hash ring otherwise. ok is false on an
// unsharded node. Almost no owner has an override, so the lookup asks
// Exists first: a miss then costs no allocation.
func (a *AM) shardOf(owner core.UserID) (core.ShardInfo, bool) {
	if !a.sharded() {
		return core.ShardInfo{}, false
	}
	ring := a.ring()
	if a.store.Exists(kindShardOverride, string(owner)) {
		var name string
		if _, err := a.store.Get(kindShardOverride, string(owner), &name); err == nil {
			if s, ok := ring.Shard(name); ok {
				return s, true
			}
		}
	}
	return ring.Owner(owner), true
}

// gateOwner guards an owner-scoped MUTATING operation: it checks shard
// ownership with the migration barrier read-held and returns a release
// the caller defers across the whole mutation. SetOwnerShard write-locks
// the same barrier, so an ownership flip waits for every in-flight gated
// mutation to commit (WAL append included) and no gated mutation can
// start once the flip is in — which is what makes the migration drain's
// "the gate is closed, nothing more can arrive" a real fence instead of
// a race against writers that passed the check but had not appended yet.
// Decision (read-only) paths use checkShard directly; they append
// nothing a drain could miss.
func (a *AM) gateOwner(owner core.UserID) (func(), error) {
	if !a.sharded() {
		return func() {}, nil
	}
	a.migMu.RLock()
	if err := a.checkShard(owner); err != nil {
		a.migMu.RUnlock()
		return nil, err
	}
	return a.migMu.RUnlock, nil
}

// checkShard guards an owner-scoped mutating or decision path: nil when
// this node's shard owns the owner (or the node is unsharded, or the owner
// is unknown), otherwise the structured wrong_shard error carrying the
// owning shard's primary URL as the hint a client chases once.
func (a *AM) checkShard(owner core.UserID) error {
	if owner == "" {
		return nil
	}
	s, ok := a.shardOf(owner)
	if !ok || s.Name == a.clusterCfg.Shard {
		return nil
	}
	e := core.APIErrorf(core.CodeWrongShard,
		"am: owner %s belongs to shard %s, not %s", owner, s.Name, a.clusterCfg.Shard)
	e.Shard = s.Primary
	return e
}

// ClusterInfo reports the node's view of the cluster: ring membership,
// this node's shard, and the owner overrides currently in force.
func (a *AM) ClusterInfo() (core.ClusterInfo, error) {
	if !a.sharded() {
		return core.ClusterInfo{}, core.APIErrorf(core.CodeNotFound,
			"am: %s is not part of a sharded cluster", a.name)
	}
	ring := a.ring()
	info := core.ClusterInfo{
		Shard:       a.clusterCfg.Shard,
		RingVersion: ring.Version(),
		Vnodes:      ring.Vnodes(),
		Shards:      ring.Shards(),
		Draining:    ring.Draining(),
	}
	for _, e := range a.store.List(kindShardOverride) {
		var name string
		if e.Decode(&name) == nil {
			if info.Overrides == nil {
				info.Overrides = make(map[string]string)
			}
			info.Overrides[e.Key] = name
		}
	}
	return info, nil
}

// SetOwnerShard pins owner to the named shard (the migration cutover
// flip). On the losing shard this makes every subsequent owner-scoped
// request answer wrong_shard with the new shard as the hint; on the
// gaining shard it makes the node accept an owner its hash ring would
// otherwise place elsewhere. The override is ordinary replicated state.
func (a *AM) SetOwnerShard(owner core.UserID, shard string) error {
	if !a.sharded() {
		return core.APIErrorf(core.CodeNotFound, "am: %s is not part of a sharded cluster", a.name)
	}
	if owner == "" {
		return core.APIErrorf(core.CodeBadRequest, "am: owner required")
	}
	if _, ok := a.ring().Shard(shard); !ok {
		return core.APIErrorf(core.CodeBadRequest, "am: unknown shard %q", shard)
	}
	// Write-lock the migration barrier: every in-flight gated mutation
	// commits before the flip lands, and none can start past it — see
	// gateOwner.
	a.migMu.Lock()
	_, err := a.store.Put(kindShardOverride, string(owner), shard)
	a.migMu.Unlock()
	if err != nil {
		return err
	}
	a.auditPipe.Enqueue(audit.Event{
		Type: audit.EventOwnerMigrated, Owner: owner, Detail: "owner pinned to shard " + shard,
	})
	return nil
}

// ClearOwnerShard removes an owner's shard override, so the hash ring
// alone places the owner again — the rebalance coordinator's cleanup once
// the pushed ring agrees with the migrated placement. Clearing an absent
// override is a no-op: the call is idempotent under coordinator retries.
func (a *AM) ClearOwnerShard(owner core.UserID) error {
	if !a.sharded() {
		return core.APIErrorf(core.CodeNotFound, "am: %s is not part of a sharded cluster", a.name)
	}
	if owner == "" {
		return core.APIErrorf(core.CodeBadRequest, "am: owner required")
	}
	a.migMu.Lock()
	err := a.store.Delete(kindShardOverride, string(owner))
	a.migMu.Unlock()
	if errors.Is(err, store.ErrNotFound) {
		return nil
	}
	if err != nil {
		return err
	}
	a.auditPipe.Enqueue(audit.Event{
		Type: audit.EventOwnerMigrated, Owner: owner, Detail: "owner shard override cleared",
	})
	return nil
}

// --- Per-shard load accounting (the rebalance planner's input) ---

// ownerOf classifies a store entity to the owner whose closure it belongs
// to — the forward direction of replOwnerKeep's predicate, sharing its
// kind-by-kind ownership encoding. Ownerless entities (system state, and
// the inert `grant` records older builds wrote) report ok=false. It runs under store
// locks and must not call back into the store.
func ownerOf(e store.Entity) (core.UserID, bool) {
	switch e.Kind {
	case kindLinkGen, kindLinkSpec, kindGroup:
		owner, _, ok := strings.Cut(e.Key, "/")
		return core.UserID(owner), ok
	case kindCustodian, kindShardOverride:
		return core.UserID(e.Key), true
	case kindPairing, kindRealm, kindPolicy:
		var doc ownerDoc
		if json.Unmarshal(e.Data, &doc) != nil {
			return "", false
		}
		if e.Kind == kindPairing {
			return doc.User, doc.User != ""
		}
		return doc.Owner, doc.Owner != ""
	}
	return "", false
}

// OwnerStats reports the owners this shard effectively owns (ring
// placement plus overrides) with their record counts — the per-shard load
// data the rebalance planner diffs against the target ring, and the
// source of the /v1/metrics cluster gauges. Owners whose records linger
// locally but who are owned elsewhere (migrated-away leftovers) are
// excluded: planning from them would re-move owners that already moved.
// Override records count toward their owner, so a just-migrated owner
// with no data yet still appears on its new shard.
func (a *AM) OwnerStats() (core.OwnerStatsResponse, error) {
	if !a.sharded() {
		return core.OwnerStatsResponse{}, core.APIErrorf(core.CodeNotFound,
			"am: %s is not part of a sharded cluster", a.name)
	}
	counts := a.store.OwnerStats(func(e store.Entity) (string, bool) {
		owner, ok := ownerOf(e)
		return string(owner), ok
	})
	resp := core.OwnerStatsResponse{
		Shard:       a.clusterCfg.Shard,
		RingVersion: a.ring().Version(),
	}
	for owner, n := range counts {
		if s, ok := a.shardOf(core.UserID(owner)); ok && s.Name == a.clusterCfg.Shard {
			resp.Owners = append(resp.Owners, core.OwnerLoad{Owner: core.UserID(owner), Records: n})
		}
	}
	sort.Slice(resp.Owners, func(i, j int) bool { return resp.Owners[i].Owner < resp.Owners[j].Owner })
	return resp, nil
}

// ClusterHealth condenses OwnerStats into the /v1/metrics gauge set (nil
// on an unsharded node).
func (a *AM) ClusterHealth() *core.ClusterHealth {
	stats, err := a.OwnerStats()
	if err != nil {
		return nil
	}
	h := &core.ClusterHealth{Shard: stats.Shard, RingVersion: stats.RingVersion, Owners: len(stats.Owners)}
	for _, o := range stats.Owners {
		h.OwnerRecords += o.Records
		if o.Records > h.MaxOwnerRecords {
			h.MaxOwnerRecords = o.Records
		}
	}
	return h
}

// --- Owner-closure filtering (the migration stream) ---

// ownerDoc is the minimal decoding of an owner-carrying record payload.
type ownerDoc struct {
	Owner core.UserID `json:"owner"`
	User  core.UserID `json:"user"`
}

// replOwnerKeep is the record predicate of the owner-scoped replication
// surface: it accepts exactly the records of owner's closure. Ownership is
// read from the key for owner-prefixed kinds and from the payload for
// ID-keyed kinds. Delete records of ID-keyed kinds carry no payload, so
// they are always kept: IDs are globally unique, which makes replaying a
// foreign delete on the target a no-op. The predicate never calls back
// into the store (it runs under store locks).
func replOwnerKeep(owner core.UserID) func(core.ReplRecord) bool {
	prefix := string(owner) + "/"
	return func(rec core.ReplRecord) bool {
		switch rec.Kind {
		case kindLinkGen, kindLinkSpec, kindGroup:
			return strings.HasPrefix(rec.Key, prefix)
		case kindCustodian, kindShardOverride:
			return rec.Key == string(owner)
		case kindPairing, kindRealm, kindPolicy:
			if rec.Op == core.ReplOpDelete {
				return true
			}
			var doc ownerDoc
			if json.Unmarshal(rec.Data, &doc) != nil {
				return false
			}
			if rec.Kind == kindPairing {
				return doc.User == owner
			}
			return doc.Owner == owner
		}
		return false
	}
}

// --- HTTP surface ---

// handleClusterInfo serves GET /v1/cluster: the ring clients build their
// owner routing from. Unauthenticated, like the other topology probes.
func (a *AM) handleClusterInfo(w http.ResponseWriter, r *http.Request) {
	info, err := a.ClusterInfo()
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	webutil.WriteJSON(w, http.StatusOK, info)
}

// handleOwnerOverride serves PUT /v1/cluster/owners/{owner}: the
// migration cutover flip, authenticated by the replication secret.
func (a *AM) handleOwnerOverride(w http.ResponseWriter, r *http.Request) {
	var req core.OwnerOverrideRequest
	if err := webutil.ReadJSON(r, &req); err != nil {
		webutil.Fail(w, r, err)
		return
	}
	owner := core.UserID(r.PathValue("owner"))
	if err := a.SetOwnerShard(owner, req.Shard); err != nil {
		webutil.Fail(w, r, err)
		return
	}
	webutil.WriteJSON(w, http.StatusOK, map[string]string{string(owner): req.Shard})
}

// handleOwnerOverrideClear serves DELETE /v1/cluster/owners/{owner}: the
// rebalance coordinator's pin cleanup, authenticated by the replication
// secret. Idempotent.
func (a *AM) handleOwnerOverrideClear(w http.ResponseWriter, r *http.Request) {
	owner := core.UserID(r.PathValue("owner"))
	if err := a.ClearOwnerShard(owner); err != nil {
		webutil.Fail(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleOwnerStats serves GET /v1/cluster/owners: the shard's effective
// owner list with record counts, authenticated by the replication secret
// (it enumerates every owner the shard serves).
func (a *AM) handleOwnerStats(w http.ResponseWriter, r *http.Request) {
	stats, err := a.OwnerStats()
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	webutil.WriteJSON(w, http.StatusOK, stats)
}

// handleRingUpdate serves PUT /v1/cluster/ring: the rebalance
// coordinator's topology push, authenticated by the replication secret.
// Idempotent and monotonic by ring version.
func (a *AM) handleRingUpdate(w http.ResponseWriter, r *http.Request) {
	var st core.RingState
	if err := webutil.ReadJSON(r, &st); err != nil {
		webutil.Fail(w, r, err)
		return
	}
	info, err := a.UpdateRing(st)
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	webutil.WriteJSON(w, http.StatusOK, info)
}

// handleClusterImport serves POST /v1/cluster/import: records captured
// from another shard's owner-scoped snapshot or WAL tail, installed as
// ordinary local writes (re-sequenced into this primary's WAL, so they
// replicate onward to its followers). Applying a batch twice is safe:
// puts overwrite with identical payloads and deletes of absent keys are
// skipped.
func (a *AM) handleClusterImport(w http.ResponseWriter, r *http.Request) {
	var req core.ClusterImportRequest
	if err := webutil.ReadJSON(r, &req); err != nil {
		webutil.Fail(w, r, err)
		return
	}
	applied := 0
	for _, rec := range req.Records {
		if err := a.applyImported(rec); err != nil {
			webutil.Fail(w, r, err)
			return
		}
		applied++
	}
	webutil.WriteJSON(w, http.StatusOK, core.ClusterImportResponse{Applied: applied})
}

// applyImported installs one migrated record as a local write, keeping the
// in-memory group directory in sync for group records.
func (a *AM) applyImported(rec core.ReplRecord) error {
	if rec.Kind == "" || rec.Key == "" {
		return core.APIErrorf(core.CodeBadRequest, "am: import record with empty kind or key")
	}
	switch rec.Op {
	case core.ReplOpPut:
		if _, err := a.store.Put(rec.Kind, rec.Key, rec.Data); err != nil {
			return err
		}
	case core.ReplOpDelete:
		if err := a.store.Delete(rec.Kind, rec.Key); err != nil && !errors.Is(err, store.ErrNotFound) {
			return err
		}
	default:
		return core.APIErrorf(core.CodeBadRequest, "am: import record with unknown op %q", rec.Op)
	}
	if rec.Kind == kindGroup {
		a.groups.installRecord(rec)
	}
	if rec.Kind == kindClusterRing {
		a.installRingRecord(rec)
	}
	a.index.applyRecord(rec)
	return nil
}
