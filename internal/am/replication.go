package am

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"umac/internal/core"
	"umac/internal/store"
	"umac/internal/webutil"
)

// This file implements WAL-shipping replication between AM instances: a
// primary serves its datastore's write-ahead log over the authenticated
// /v1/replication/* surface (snapshot bootstrap + resumable tailing by
// sequence number), and a follower applies the stream into its own store
// and serves the read-only decision path while rejecting writes with a
// not_primary error carrying a leader hint. Decision correctness on a
// follower needs no extra machinery: pairings, realms, policies and groups
// all live in the replicated store, the token-service key is shared
// deployment-wide (Config.TokenKey), so a follower validates tokens the
// primary minted, and each token carries its own grant context (claims
// presented, consent given).

// ReplicationRole selects how an AM participates in a replicated
// deployment.
type ReplicationRole string

// Replication roles. The zero value is a standalone AM: it serves writes
// like a primary but retains no WAL tail for followers.
const (
	// RolePrimary serves writes and streams its WAL on /v1/replication/*.
	RolePrimary ReplicationRole = ReplicationRole(core.ReplRolePrimary)
	// RoleFollower syncs from PrimaryURL and serves reads only.
	RoleFollower ReplicationRole = ReplicationRole(core.ReplRoleFollower)
)

// ReplicationConfig configures an AM's replication role.
type ReplicationConfig struct {
	// Role selects primary or follower; empty means standalone (no
	// replication surface, no sync loop).
	Role ReplicationRole
	// Secret authenticates the /v1/replication/* surface: the primary
	// requires it as a bearer token and the follower presents it. Both
	// sides must be configured with the same value; a primary without a
	// secret refuses replication requests outright.
	Secret string
	// PrimaryURL is the primary's base URL (followers only).
	PrimaryURL string
	// Window bounds how many recent WAL records the primary retains for
	// tailing; 0 means store.DefaultReplicationWindow. Followers further
	// behind re-bootstrap from a snapshot.
	Window int
	// PollWait is how long the follower's long-poll asks the primary to
	// hold when no records are pending; 0 means 2s.
	PollWait time.Duration
	// HTTPClient performs follower→primary calls; nil means a dedicated
	// client with a timeout slightly above PollWait.
	HTTPClient *http.Client
}

// defaultReplPollWait is the follower long-poll hold used when
// ReplicationConfig.PollWait is zero.
const defaultReplPollWait = 2 * time.Second

// replWALMaxBatch caps how many records one GET /v1/replication/wal
// response may carry, whatever the ?max= parameter says.
const replWALMaxBatch = 4096

// replWALDefaultBatch is the batch size used when ?max= is absent.
const replWALDefaultBatch = 512

// replMaxWait caps the server-side long-poll hold.
const replMaxWait = 30 * time.Second

// startReplication wires the configured role: a primary starts retaining
// its WAL tail, a follower launches the sync loop. Called from New.
func (a *AM) startReplication() {
	switch a.replCfg.Role {
	case RolePrimary:
		a.store.EnableReplication(a.replCfg.Window)
	case RoleFollower:
		a.roleFollower.Store(true)
		a.replCtx, a.replCancel = context.WithCancel(context.Background())
		a.replDone = make(chan struct{})
		go a.replLoop()
	}
}

// stopReplication terminates the follower sync loop (no-op otherwise),
// cancelling any in-flight long-poll so Close and Promote never wait for
// a poll hold or HTTP timeout to elapse.
func (a *AM) stopReplication() {
	if a.replCancel == nil {
		return
	}
	a.replStopOnce.Do(a.replCancel)
	<-a.replDone
}

// Promote turns a follower into a primary: the sync loop is stopped, the
// write gate opens, and the store starts retaining its WAL tail so other
// followers can re-point at this instance. The promoted AM continues the
// sequence numbering where its applied offset left off — any write the old
// primary acknowledged but never shipped here is NOT recovered (promote
// only after the follower has caught up, or accept the divergence; see
// docs/OPERATIONS.md, "Failover drill").
func (a *AM) Promote() {
	a.stopReplication()
	a.store.EnableReplication(a.replCfg.Window)
	a.roleFollower.Store(false)
	a.publishReplSignal(core.SignalPromoted)
}

// publishReplSignal emits a replication event on the control plane, with
// the node's current health as payload. Subscribed operators and clients
// learn about promotions and connectivity flips without polling /healthz.
func (a *AM) publishReplSignal(signal string) {
	a.broker.Publish(core.Event{
		Type:        core.EventReplication,
		Signal:      signal,
		Replication: a.ReplicationHealth(),
	})
}

// setReplConnected flips the follower's connectivity flag, publishing a
// replication signal only on actual transitions (the sync loop calls this
// every round; steady state must not flood the stream).
func (a *AM) setReplConnected(connected bool) {
	if a.replConnected.Swap(connected) == connected {
		return
	}
	if connected {
		a.publishReplSignal(core.SignalConnected)
	} else {
		a.publishReplSignal(core.SignalDisconnected)
	}
}

// IsFollower reports whether the AM currently rejects writes.
func (a *AM) IsFollower() bool { return a.roleFollower.Load() }

// ReplicationHealth reports the node's replication state, or nil for a
// standalone AM. Exposed on GET /v1/healthz and GET /v1/metrics.
func (a *AM) ReplicationHealth() *core.ReplicationHealth {
	if a.replCfg.Role == "" {
		return nil
	}
	h := &core.ReplicationHealth{
		Role:    core.ReplRolePrimary,
		LastSeq: a.store.LastSeq(),
	}
	if a.roleFollower.Load() {
		h.Role = core.ReplRoleFollower
		h.Primary = a.replCfg.PrimaryURL
		h.PrimarySeq = a.replPrimarySeq.Load()
		if lag := h.PrimarySeq - h.LastSeq; lag > 0 {
			h.LagRecords = lag
		}
		h.Connected = a.replConnected.Load()
		h.AppliedRecords = a.replApplied.Load()
	}
	return h
}

// WaitReplicated blocks until the store's applied offset reaches seq,
// polling; it reports false on timeout. Test and drill helper.
func (a *AM) WaitReplicated(seq int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for a.store.LastSeq() < seq {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// --- Write gating (follower side) ---

// primaryOnly guards a mutating route: on a follower it answers the
// structured not_primary error (retryable, with the primary's URL as the
// leader hint) before authentication runs, so clients fail over without
// burning credentials against a node that cannot serve them.
func (a *AM) primaryOnly(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if a.roleFollower.Load() {
			e := core.APIErrorf(core.CodeNotPrimary,
				"am: %s is a read-only follower; send writes to the primary", a.name)
			e.Leader = a.replCfg.PrimaryURL
			webutil.WriteAPIError(w, r, e)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// --- Primary-side HTTP surface ---

// replAuthed guards the /v1/replication/* surface: the request must carry
// the shared replication secret as a bearer token, and the node must be
// configured with one. Followers redirect tailing peers to the primary.
func (a *AM) replAuthed(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if a.replCfg.Secret == "" {
			webutil.FailCode(w, r, core.CodeForbidden, "am: replication is not configured on %s", a.name)
			return
		}
		got := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
		if subtle.ConstantTimeCompare([]byte(got), []byte(a.replCfg.Secret)) != 1 {
			webutil.FailCode(w, r, core.CodeForbidden, "am: bad replication secret")
			return
		}
		if a.roleFollower.Load() {
			e := core.APIErrorf(core.CodeNotPrimary, "am: %s is a follower; replicate from the primary", a.name)
			e.Leader = a.replCfg.PrimaryURL
			webutil.WriteAPIError(w, r, e)
			return
		}
		h(w, r)
	})
}

// handleReplSnapshot serves the bootstrap image: the full store contents
// plus the sequence number they are consistent at. With ?owner= the image
// is restricted to that owner's closure (pairings, realms, policies,
// links, groups, custodians, grants) — the first leg of a live owner
// migration.
func (a *AM) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	if owner := core.UserID(r.URL.Query().Get("owner")); owner != "" {
		webutil.WriteJSON(w, http.StatusOK, a.store.ReplicationSnapshotFilter(replOwnerKeep(owner)))
		return
	}
	webutil.WriteJSON(w, http.StatusOK, a.store.ReplicationSnapshot())
}

// handleReplWAL serves the resumable WAL tail: records after ?from=, up to
// ?max= per response, holding up to ?wait_ms= for new records when the
// follower is caught up (long poll). A ?from= that predates the retained
// window answers wal_truncated: the follower must re-bootstrap.
//
// With ?owner= the tail is restricted to that owner's closure — the
// catch-up and drain legs of a live owner migration. The page's last_seq
// is then the offset the scan advanced through (which may exceed the last
// returned record when trailing foreign records were skipped); callers
// resume from it, and a page that is empty at an unmoved offset means the
// migration stream is drained.
func (a *AM) handleReplWAL(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	ownerFilter := core.UserID(q.Get("owner"))
	from, err := strconv.ParseInt(q.Get("from"), 10, 64)
	if q.Get("from") == "" {
		from, err = 0, nil
	}
	if err != nil || from < 0 {
		webutil.FailCode(w, r, core.CodeBadRequest, "am: ?from= must be a non-negative integer")
		return
	}
	max := replWALDefaultBatch
	if raw := q.Get("max"); raw != "" {
		max, err = strconv.Atoi(raw)
		if err != nil || max <= 0 {
			webutil.FailCode(w, r, core.CodeBadRequest, "am: ?max= must be a positive integer")
			return
		}
	}
	if max > replWALMaxBatch {
		max = replWALMaxBatch
	}
	var wait time.Duration
	if raw := q.Get("wait_ms"); raw != "" {
		ms, err := strconv.Atoi(raw)
		if err != nil || ms < 0 {
			webutil.FailCode(w, r, core.CodeBadRequest, "am: ?wait_ms= must be a non-negative integer")
			return
		}
		wait = time.Duration(ms) * time.Millisecond
	}
	if wait > replMaxWait {
		wait = replMaxWait
	}

	deadline := time.Now().Add(wait)
	for {
		// Arm the watch before reading the tail so a record logged between
		// the two cannot be missed.
		watch := a.store.ReplWatch()
		var recs []core.ReplRecord
		var last int64
		if ownerFilter != "" {
			recs, last, err = a.store.TailSinceFilter(from, max, replOwnerKeep(ownerFilter))
		} else {
			recs, last, err = a.store.TailSince(from, max)
		}
		switch {
		case errors.Is(err, store.ErrReplicationTruncated):
			webutil.FailCode(w, r, core.CodeWALTruncated,
				"am: offset %d predates the retained WAL window; re-bootstrap from /v1/replication/snapshot", from)
			return
		case errors.Is(err, store.ErrReplicationDisabled):
			webutil.FailCode(w, r, core.CodeForbidden, "am: replication is not enabled on %s", a.name)
			return
		case err != nil:
			webutil.Fail(w, r, err)
			return
		}
		remain := time.Until(deadline)
		// An owner-filtered scan that advanced past foreign records must
		// answer immediately even with no records, so the migration loop's
		// offset keeps moving.
		if len(recs) > 0 || last > from || remain <= 0 {
			webutil.WriteJSON(w, http.StatusOK, core.ReplWALPage{Records: recs, LastSeq: last})
			return
		}
		timer := time.NewTimer(remain)
		select {
		case <-watch:
			timer.Stop()
		case <-timer.C:
		case <-r.Context().Done():
			timer.Stop()
			return
		}
	}
}

// --- Follower-side sync loop ---

// replLoop is the follower's sync engine: bootstrap from a snapshot when
// the primary's retained window no longer covers our applied offset (first
// start, long outage, primary compaction), then tail the WAL with long
// polls, applying records in sequence order. Transient failures back off
// and retry forever — a follower never gives up on its primary.
func (a *AM) replLoop() {
	defer close(a.replDone)
	client := a.replCfg.HTTPClient
	wait := a.replCfg.PollWait
	if wait <= 0 {
		wait = defaultReplPollWait
	}
	if client == nil {
		client = &http.Client{Timeout: wait + 10*time.Second}
	}
	backoff := 50 * time.Millisecond
	const maxBackoff = 5 * time.Second
	for {
		select {
		case <-a.replCtx.Done():
			return
		default:
		}
		err := a.syncOnce(client, wait)
		if err != nil {
			if a.replCtx.Err() != nil {
				return
			}
			a.setReplConnected(false)
			select {
			case <-a.replCtx.Done():
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
			continue
		}
		backoff = 50 * time.Millisecond
	}
}

// syncOnce performs one tail round-trip (or a snapshot bootstrap when the
// tail is truncated) and applies everything it got.
func (a *AM) syncOnce(client *http.Client, wait time.Duration) error {
	from := a.store.LastSeq()
	page, err := a.fetchWAL(client, from, wait)
	if err != nil {
		var ae *core.APIError
		if errors.As(err, &ae) && ae.Code == core.CodeWALTruncated {
			return a.bootstrap(client)
		}
		return err
	}
	for _, rec := range page.Records {
		if err := a.store.ApplyReplicated(rec); err != nil {
			if errors.Is(err, store.ErrReplicationGap) {
				// Should be impossible on an ordered stream; re-bootstrap
				// rather than diverge.
				return a.bootstrap(client)
			}
			return err
		}
		// The policy engine resolves group membership through the
		// in-memory directory, so replicated group records must reach it
		// too — otherwise follower decisions would evaluate against the
		// membership as of process start.
		if rec.Kind == kindGroup {
			a.groups.installRecord(rec)
		}
		// A replicated ring install must take routing effect on the
		// follower too: after a promotion it gates owners by the same
		// topology its former primary pushed.
		if rec.Kind == kindClusterRing {
			a.installRingRecord(rec)
		}
		// Policy and link records change what the compiled decision index
		// resolves; the index has no TTL, so replicated changes must drop
		// its entries just like local PAP mutations do.
		a.index.applyRecord(rec)
		a.replApplied.Add(1)
	}
	a.replPrimarySeq.Store(page.LastSeq)
	a.setReplConnected(true)
	// A page that leaves us behind the primary's head means sustained lag:
	// surface it so dashboards see the gap before it becomes an outage.
	if page.LastSeq > a.store.LastSeq() {
		a.publishReplSignal(core.SignalLag)
	}
	return nil
}

// bootstrap installs a full snapshot from the primary and persists it
// locally (when the follower store is durable) so a restart resumes by
// tailing instead of re-bootstrapping.
func (a *AM) bootstrap(client *http.Client) error {
	var snap core.ReplSnapshot
	if err := a.replGet(client, "/v1/replication/snapshot", &snap); err != nil {
		return err
	}
	if err := a.store.LoadReplicationSnapshot(snap); err != nil {
		return err
	}
	// The snapshot replaced the whole store; rebuild the in-memory group
	// directory, adopt any newer ring state the image carried, and flush
	// the compiled decision index to match it.
	a.groups.rebuild()
	a.restoreRing()
	a.index.reset()
	a.replApplied.Add(int64(len(snap.Records)))
	a.replPrimarySeq.Store(snap.Seq)
	a.setReplConnected(true)
	if p := a.store.Path(); p != "" && a.store.Durable() {
		if err := a.store.Snapshot(p); err != nil {
			return fmt.Errorf("am: persist bootstrap snapshot: %w", err)
		}
	}
	return nil
}

// fetchWAL pulls one page of records after from, long-polling for wait.
func (a *AM) fetchWAL(client *http.Client, from int64, wait time.Duration) (core.ReplWALPage, error) {
	q := url.Values{
		"from":    {strconv.FormatInt(from, 10)},
		"wait_ms": {strconv.FormatInt(wait.Milliseconds(), 10)},
	}
	var page core.ReplWALPage
	err := a.replGet(client, "/v1/replication/wal?"+q.Encode(), &page)
	return page, err
}

// replGet performs one authenticated GET against the primary, decoding a
// 2xx body into out and non-2xx bodies into *core.APIError. The request
// carries the loop's context, so stopReplication aborts in-flight polls.
func (a *AM) replGet(client *http.Client, path string, out any) error {
	req, err := http.NewRequestWithContext(a.replCtx, http.MethodGet,
		strings.TrimSuffix(a.replCfg.PrimaryURL, "/")+path, nil)
	if err != nil {
		return fmt.Errorf("am: replication request: %w", err)
	}
	req.Header.Set("Authorization", "Bearer "+a.replCfg.Secret)
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("am: replication fetch %s: %w", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return fmt.Errorf("am: replication read %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		var e core.APIError
		if json.Unmarshal(body, &e) == nil && e.Code != "" {
			return &e
		}
		return fmt.Errorf("am: replication fetch %s: status %d", path, resp.StatusCode)
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("am: replication decode %s: %w", path, err)
	}
	return nil
}
