// Package rebalance implements the cluster's self-rebalancing coordinator:
// given a target ring (a shard added, or one marked draining), it plans
// the owner moves the topology change implies and executes them as
// rate-limited, batched live migrations over the owner-scoped replication
// surface — the same three-leg copy/cutover/drain discipline
// amclient.MigrateOwner performs for one owner, driven in bulk.
//
// The coordinator is crash-resumable: the plan and every owner's move
// phase are checkpointed through the hosting AM's store (and therefore
// its WAL), so a SIGKILLed coordinator restarts, reloads the plan, skips
// owners already done, re-flips owners caught between copy and cutover,
// and never migrates a finished owner twice. It is abortable: a clean
// stop completes the move in flight and leaves every other owner pinned
// to its source shard — wholly on exactly one shard, with consistent
// wrong_shard hints. And it is observable: progress is exposed on
// GET /v1/rebalance and /v1/metrics, and every lifecycle transition and
// completed move publishes a replication-type event on the AM's broker.
//
// Ordering is what makes the bulk move safe under load:
//
//  1. Pin every planned owner to its current (source) shard on both the
//     losing and gaining primaries. Overrides beat hash placement, so the
//     topology flip in step 2 moves no live traffic.
//  2. Push the target ring state to every shard primary (idempotent by
//     version). New placements now route by the target ring; every
//     planned owner still routes to its source via the pins.
//  3. Migrate owners one at a time (batched, rate-limited): copy,
//     checkpoint the WAL offset, cut over (re-point the pins at the
//     gaining shard), drain from the checkpointed offset, clear the pins
//     (the ring now agrees), checkpoint the move done.
//  4. For a drain, once every owner has moved off, push a final ring
//     state (version+1) without the drained shard.
//
// A crash between copy and cutover resumes by re-flipping and draining
// from the checkpointed offset — never by re-importing a by-then-stale
// snapshot over writes the gaining shard has accepted since.
package rebalance

import (
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"umac/internal/amclient"
	"umac/internal/cluster"
	"umac/internal/core"
	"umac/internal/store"
)

// Store kinds of the coordinator's checkpoint state. They live in the
// hosting AM's store, so they ride its WAL (surviving SIGKILL) and its
// replication stream (a promoted follower can resume the plan).
const (
	// kindPlan holds the single active plan under key planKey.
	kindPlan = "rebalance-plan"
	// kindMove holds one record per planned owner, key "<planID>/<owner>",
	// value moveState — the per-owner resume checkpoint.
	kindMove = "rebalance-move"
)

// planKey is the fixed key of the active plan: one rebalance at a time.
const planKey = "current"

// Default execution tuning.
const (
	// DefaultBatchSize is how many owners move between plan-progress
	// checkpoints when RebalanceRequest.BatchSize is 0.
	DefaultBatchSize = 16
	// DefaultMaxRetries bounds per-operation retries against shard
	// primaries (a restarting primary needs the budget to cover its
	// recovery window).
	DefaultMaxRetries = 8
	// retryBaseBackoff and retryMaxBackoff shape the retry schedule.
	retryBaseBackoff = 250 * time.Millisecond
	retryMaxBackoff  = 3 * time.Second
)

// Plan is the persisted rebalance plan: everything a freshly restarted
// coordinator needs to continue exactly where its predecessor died.
type Plan struct {
	// ID identifies the plan; move checkpoints are keyed under it. Derived
	// from the target ring version, which is unique per rebalance.
	ID string `json:"id"`
	// Target is the ring state being converged on.
	Target core.RingState `json:"target"`
	// Final, when non-nil, is the post-drain ring state (Target.Version+1,
	// drained shards removed) pushed once every move is done.
	Final *core.RingState `json:"final,omitempty"`
	// Moves is the full planned move set, in execution order.
	Moves []core.RebalanceMove `json:"moves"`
	// BatchSize and MovesPerSec are the execution tuning the plan was
	// started with (resume keeps them).
	BatchSize   int     `json:"batch_size"`
	MovesPerSec float64 `json:"moves_per_sec,omitempty"`
	// State is the lifecycle state (core.RebalanceRunning et al.).
	State string `json:"state"`
	// Error carries the terminal error of a failed plan.
	Error string `json:"error,omitempty"`
}

// moveState is one owner's checkpointed progress.
type moveState struct {
	// Phase is core.MovePending / MoveCopied / MoveDone.
	Phase string `json:"phase"`
	// Offset is the source WAL offset the copy leg reached — where the
	// drain resumes from after a crash between copy and cutover.
	Offset int64 `json:"offset,omitempty"`
}

// Config wires a Coordinator into its host.
type Config struct {
	// Store is the checkpoint substrate (the hosting AM's store).
	Store *store.Store
	// Secret is the deployment's replication secret, presented to every
	// shard primary's admin surface.
	Secret string
	// HTTPClient performs the coordinator's calls; nil means a dedicated
	// client with a 15s timeout.
	HTTPClient *http.Client
	// MaxRetries bounds retries per remote operation; 0 means
	// DefaultMaxRetries.
	MaxRetries int
	// Notify, when non-nil, receives every lifecycle signal
	// (core.SignalRebalanceStarted et al.) with the owner concerned (move
	// signals only) and the progress snapshot. The hosting AM publishes
	// these on its event broker.
	Notify func(signal string, owner core.UserID, st core.RebalanceStatus)
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)
	// BeforeMove is a test seam: called before each move executes. A
	// non-nil error stops the run loop immediately — like a coordinator
	// crash, the plan stays checkpointed as running and resumes later —
	// which is how the fault-injection suites die deterministically
	// between moves.
	BeforeMove func(m core.RebalanceMove) error
}

// Coordinator executes one rebalance plan at a time against the cluster.
type Coordinator struct {
	cfg Config

	// stop is closed by Stop: the run loop exits at its next remote call
	// or move boundary, and back-off and rate-limit pauses end at once.
	stop     chan struct{}
	stopOnce sync.Once

	mu      sync.Mutex
	running bool
	status  core.RebalanceStatus
	abort   bool
	idle    chan struct{} // closed when the run loop exits; nil when idle
}

// New builds a coordinator. It does not touch the store or the network;
// call Resume to continue a checkpointed plan, or Start for a new one.
func New(cfg Config) *Coordinator {
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Timeout: 15 * time.Second}
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	c := &Coordinator{cfg: cfg, stop: make(chan struct{})}
	if plan, ok := c.loadPlan(); ok {
		c.status = c.statusOf(plan)
	}
	return c
}

// loadPlan reads the persisted plan, if any.
func (c *Coordinator) loadPlan() (*Plan, bool) {
	var p Plan
	if _, err := c.cfg.Store.Get(kindPlan, planKey, &p); err != nil {
		return nil, false
	}
	return &p, true
}

// savePlan persists the plan record.
func (c *Coordinator) savePlan(p *Plan) error {
	_, err := c.cfg.Store.Put(kindPlan, planKey, p)
	return err
}

// loadMove reads one owner's checkpoint (zero value when absent).
func (c *Coordinator) loadMove(planID string, owner core.UserID) moveState {
	var ms moveState
	c.cfg.Store.Get(kindMove, planID+"/"+string(owner), &ms)
	if ms.Phase == "" {
		ms.Phase = core.MovePending
	}
	return ms
}

// saveMove checkpoints one owner's progress.
func (c *Coordinator) saveMove(planID string, owner core.UserID, ms moveState) error {
	_, err := c.cfg.Store.Put(kindMove, planID+"/"+string(owner), ms)
	return err
}

// statusOf derives a progress snapshot from a plan and its move
// checkpoints.
func (c *Coordinator) statusOf(p *Plan) core.RebalanceStatus {
	st := core.RebalanceStatus{
		ID: p.ID, State: p.State, RingVersion: p.Target.Version,
		Total: len(p.Moves), Error: p.Error,
	}
	for _, m := range p.Moves {
		if c.loadMove(p.ID, m.Owner).Phase == core.MoveDone {
			st.Done++
		}
	}
	st.Remaining = st.Total - st.Done
	return st
}

// Status returns the coordinator's progress snapshot ("" state when no
// plan has ever been checkpointed).
func (c *Coordinator) Status() core.RebalanceStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.status
}

// Abort asks the running plan to stop at the next move boundary; the
// move in flight completes, everything else stays pinned to its source.
// Aborting an idle unfinished plan marks it aborted directly. Returns the
// resulting status.
func (c *Coordinator) Abort() (core.RebalanceStatus, error) {
	c.mu.Lock()
	if c.running {
		c.abort = true
		st := c.status
		c.mu.Unlock()
		return st, nil
	}
	c.mu.Unlock()
	plan, ok := c.loadPlan()
	if !ok {
		return core.RebalanceStatus{}, core.APIErrorf(core.CodeNotFound, "rebalance: no plan to abort")
	}
	if plan.State == core.RebalanceRunning || plan.State == core.RebalanceFailed {
		plan.State = core.RebalanceAborted
		if err := c.savePlan(plan); err != nil {
			return core.RebalanceStatus{}, err
		}
		st := c.statusOf(plan)
		c.setStatus(st)
		c.notify(core.SignalRebalanceAborted, "", st)
		return st, nil
	}
	// Already terminal (done or aborted): nothing to stop, no signal.
	st := c.statusOf(plan)
	c.setStatus(st)
	return st, nil
}

// Stop halts the coordinator the way a crash would and returns once its
// run loop has exited. Pauses end at once, the move in flight stops before
// its next remote call, and no terminal state is checkpointed: the plan
// stays running, so the next coordinator over the same store resumes it.
// A stopped coordinator starts nothing.
func (c *Coordinator) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.mu.Lock()
	running, idle := c.running, c.idle
	c.mu.Unlock()
	if running {
		<-idle
	}
}

// stopped reports whether Stop was called.
func (c *Coordinator) stopped() bool {
	select {
	case <-c.stop:
		return true
	default:
		return false
	}
}

// pause sleeps for d, or until Stop; it reports whether the full pause
// elapsed.
func (c *Coordinator) pause(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-c.stop:
		return false
	case <-t.C:
		return true
	}
}

// Wait blocks until no run loop is active (or the timeout elapses) and
// returns the latest status. Test and CLI helper.
func (c *Coordinator) Wait(timeout time.Duration) core.RebalanceStatus {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		running, idle := c.running, c.idle
		c.mu.Unlock()
		if !running {
			return c.Status()
		}
		select {
		case <-idle:
		case <-time.After(time.Until(deadline)):
			return c.Status()
		}
		if time.Now().After(deadline) {
			return c.Status()
		}
	}
}

func (c *Coordinator) setStatus(st core.RebalanceStatus) {
	c.mu.Lock()
	c.status = st
	c.mu.Unlock()
}

func (c *Coordinator) notify(signal string, owner core.UserID, st core.RebalanceStatus) {
	if c.cfg.Notify != nil {
		c.cfg.Notify(signal, owner, st)
	}
}

// clientFor builds an admin client for the named shard out of the plan's
// target membership (which includes draining shards).
func clientFor(p *Plan, shard string, secret string, hc *http.Client) (*amclient.Client, error) {
	for _, s := range p.Target.Shards {
		if s.Name == shard {
			return amclient.New(amclient.Config{
				BaseURL: s.Primary, ReplSecret: secret, HTTPClient: hc,
			}), nil
		}
	}
	return nil, fmt.Errorf("rebalance: shard %q is not in the target ring", shard)
}

// BuildPlan computes the move set converging the cluster's effective
// ownership onto target: for every owner each source shard effectively
// owns (per its stats), a move to the owner's target-ring placement when
// they differ. ownersByShard comes from GET /v1/cluster/owners against
// each current shard, so owners already moved by an earlier (aborted or
// crashed) rebalance are planned from where they actually are — re-
// planning after an abort naturally covers only the remainder. Every
// source shard must be a member of the target ring (drain via
// Target.Draining, never by dropping a shard outright).
func BuildPlan(req core.RebalanceRequest, ownersByShard map[string][]core.UserID) (*Plan, error) {
	targetRing, err := cluster.NewState(req.Target)
	if err != nil {
		return nil, fmt.Errorf("rebalance: bad target ring: %w", err)
	}
	p := &Plan{
		ID:          fmt.Sprintf("ring-v%d", req.Target.Version),
		Target:      targetRing.State(),
		BatchSize:   req.BatchSize,
		MovesPerSec: req.MovesPerSec,
		State:       core.RebalanceRunning,
	}
	if p.BatchSize <= 0 {
		p.BatchSize = DefaultBatchSize
	}
	if len(req.Target.Draining) > 0 {
		final := core.RingState{Version: req.Target.Version + 1, Vnodes: req.Target.Vnodes}
		for _, s := range req.Target.Shards {
			if !targetRing.IsDraining(s.Name) {
				final.Shards = append(final.Shards, s)
			}
		}
		p.Final = &final
	}
	// Deterministic move order: by source shard, then owner.
	shards := make([]string, 0, len(ownersByShard))
	for shard := range ownersByShard {
		shards = append(shards, shard)
	}
	sort.Strings(shards)
	for _, shard := range shards {
		if _, ok := targetRing.Shard(shard); !ok {
			return nil, fmt.Errorf("rebalance: source shard %q is missing from the target ring; drain it via target.draining instead of dropping it", shard)
		}
		owners := append([]core.UserID(nil), ownersByShard[shard]...)
		sort.Slice(owners, func(i, j int) bool { return owners[i] < owners[j] })
		for _, owner := range owners {
			to := targetRing.Owner(owner).Name
			if to == shard {
				continue
			}
			p.Moves = append(p.Moves, core.RebalanceMove{
				Owner: owner, From: shard, To: to, Phase: core.MovePending,
			})
		}
	}
	return p, nil
}

// Start begins executing a new plan (built by BuildPlan) in a background
// goroutine. An unfinished checkpointed plan must be resumed (same target
// version) or aborted first; Start answers conflict otherwise.
func (c *Coordinator) Start(p *Plan) (core.RebalanceStatus, error) {
	c.mu.Lock()
	if c.running {
		st := c.status
		c.mu.Unlock()
		return st, core.APIErrorf(core.CodeConflict, "rebalance: plan %s is already running", st.ID)
	}
	c.mu.Unlock()
	if prev, ok := c.loadPlan(); ok && prev.State == core.RebalanceRunning && prev.ID != p.ID {
		return c.statusOf(prev), core.APIErrorf(core.CodeConflict,
			"rebalance: unfinished plan %s is checkpointed; resume or abort it first", prev.ID)
	}
	if err := c.savePlan(p); err != nil {
		return core.RebalanceStatus{}, err
	}
	return c.launch(p)
}

// Resume continues a checkpointed unfinished plan (state running — a
// crashed coordinator — or failed). It reports false when there is
// nothing to resume.
func (c *Coordinator) Resume() (core.RebalanceStatus, bool, error) {
	c.mu.Lock()
	if c.running {
		st := c.status
		c.mu.Unlock()
		return st, true, nil
	}
	c.mu.Unlock()
	p, ok := c.loadPlan()
	if !ok || (p.State != core.RebalanceRunning && p.State != core.RebalanceFailed) {
		return c.Status(), false, nil
	}
	p.State = core.RebalanceRunning
	p.Error = ""
	if err := c.savePlan(p); err != nil {
		return core.RebalanceStatus{}, false, err
	}
	st, err := c.launch(p)
	return st, true, err
}

// launch flips the coordinator into running state and starts the run
// loop.
func (c *Coordinator) launch(p *Plan) (core.RebalanceStatus, error) {
	st := c.statusOf(p)
	c.mu.Lock()
	if c.running {
		cur := c.status
		c.mu.Unlock()
		return cur, core.APIErrorf(core.CodeConflict, "rebalance: plan %s is already running", cur.ID)
	}
	if c.stopped() {
		c.mu.Unlock()
		return st, core.APIErrorf(core.CodeUnavailable, "rebalance: coordinator stopped")
	}
	c.running = true
	c.abort = false
	c.status = st
	idle := make(chan struct{})
	c.idle = idle
	c.mu.Unlock()
	go func() {
		defer func() {
			c.mu.Lock()
			c.running = false
			c.mu.Unlock()
			close(idle)
		}()
		c.run(p)
	}()
	return st, nil
}

// aborting reports whether an abort was requested.
func (c *Coordinator) aborting() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.abort
}

// retry runs fn with capped exponential backoff — the budget covers a
// shard primary's kill-and-restart window — giving up early on an abort
// request, and before any attempt once the coordinator is stopped.
func (c *Coordinator) retry(desc string, fn func() error) error {
	backoff := retryBaseBackoff
	for attempt := 0; ; attempt++ {
		if c.stopped() {
			return fmt.Errorf("%w before %s", errCrashed, desc)
		}
		err := fn()
		if err == nil {
			return nil
		}
		if attempt >= c.cfg.MaxRetries || c.aborting() {
			return fmt.Errorf("rebalance: %s: %w", desc, err)
		}
		c.cfg.Logf("rebalance: %s failed (attempt %d/%d), retrying: %v", desc, attempt+1, c.cfg.MaxRetries, err)
		c.pause(backoff)
		if backoff *= 2; backoff > retryMaxBackoff {
			backoff = retryMaxBackoff
		}
	}
}

// errCrashed marks a crash-style stop (Stop, or an error from the
// BeforeMove seam): the run loop exits with the plan still checkpointed
// as running, exactly like a process kill.
var errCrashed = errors.New("rebalance: stopped")

// run executes the plan to completion, abort, or failure. Every state
// transition is checkpointed before it is acted on.
func (c *Coordinator) run(p *Plan) {
	st := c.statusOf(p)
	c.setStatus(st)
	c.notify(core.SignalRebalanceStarted, "", st)
	c.cfg.Logf("rebalance: plan %s: %d moves toward ring v%d (%d already done)",
		p.ID, len(p.Moves), p.Target.Version, st.Done)
	err := c.execute(p, &st)
	switch {
	case err == nil && c.aborting():
		p.State = core.RebalanceAborted
		c.savePlan(p)
		st.State = p.State
		c.setStatus(st)
		c.notify(core.SignalRebalanceAborted, "", st)
		c.cfg.Logf("rebalance: plan %s aborted with %d/%d moves done", p.ID, st.Done, st.Total)
	case err == nil:
		p.State = core.RebalanceDone
		c.savePlan(p)
		st.State = p.State
		c.setStatus(st)
		c.notify(core.SignalRebalanceDone, "", st)
		c.cfg.Logf("rebalance: plan %s done (%d moves)", p.ID, st.Total)
	case errors.Is(err, errCrashed):
		// Leave the plan checkpointed as running; a restart resumes it.
		c.cfg.Logf("rebalance: plan %s stopped with %d/%d moves done: %v", p.ID, st.Done, st.Total, err)
	default:
		p.State = core.RebalanceFailed
		p.Error = err.Error()
		c.savePlan(p)
		st.State, st.Error = p.State, p.Error
		c.setStatus(st)
		c.notify(core.SignalRebalanceFailed, "", st)
		c.cfg.Logf("rebalance: plan %s failed: %v", p.ID, err)
	}
}

// execute performs the pin → ring → migrate → final-ring sequence. A nil
// return with the abort flag set means a clean stop at a move boundary.
func (c *Coordinator) execute(p *Plan, st *core.RebalanceStatus) error {
	hc := c.cfg.HTTPClient
	clients := make(map[string]*amclient.Client)
	cl := func(shard string) (*amclient.Client, error) {
		if cc, ok := clients[shard]; ok {
			return cc, nil
		}
		cc, err := clientFor(p, shard, c.cfg.Secret, hc)
		if err == nil {
			clients[shard] = cc
		}
		return cc, err
	}

	// Phase 1: pin. Every not-yet-copied owner is pinned to its source on
	// BOTH sides before the ring moves, so the topology flip redirects no
	// live traffic. Owners already copied (resume) keep their pins; owners
	// already done need none.
	pinned := 0
	for _, m := range p.Moves {
		if c.aborting() {
			return nil
		}
		if c.loadMove(p.ID, m.Owner).Phase != core.MovePending {
			continue
		}
		for _, shard := range []string{m.To, m.From} {
			cc, err := cl(shard)
			if err != nil {
				return err
			}
			if err := c.retry(fmt.Sprintf("pin %s on %s", m.Owner, shard), func() error {
				return cc.SetOwnerShard(m.Owner, m.From)
			}); err != nil {
				return err
			}
		}
		pinned++
	}
	c.cfg.Logf("rebalance: pinned %d owners to their source shards", pinned)

	// Phase 2: push the target ring to every member primary (idempotent
	// by version; a node already at the version answers OK).
	for _, s := range p.Target.Shards {
		if c.aborting() {
			return nil
		}
		cc, err := cl(s.Name)
		if err != nil {
			return err
		}
		if err := c.retry(fmt.Sprintf("push ring v%d to %s", p.Target.Version, s.Name), func() error {
			_, err := cc.UpdateRing(p.Target)
			return err
		}); err != nil {
			return err
		}
	}
	c.cfg.Logf("rebalance: ring v%d in force on %d shards", p.Target.Version, len(p.Target.Shards))

	// Phase 3: migrate, batched and rate-limited. The move in flight
	// always completes before an abort takes effect.
	var interval time.Duration
	if p.MovesPerSec > 0 {
		interval = time.Duration(float64(time.Second) / p.MovesPerSec)
	}
	var lastStart time.Time
	sinceCheckpoint := 0
	for _, m := range p.Moves {
		if c.aborting() {
			return nil
		}
		ms := c.loadMove(p.ID, m.Owner)
		if ms.Phase == core.MoveDone {
			continue
		}
		if c.cfg.BeforeMove != nil {
			if err := c.cfg.BeforeMove(m); err != nil {
				return fmt.Errorf("%w: %v", errCrashed, err)
			}
		}
		if interval > 0 && !lastStart.IsZero() {
			if wait := interval - time.Since(lastStart); wait > 0 && !c.pause(wait) {
				return errCrashed
			}
		}
		lastStart = time.Now()
		st.Moving = m.Owner
		c.setStatus(*st)
		if err := c.moveOwner(p, m, ms, cl); err != nil {
			st.Moving = ""
			c.setStatus(*st)
			return err
		}
		st.Done++
		st.Remaining = st.Total - st.Done
		st.Moving = ""
		c.setStatus(*st)
		c.notify(core.SignalRebalanceMove, m.Owner, *st)
		if sinceCheckpoint++; sinceCheckpoint >= p.BatchSize {
			sinceCheckpoint = 0
			// Plan-level checkpoint: purely informational (the per-move
			// records are authoritative), but it bounds how much status
			// derivation a restart re-reads.
			if err := c.savePlan(p); err != nil {
				return err
			}
			c.cfg.Logf("rebalance: %d/%d moves done", st.Done, st.Total)
		}
	}

	// Phase 4: a drain ends by removing the drained shards from the ring
	// entirely — pushed to every member, the drained nodes included, so
	// they disclaim everything from here on.
	if p.Final != nil {
		for _, s := range p.Target.Shards {
			cc, err := cl(s.Name)
			if err != nil {
				return err
			}
			if err := c.retry(fmt.Sprintf("push final ring v%d to %s", p.Final.Version, s.Name), func() error {
				_, err := cc.UpdateRing(*p.Final)
				return err
			}); err != nil {
				return err
			}
		}
		c.cfg.Logf("rebalance: final ring v%d in force (drained shards removed)", p.Final.Version)
	}
	return nil
}

// moveOwner executes (or resumes) one owner's migration through its
// checkpointed phases.
func (c *Coordinator) moveOwner(p *Plan, m core.RebalanceMove, ms moveState, cl func(string) (*amclient.Client, error)) error {
	src, err := cl(m.From)
	if err != nil {
		return err
	}
	dst, err := cl(m.To)
	if err != nil {
		return err
	}
	if ms.Phase == core.MovePending {
		// Copy leg: safe to re-run wholesale after a crash — ownership has
		// not moved, the fresh snapshot supersedes any partial import.
		if err := c.retry(fmt.Sprintf("copy %s to %s", m.Owner, m.To), func() error {
			_, offset, err := amclient.MigrateCopy(src, dst, m.Owner, m.To, nil)
			if err == nil {
				ms.Offset = offset
			}
			return err
		}); err != nil {
			return err
		}
		// Checkpoint BEFORE the cutover: a crash past this point must
		// resume by re-flipping and draining from Offset, never by
		// re-copying a stale snapshot over post-cutover writes.
		ms.Phase = core.MoveCopied
		if err := c.saveMove(p.ID, m.Owner, ms); err != nil {
			return err
		}
	}
	// Cutover + drain (both idempotent from the checkpointed offset).
	if err := c.retry(fmt.Sprintf("cutover %s to %s", m.Owner, m.To), func() error {
		return amclient.MigrateCutover(src, dst, m.Owner, m.To, nil)
	}); err != nil {
		return err
	}
	if err := c.retry(fmt.Sprintf("drain %s from offset %d", m.Owner, ms.Offset), func() error {
		_, err := amclient.MigrateDrain(src, dst, m.Owner, ms.Offset, nil)
		return err
	}); err != nil {
		return err
	}
	// The ring now maps the owner to its new shard; the pins are
	// redundant, so clear them (idempotent deletes).
	for shard, cc := range map[string]*amclient.Client{m.From: src, m.To: dst} {
		if err := c.retry(fmt.Sprintf("clear pin for %s on %s", m.Owner, shard), func() error {
			return cc.ClearOwnerShard(m.Owner)
		}); err != nil {
			return err
		}
	}
	ms.Phase = core.MoveDone
	return c.saveMove(p.ID, m.Owner, ms)
}
