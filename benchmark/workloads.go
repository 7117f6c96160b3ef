package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"umac/internal/amclient"
	"umac/internal/core"
	"umac/internal/pep"
	"umac/internal/policy"
)

// env is what a workload runs against: a reachable AM (spawned or, in the
// traced replay, in-process), the seeded fixture and the load clients.
type env struct {
	fx      *fixture
	clients []*client
	sz      sizing
	// tr records spans around the SDK calls in the traced replay; nil
	// (tracing off) everywhere else.
	tr *tracer
}

// opResult is one operation as the generator saw it.
type opResult struct {
	// lat is the time the caller was blocked in the SDK call.
	lat time.Duration
	// units is how many verdicts or acknowledged writes the op produced.
	units int
	ok    bool
	// remote is set when the call needed the AM (it was not answered by
	// the PEP's cache).
	remote bool
}

// measurement is everything one timed window yields.
type measurement struct {
	// lat holds the gated operation's samples: Check round-trips, page
	// batches, PAP writes, or host_mix's policy updates from their due
	// time.
	lat []sample
	// units counts the closed-loop stream's successful work: verdicts,
	// batch items, writes, or all of host_mix's Check calls; sliceUnits is
	// the same per slice of the window.
	units      int64
	sliceUnits []int64
	// serverOps counts successful AM-resolved verdicts or writes, the
	// divisor of server CPU per op.
	serverOps         int64
	attempted, failed int64
	// late is how long after an op was due the generator sent it. In a
	// closed loop an op is due when the previous one completes, so this
	// is the generator's own overhead between calls.
	late []time.Duration
	// miss, token and revoke are filled by workloads that have such ops
	// inside the window (host_mix); the traced run's probe drill fills
	// them for the others.
	miss   []sample
	token  []time.Duration
	revoke []time.Duration
	// writeDone is when each acknowledged store write of the window
	// completed, for dividing WAL growth by writes.
	writeDone []time.Duration
	// hits and misses are the PEP cache's counters over the window.
	cacheHits, cacheMisses, cacheEvictions int64
}

// workload is one traffic mix. prepare and warmup are part of set-up; run
// is the timed window; replay is the traced run's fixed-count, one-client
// pass over the same ops; verify re-reads acknowledged state after the
// SIGKILL + restart drill.
type workload interface {
	prepare(ctx context.Context, e *env) error
	warmup(ctx context.Context, e *env) error
	run(ctx context.Context, e *env, window time.Duration) *measurement
	replay(ctx context.Context, e *env, ops int) []opResult
	verify(e *env) (checked, lost int)
}

// closedLoop runs op on every client back to back until the window ends.
func closedLoop(ctx context.Context, e *env, window time.Duration, op func(ci int) opResult) *measurement {
	m := &measurement{sliceUnits: make([]int64, e.sz.slices)}
	type log struct {
		lat        []sample
		late       []time.Duration
		sliceUnits []int64
	}
	logs := make([]log, len(e.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for ci := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := &logs[ci]
			l.sliceUnits = make([]int64, e.sz.slices)
			prev := start
			for ctx.Err() == nil {
				r := op(ci)
				now := time.Now()
				l.lat = append(l.lat, sample{done: now.Sub(start), lat: r.lat, ok: r.ok})
				l.late = append(l.late, now.Sub(prev)-r.lat)
				if r.ok {
					l.sliceUnits[sliceOf(now.Sub(start), window, e.sz.slices)] += int64(r.units)
				}
				prev = now
				if now.Sub(start) >= window {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, l := range logs {
		m.lat = append(m.lat, l.lat...)
		m.late = append(m.late, l.late...)
		for i, u := range l.sliceUnits {
			m.sliceUnits[i] += u
			m.units += u
		}
	}
	m.serverOps = m.units
	m.attempted = int64(len(m.lat))
	for _, s := range m.lat {
		if !s.ok {
			m.failed++
		}
	}
	return m
}

// spread runs n ops of op over the clients concurrently (warm-up).
func spread(ctx context.Context, e *env, n int, op func(ci int) opResult) error {
	errs := make([]error, len(e.clients))
	var wg sync.WaitGroup
	for ci := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := ci; i < n && ctx.Err() == nil; i += len(e.clients) {
				if r := op(ci); !r.ok {
					errs[ci] = fmt.Errorf("warm-up op %d failed", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(append(errs, ctx.Err())...)
}

// sequential runs n ops on client 0 (the traced replay).
func sequential(ctx context.Context, n int, op func(ci int) opResult) []opResult {
	out := make([]opResult, 0, n)
	for i := 0; i < n && ctx.Err() == nil; i++ {
		out = append(out, op(0))
	}
	return out
}

// --- decide_miss and page_batch ---

// decideLoad asks for decisions on resources no client has asked about
// before, items per call: 1 is decide_miss (Enforcer.Check), 16 is
// page_batch (Enforcer.CheckBatch).
type decideLoad struct {
	items int
	seq   []int64 // per client: resources handed out so far
}

func (w *decideLoad) prepare(_ context.Context, e *env) error {
	w.seq = make([]int64, len(e.clients))
	// A Host that has been up for a while has a full decision cache, so
	// every decision it stores evicts an older one. Fill the cache here (a
	// run is too short to fill it through the AM), with twice its capacity
	// so that every one of its shards is full.
	for _, c := range e.clients {
		for i := 0; i < 2*pep.DefaultCacheCapacity; i++ {
			c.pep.Cache().Put("prefill-"+strconv.Itoa(i), true, 3600)
		}
	}
	return nil
}

// next draws one never-repeating resource with its action and the verdict
// the fixture's policy must give: 1 in 10 asks write, which no rule covers.
func (w *decideLoad) next(c *client, ci int) (pep.ResourceAction, pep.Verdict) {
	w.seq[ci]++
	ra := pep.ResourceAction{
		Resource: core.ResourceID("r" + strconv.Itoa(ci) + "-" + strconv.FormatInt(w.seq[ci], 10)),
		Action:   core.ActionRead,
	}
	if c.rng.Intn(10) == 0 {
		ra.Action = core.ActionWrite
		return ra, pep.VerdictDeny
	}
	return ra, pep.VerdictAllow
}

func (w *decideLoad) op(e *env, ci int) opResult {
	c := e.clients[ci]
	o := &e.fx.owners[c.rng.Intn(len(e.fx.owners))]
	if w.items == 1 {
		ra, want := w.next(c, ci)
		sp := e.tr.begin(spanCheck)
		t0 := time.Now()
		r, err := c.pep.Check(o.req, o.id, o.realm, ra.Resource, ra.Action)
		lat := time.Since(t0)
		sp.end()
		return opResult{lat: lat, units: 1, remote: true, ok: err == nil && r.Verdict == want && !r.CacheHit}
	}
	pairs := make([]pep.ResourceAction, w.items)
	want := make([]pep.Verdict, w.items)
	for i := range pairs {
		pairs[i], want[i] = w.next(c, ci)
	}
	sp := e.tr.begin(spanCheckBatch)
	t0 := time.Now()
	rs, err := c.pep.CheckBatch(o.req, o.id, o.realm, pairs)
	lat := time.Since(t0)
	sp.end()
	ok := err == nil && len(rs) == w.items
	for i := 0; ok && i < len(rs); i++ {
		ok = rs[i].Verdict == want[i] && !rs[i].CacheHit
	}
	return opResult{lat: lat, units: w.items, remote: true, ok: ok}
}

func (w *decideLoad) warmup(ctx context.Context, e *env) error {
	return spread(ctx, e, e.sz.warmupOps, func(ci int) opResult { return w.op(e, ci) })
}

func (w *decideLoad) run(ctx context.Context, e *env, window time.Duration) *measurement {
	before := cacheCounters(e.clients)
	m := closedLoop(ctx, e, window, func(ci int) opResult { return w.op(e, ci) })
	m.addCacheDelta(before, cacheCounters(e.clients))
	// Every op here needed the AM, so the gated samples are the misses.
	m.miss = m.lat
	return m
}

func (w *decideLoad) replay(ctx context.Context, e *env, ops int) []opResult {
	return sequential(ctx, ops, func(ci int) opResult { return w.op(e, ci) })
}

func (w *decideLoad) verify(*env) (int, int) { return 0, 0 }

type cacheCount struct{ hits, misses, evictions int64 }

func cacheCounters(clients []*client) cacheCount {
	var t cacheCount
	for _, c := range clients {
		h, m := c.pep.Cache().Stats()
		t.hits += h
		t.misses += m
		t.evictions += c.pep.Cache().Evictions()
	}
	return t
}

func (m *measurement) addCacheDelta(before, after cacheCount) {
	m.cacheHits = after.hits - before.hits
	m.cacheMisses = after.misses - before.misses
	m.cacheEvictions = after.evictions - before.evictions
}

// --- policy_write ---

// livePolicy is an acknowledged policy and the version the last
// acknowledged write gave it; the policy's Name carries the version so a
// readback can tell a lost update from a kept one.
type livePolicy struct {
	owner   int
	id      core.PolicyID
	version int
}

// writeLoad is the owners' side: a seeded mix of PAP writes, each owner
// written by one client only so a client knows what its owners must hold.
type writeLoad struct {
	sessions [][]*amclient.Client // per client, per owner
	live     [][]livePolicy       // per client
	deleted  [][]livePolicy       // per client
}

func (w *writeLoad) prepare(_ context.Context, e *env) error {
	w.sessions = make([][]*amclient.Client, len(e.clients))
	w.live = make([][]livePolicy, len(e.clients))
	w.deleted = make([][]livePolicy, len(e.clients))
	for ci, c := range e.clients {
		w.sessions[ci] = make([]*amclient.Client, len(e.fx.owners))
		for oi, o := range e.fx.owners {
			w.sessions[ci][oi] = session(e.fx.amURL, c.http, o.id)
		}
	}
	return nil
}

func writeRules(version int) []policy.Rule {
	rules := make([]policy.Rule, 4)
	for i := range rules {
		rules[i] = policy.Rule{
			Effect:   policy.EffectPermit,
			Subjects: []policy.Subject{{Type: policy.SubjectUser, Name: fmt.Sprintf("guest-%d-%d", version, i)}},
			Actions:  []core.Action{core.ActionRead},
		}
	}
	return rules
}

func versionName(v int) string { return "v" + strconv.Itoa(v) }

func (w *writeLoad) op(e *env, ci int) opResult {
	c := e.clients[ci]
	// Client ci owns the owners whose index is ci modulo the client count.
	mine := (len(e.fx.owners) - ci + len(e.clients) - 1) / len(e.clients)
	oi := ci + len(e.clients)*c.rng.Intn(mine)
	kind := c.rng.Intn(10)
	live := w.live[ci]
	if kind >= 5 && kind != 8 && len(live) == 0 {
		kind = 0 // nothing to update or delete yet
	}
	var err error
	sp := e.tr.begin(spanWrite)
	t0 := time.Now()
	switch {
	case kind < 5: // 50% create
		var p policy.Policy
		p, err = w.sessions[ci][oi].CreatePolicy(policy.Policy{
			Owner: e.fx.owners[oi].id, Name: versionName(0), Kind: policy.KindGeneral, Rules: writeRules(0),
		})
		if err == nil {
			w.live[ci] = append(live, livePolicy{owner: oi, id: p.ID})
		}
	case kind < 8: // 30% update
		lp := &live[c.rng.Intn(len(live))]
		err = w.sessions[ci][lp.owner].UpdatePolicy(policy.Policy{
			ID: lp.id, Name: versionName(lp.version + 1), Kind: policy.KindGeneral, Rules: writeRules(lp.version + 1),
		})
		if err == nil {
			lp.version++
		}
	case kind == 8: // 10% re-link the realm's general policy
		o := &e.fx.owners[oi]
		err = w.sessions[ci][oi].LinkGeneral(o.id, o.realm, o.policy.ID)
	default: // 10% delete
		i := c.rng.Intn(len(live))
		lp := live[i]
		err = w.sessions[ci][lp.owner].DeletePolicy(lp.id)
		if err == nil {
			live[i] = live[len(live)-1]
			w.live[ci] = live[:len(live)-1]
			w.deleted[ci] = append(w.deleted[ci], lp)
		}
	}
	lat := time.Since(t0)
	sp.end()
	return opResult{lat: lat, units: 1, remote: true, ok: err == nil}
}

func (w *writeLoad) warmup(ctx context.Context, e *env) error {
	return spread(ctx, e, e.sz.warmupOps, func(ci int) opResult { return w.op(e, ci) })
}

func (w *writeLoad) run(ctx context.Context, e *env, window time.Duration) *measurement {
	m := closedLoop(ctx, e, window, func(ci int) opResult { return w.op(e, ci) })
	for _, s := range m.lat {
		if s.ok {
			m.writeDone = append(m.writeDone, s.done)
		}
	}
	return m
}

func (w *writeLoad) replay(ctx context.Context, e *env, ops int) []opResult {
	return sequential(ctx, ops, func(ci int) opResult { return w.op(e, ci) })
}

// verify reads back every policy an acknowledged write left behind and
// checks that every acknowledged delete stuck. It runs after the server
// was SIGKILLed and restarted on the same state file.
func (w *writeLoad) verify(e *env) (checked, lost int) {
	for ci := range e.clients {
		for _, lp := range w.live[ci] {
			checked++
			p, err := w.sessions[ci][lp.owner].GetPolicy(lp.id)
			if err != nil || p.Name != versionName(lp.version) || len(p.Rules) != 4 {
				lost++
			}
		}
		for _, lp := range w.deleted[ci] {
			checked++
			_, err := w.sessions[ci][lp.owner].GetPolicy(lp.id)
			var ae *core.APIError
			if !errors.As(err, &ae) || ae.Code != core.CodeNotFound {
				lost++
			}
		}
	}
	return checked, lost
}

// --- host_mix ---

// host_mix's two open-loop schedules. Goroutine B sends 100 owner and
// requester ops per second, one every 10 ms, each due whether or not the
// previous one has finished. Goroutine C revokes once a second; it is its
// own stream because a revoke cycle takes several round-trips, and on B's
// schedule it would make B's next ops late.
const (
	mixInterval    = 10 * time.Millisecond
	revokeInterval = time.Second
)

// mixLoad runs a Host's cached reads beside owners' writes on the same
// owners. Client 0 is the Host (goroutine A), client 1 carries the owners'
// and the requester's sessions (goroutines B and C).
type mixLoad struct {
	pairOwner []int             // pair -> owner index
	pairRes   []core.ResourceID // pair -> resource
	rank      []int             // Zipf rank -> pair
	zipf      *rand.Zipf
	// bOwners is the order in which B visits the owners. A fixed cycle, not
	// a draw per op, so that every run sends the same share of its updates
	// to owners the Host holds an invalidation stream for.
	bOwners []int
	bOps    int // B ops issued so far, across warm-up and window
}

const probeResource core.ResourceID = "probe"

func (w *mixLoad) prepare(ctx context.Context, e *env) error {
	n := e.sz.zipfPairs
	w.pairOwner = make([]int, n)
	w.pairRes = make([]core.ResourceID, n)
	for i := range w.pairOwner {
		w.pairOwner[i] = i % len(e.fx.owners)
		w.pairRes[i] = core.ResourceID("z" + strconv.Itoa(i))
	}
	a := e.clients[0]
	w.rank = a.rng.Perm(n)
	w.zipf = rand.NewZipf(a.rng, 1.1, 1, uint64(n-1))
	w.bOwners = e.clients[1].rng.Perm(len(e.fx.owners))
	subs := append([]owner{e.fx.probe}, e.fx.owners[:min(8, len(e.fx.owners))]...)
	return subscribe(ctx, e.fx, a, subs)
}

// check is one of goroutine A's reads.
func (w *mixLoad) check(e *env) (r pep.CheckResult, lat time.Duration, ok bool) {
	a := e.clients[0]
	pair := w.rank[w.zipf.Uint64()]
	o := &e.fx.owners[w.pairOwner[pair]]
	sp := e.tr.begin(spanCheck)
	t0 := time.Now()
	r, err := a.pep.Check(o.req, o.id, o.realm, w.pairRes[pair], core.ActionRead)
	lat = time.Since(t0)
	sp.end()
	return r, lat, err == nil && r.Verdict == pep.VerdictAllow
}

// probeUntil polls Check on the probe resource through the Host's PEP
// until it gives want, and reports how long that took.
func probeUntil(e *env, want pep.Verdict) (time.Duration, *pep.CheckResult, bool) {
	p := &e.fx.probe
	t0 := time.Now()
	for time.Since(t0) < 5*time.Second {
		r, err := e.clients[0].pep.Check(p.req, p.id, p.realm, probeResource, core.ActionRead)
		if err != nil {
			return 0, nil, false
		}
		if r.Verdict == want {
			return time.Since(t0), &r, true
		}
		// Poll, do not spin: a second busy goroutine beside A would keep
		// both of the generator's processors from B for whole scheduler
		// quanta, and B's tail would measure that.
		time.Sleep(200 * time.Microsecond)
	}
	return 0, nil, false
}

// mixOp is one of goroutine B's ops, timed by the caller from its due time.
type mixOp struct {
	token bool // a token request, not a policy update
	lat   time.Duration
	ok    bool
}

// bOp issues B's next op; updates and token requests alternate.
func (w *mixLoad) bOp(e *env) mixOp {
	b := e.clients[1]
	i := w.bOps
	w.bOps++
	o := &e.fx.owners[w.bOwners[(i/2)%len(w.bOwners)]]
	if i%2 == 1 {
		sp := e.tr.begin(spanToken)
		t0 := time.Now()
		tok, err := session(e.fx.amURL, b.http, o.id).RequestToken(tokenRequest(*o))
		lat := time.Since(t0)
		sp.end()
		return mixOp{token: true, lat: lat, ok: err == nil && tok.Token != ""}
	}
	p := o.policy
	p.Name = "general-" + strconv.Itoa(i)
	sp := e.tr.begin(spanWrite)
	t0 := time.Now()
	err := session(e.fx.amURL, b.http, o.id).UpdatePolicy(p)
	lat := time.Since(t0)
	sp.end()
	return mixOp{lat: lat, ok: err == nil}
}

// revocation is one revoke cycle on the probe owner.
type revocation struct {
	// visible is the delay from the revoke's acknowledgement to the Host's
	// Check denying; remiss is the latency of the Check that fetched the
	// permit again after the restore.
	visible, remiss time.Duration
	ok              bool
}

// revokeRequests is how many AM requests one revoke cycle makes: revoke,
// the Check that sees the deny, restore, the Check that sees the permit.
const revokeRequests = 4

// revokeCycle revokes alice on the probe owner, waits until the Host's
// cached permit flips to deny, restores the rule and re-fetches the permit.
func revokeCycle(e *env) (r revocation) {
	probe := &e.fx.probe
	mgr := session(e.fx.amURL, e.clients[1].http, probe.id)
	revoked := probe.policy
	revoked.Rules = revokedRules()
	if mgr.UpdatePolicy(revoked) != nil {
		return r
	}
	var denied bool
	if r.visible, _, denied = probeUntil(e, pep.VerdictDeny); !denied {
		return r
	}
	if mgr.UpdatePolicy(probe.policy) != nil {
		return r
	}
	var last *pep.CheckResult
	r.remiss, last, r.ok = probeUntil(e, pep.VerdictAllow)
	r.ok = r.ok && !last.CacheHit
	return r
}

// drill takes, on the quiet server after the window, the op kinds the
// window did not contain, so every traced run reports a token issue, a
// revocation delay and a Check miss: 20 token requests and 5 revoke cycles.
func drill(ctx context.Context, e *env, m *measurement) error {
	if len(m.token) == 0 {
		for i := 0; i < 20 && ctx.Err() == nil; i++ {
			o := e.fx.owners[i%len(e.fx.owners)]
			t0 := time.Now()
			tok, err := session(e.fx.amURL, e.clients[1].http, o.id).RequestToken(tokenRequest(o))
			if err != nil || tok.Token == "" {
				return fmt.Errorf("drill: token request: %v", err)
			}
			m.token = append(m.token, time.Since(t0))
		}
	}
	if len(m.revoke) > 0 {
		return nil
	}
	if err := subscribe(ctx, e.fx, e.clients[0], []owner{e.fx.probe}); err != nil {
		return err
	}
	if _, _, ok := probeUntil(e, pep.VerdictAllow); !ok {
		return fmt.Errorf("drill: probe resource not permitted")
	}
	wantMiss := len(m.miss) == 0
	for i := 0; i < 5 && ctx.Err() == nil; i++ {
		r := revokeCycle(e)
		if !r.ok {
			return fmt.Errorf("drill: revoke cycle %d failed", i)
		}
		m.revoke = append(m.revoke, r.visible)
		if wantMiss {
			m.miss = append(m.miss, sample{lat: r.remiss, ok: true})
		}
	}
	return ctx.Err()
}

func (w *mixLoad) warmup(ctx context.Context, e *env) error {
	// Touch every pair once so the window starts with the working set
	// cached, then a second's worth of B's ops and one revocation.
	if _, _, ok := probeUntil(e, pep.VerdictAllow); !ok {
		return fmt.Errorf("probe resource not permitted")
	}
	a := e.clients[0]
	for pair := range w.pairRes {
		o := &e.fx.owners[w.pairOwner[pair]]
		r, err := a.pep.Check(o.req, o.id, o.realm, w.pairRes[pair], core.ActionRead)
		if err != nil || r.Verdict != pep.VerdictAllow {
			return fmt.Errorf("warm-up check of pair %d: verdict %v, error %v", pair, r.Verdict, err)
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	for i := 0; i < int(time.Second/mixInterval); i++ {
		if op := w.bOp(e); !op.ok {
			return fmt.Errorf("warm-up op %d of the write schedule failed", i)
		}
	}
	if !revokeCycle(e).ok {
		return fmt.Errorf("warm-up revocation failed")
	}
	return nil
}

func (w *mixLoad) run(ctx context.Context, e *env, window time.Duration) *measurement {
	m := &measurement{sliceUnits: make([]int64, e.sz.slices)}
	before := cacheCounters(e.clients[:1])
	var aChecks, aFailed int64
	var aMiss []sample
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(1)
	go func() { // A: the Host's reads, closed loop
		defer wg.Done()
		for ctx.Err() == nil {
			r, lat, ok := w.check(e)
			done := time.Since(start)
			aChecks++
			if ok {
				m.sliceUnits[sliceOf(done, window, e.sz.slices)]++
			} else {
				aFailed++
			}
			if !ok || !r.CacheHit {
				aMiss = append(aMiss, sample{done: done, lat: lat, ok: ok})
			}
			if done >= window {
				return
			}
		}
	}()
	var revokes []revocation
	wg.Add(1)
	go func() { // C: one revocation a second, starting half a second in
		defer wg.Done()
		for due := start.Add(revokeInterval / 2); due.Sub(start) < window && ctx.Err() == nil; due = due.Add(revokeInterval) {
			time.Sleep(time.Until(due))
			revokes = append(revokes, revokeCycle(e))
		}
	}()
	for i := 0; ctx.Err() == nil; i++ { // B: owners and requester, open loop
		due := start.Add(time.Duration(i) * mixInterval)
		if due.Sub(start) >= window {
			break
		}
		time.Sleep(time.Until(due))
		late := max(time.Since(due), 0)
		op := w.bOp(e)
		done := time.Since(start)
		m.late = append(m.late, late)
		// The caller has been waiting since the op was due, not since the
		// generator got round to sending it.
		if op.token {
			m.token = append(m.token, late+op.lat)
		} else {
			m.lat = append(m.lat, sample{done: done, lat: late + op.lat, ok: op.ok})
		}
		m.attempted++
		if !op.ok {
			m.failed++
		}
		m.writeDone = append(m.writeDone, done)
	}
	wg.Wait()
	for _, r := range revokes {
		m.revoke = append(m.revoke, r.visible)
		m.miss = append(m.miss, sample{lat: r.remiss, ok: r.ok})
		m.attempted++
		if !r.ok {
			m.failed++
		}
	}
	m.miss = append(m.miss, aMiss...)
	m.units = aChecks - aFailed
	m.attempted += aChecks
	m.failed += aFailed
	m.serverOps = int64(len(aMiss)+len(m.lat)+len(m.token)) + revokeRequests*int64(len(revokes))
	m.addCacheDelta(before, cacheCounters(e.clients[:1]))
	return m
}

// replay interleaves the two streams on one goroutine: four reads, then
// one of B's ops.
func (w *mixLoad) replay(ctx context.Context, e *env, ops int) []opResult {
	var out []opResult
	for i := 0; i < ops && ctx.Err() == nil; i++ {
		if i%5 < 4 {
			r, lat, ok := w.check(e)
			out = append(out, opResult{lat: lat, units: 1, ok: ok, remote: !r.CacheHit})
			continue
		}
		op := w.bOp(e)
		out = append(out, opResult{lat: op.lat, units: 1, ok: op.ok})
	}
	return out
}

func (w *mixLoad) verify(*env) (int, int) { return 0, 0 }
