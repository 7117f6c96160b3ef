// Package pep is the Host-side policy enforcement point: "a Host is only
// concerned with access control enforcement of decisions that are issued by
// AM. As such, a Host acts as a policy enforcement point (PEP)" (Section
// V.A.3).
//
// The Enforcer manages the Host's side of the protocol:
//
//   - pairing with a user's chosen AM (Fig. 3);
//   - registering protected realms (Fig. 4, Host leg);
//   - intercepting resource accesses, referring tokenless Requesters to the
//     AM (Fig. 5, Host leg), and querying decisions for token-bearing
//     requests (Fig. 6);
//   - caching decisions under the AM's user-controlled TTL so subsequent
//     accesses bypass the AM entirely (Section V.B.6).
//
// It is the "general library that could be easily reused by other
// cloud-based applications" the paper aims for in Section VII; the storage
// and gallery prototypes in internal/apps both embed it.
package pep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"umac/internal/amclient"
	"umac/internal/core"
	"umac/internal/store"
)

// Headers used on Host→Requester referral responses (the programmatic form
// of the Fig. 5 redirect).
const (
	HeaderAM       = "X-Umac-Am"
	HeaderHost     = "X-Umac-Host"
	HeaderRealm    = "X-Umac-Realm"
	HeaderResource = "X-Umac-Resource"
	HeaderAction   = "X-Umac-Action"
)

// TokenScheme is the Authorization scheme carrying authorization tokens.
const TokenScheme = "UMAC"

// Pairing is the Host's record of its trust relationship with an AM.
type Pairing struct {
	AMURL     string      `json:"am_url"`
	PairingID string      `json:"pairing_id"`
	Secret    string      `json:"secret"`
	User      core.UserID `json:"user"`
}

// Config configures an Enforcer.
type Config struct {
	// Host is this Host's protocol identity.
	Host core.HostID
	// Name is the human-readable application name shown on consent pages.
	Name string
	// BaseURL is the Host's externally reachable URL (for pairing
	// callbacks).
	BaseURL string
	// HTTPClient performs Host→AM calls; nil means http.DefaultClient.
	HTTPClient *http.Client
	// Cache is the decision cache; nil means a fresh cache.
	Cache *DecisionCache
	// Store, when non-nil, persists pairings: existing ones are loaded on
	// construction and changes are written through, so a Host restarted
	// against a durable (WAL-backed) store keeps its AM trust
	// relationships. nil keeps pairings in memory only.
	Store *store.Store
	// StreamRetry is how long an invalidation-stream goroutine pauses
	// after the stream fails persistently before trying again; 0 means
	// DefaultStreamRetry. See StartInvalidationStream.
	StreamRetry time.Duration
}

// Store kinds used by the enforcer for persisted pairing state.
const (
	kindPairing      = "pep_pairing"       // key: owner user ID
	kindRealmPairing = "pep_realm_pairing" // key: owner + NUL + realm
)

// realmPairingRecord is the persisted form of a realm-scoped pairing. Owner
// and realm travel as fields (not parsed back out of the key) so IDs may
// contain any separator character.
type realmPairingRecord struct {
	Owner   core.UserID  `json:"owner"`
	Realm   core.RealmID `json:"realm"`
	Pairing Pairing      `json:"pairing"`
}

// realmPairingKey builds the store key for (owner, realm). NUL cannot
// appear in IDs that arrive over HTTP query/path encoding, so the key is
// collision-free even for owners containing '/'.
func realmPairingKey(owner core.UserID, realm core.RealmID) string {
	return string(owner) + "\x00" + string(realm)
}

// Enforcer is a Host's policy enforcement point. Create with New.
type Enforcer struct {
	host    core.HostID
	name    string
	baseURL string
	client  *http.Client
	cache   *DecisionCache
	store   *store.Store // nil = memory-only pairings

	// streamCtx governs every subscription goroutine (see events.go):
	// Close cancels it, which severs parked stream reads and reconnect
	// backoff sleeps immediately — the same discipline as the AM's
	// follower-sync loop, so Close never waits out a timeout.
	streamCtx    context.Context
	streamCancel context.CancelFunc
	streamWG     sync.WaitGroup
	streamRetry  time.Duration

	// flights collapses concurrent decision queries for one cache key into
	// a single signed round-trip (see singleflight.go).
	flights flightGroup

	mu       sync.RWMutex
	pairings map[core.UserID]Pairing // per-owner default AM pairing
	// pending maps each one-time pairing state BeginPairing issued to the
	// user and AM it was issued for, until the callback consumes it.
	pending map[string]pendingPairing
	// realmPairings holds per-realm AM overrides: the Section V.D
	// extension where "a User may ... delegate access control for
	// different resources to different AMs as well".
	realmPairings map[realmKey]Pairing
}

// pendingPairing is a pairing BeginPairing opened and the pairing
// callback has not yet closed.
type pendingPairing struct {
	amURL   string
	user    core.UserID
	expires time.Time
}

// pairingStateTTL bounds how long a pairing may wait for its callback;
// expired states are refused and swept, so the pending map stays bounded.
const pairingStateTTL = 10 * time.Minute

// realmKey identifies an owner's realm at this Host.
type realmKey struct {
	owner core.UserID
	realm core.RealmID
}

// New constructs an Enforcer.
func New(cfg Config) *Enforcer {
	client := cfg.HTTPClient
	if client == nil {
		client = http.DefaultClient
	}
	cache := cfg.Cache
	if cache == nil {
		cache = NewDecisionCache()
	}
	name := cfg.Name
	if name == "" {
		name = string(cfg.Host)
	}
	retry := cfg.StreamRetry
	if retry <= 0 {
		retry = DefaultStreamRetry
	}
	e := &Enforcer{
		host:          cfg.Host,
		name:          name,
		baseURL:       cfg.BaseURL,
		client:        client,
		cache:         cache,
		store:         cfg.Store,
		streamRetry:   retry,
		pairings:      make(map[core.UserID]Pairing),
		pending:       make(map[string]pendingPairing),
		realmPairings: make(map[realmKey]Pairing),
	}
	e.streamCtx, e.streamCancel = context.WithCancel(context.Background())
	e.loadPairings()
	return e
}

// Close stops every stream subscription goroutine the enforcer started,
// cancelling parked reads and backoff sleeps so it returns promptly. The
// enforcement surface (Check, Require) keeps working — only push-driven
// freshness stops.
func (e *Enforcer) Close() error {
	e.streamCancel()
	e.streamWG.Wait()
	return nil
}

// loadPairings rehydrates persisted pairings from the backing store.
func (e *Enforcer) loadPairings() {
	if e.store == nil {
		return
	}
	for _, ent := range e.store.List(kindPairing) {
		var p Pairing
		if err := ent.Decode(&p); err == nil {
			e.pairings[p.User] = p
		}
	}
	for _, ent := range e.store.List(kindRealmPairing) {
		var rec realmPairingRecord
		if err := ent.Decode(&rec); err == nil {
			e.realmPairings[realmKey{rec.Owner, rec.Realm}] = rec.Pairing
		}
	}
}

// Host returns the enforcer's host identity.
func (e *Enforcer) Host() core.HostID { return e.host }

// SetBaseURL records the externally reachable URL once known.
func (e *Enforcer) SetBaseURL(u string) { e.baseURL = u }

// Cache exposes the decision cache (metrics, invalidation).
func (e *Enforcer) Cache() *DecisionCache { return e.cache }

// --- Pairing (Fig. 3) ---

// BeginPairing returns the AM confirmation URL the user's browser must
// visit: the first leg of Fig. 3 ("A User ... is then redirected from the
// Host to AM to confirm that this particular Host can delegate its access
// control functionality to this component"). The callback URL carries
// only a one-time state naming (user, amURL); the callback honours it
// once, within pairingStateTTL.
func (e *Enforcer) BeginPairing(amURL string, user core.UserID) string {
	state := core.NewSecret(16)
	now := time.Now()
	e.mu.Lock()
	for k, p := range e.pending {
		if now.After(p.expires) {
			delete(e.pending, k)
		}
	}
	e.pending[state] = pendingPairing{amURL: amURL, user: user, expires: now.Add(pairingStateTTL)}
	e.mu.Unlock()

	q := url.Values{}
	q.Set(core.ParamHost, string(e.host))
	q.Set("host_name", e.name)
	q.Set("host_url", e.baseURL)
	q.Set(core.ParamReturnTo, e.baseURL+"/umac/pair/callback?"+url.Values{core.ParamState: {state}}.Encode())
	return amclient.PairConfirmURL(amURL, q)
}

// CompletePairing exchanges the one-time code at the AM for the channel
// secret — the closing leg of Fig. 3. It stores the pairing as the user's
// default, and refuses one the AM issued for another user.
func (e *Enforcer) CompletePairing(amURL string, user core.UserID, code string) (Pairing, error) {
	p, err := e.exchange(amURL, user, code)
	if err != nil {
		return Pairing{}, err
	}
	// Persist before installing, under the same critical section: on a
	// persist failure the enforcer does not start honoring a pairing the
	// caller was told failed, and racing completions for one user cannot
	// commit different pairings to memory and disk.
	e.mu.Lock()
	if e.store != nil {
		if _, err := e.store.Put(kindPairing, string(user), p); err != nil {
			e.mu.Unlock()
			return Pairing{}, fmt.Errorf("pep: persist pairing: %w", err)
		}
	}
	e.pairings[user] = p
	e.mu.Unlock()
	return p, nil
}

// amFor returns a typed AM client signing with the pairing's credentials.
func (e *Enforcer) amFor(p Pairing) *amclient.Client {
	return amclient.New(amclient.Config{
		BaseURL:    p.AMURL,
		HTTPClient: e.client,
		PairingID:  p.PairingID,
		Secret:     p.Secret,
	})
}

// exchange performs the code-for-secret exchange at an AM, for a pairing
// the AM must have issued to user.
func (e *Enforcer) exchange(amURL string, user core.UserID, code string) (Pairing, error) {
	c := amclient.New(amclient.Config{BaseURL: amURL, HTTPClient: e.client})
	pr, err := c.ExchangePairingCode(code, e.host)
	if err != nil {
		return Pairing{}, fmt.Errorf("pep: pairing exchange: %w", err)
	}
	if pr.User != user {
		return Pairing{}, fmt.Errorf("pep: pairing exchange: AM issued the pairing to %q, not %q", pr.User, user)
	}
	return Pairing{AMURL: c.BaseURL(), PairingID: pr.PairingID, Secret: pr.Secret, User: user}, nil
}

// HandlePairCallback is the HTTP handler for the pairing redirect leg; Host
// applications mount it at /umac/pair/callback. It closes the pairing
// BeginPairing opened under the callback's state (400 for a state it did
// not issue, already used or let expire), then subscribes the owner's
// invalidation stream, so policy changes at the AM reach this Host's
// decision cache at once rather than at TTL expiry; a subscription that
// cannot be established is logged and leaves the pairing in place with
// the TTL as the freshness bound.
func (e *Enforcer) HandlePairCallback(w http.ResponseWriter, r *http.Request) {
	p, ok := e.finishPairing(w, r)
	if !ok {
		return
	}
	if err := e.StartInvalidationStream(p.User); err != nil {
		log.Printf("pep: invalidation stream for %s at %s unavailable: %v", p.User, p.AMURL, err)
	}
	// "a User is redirected back to the Host to be acknowledged that a
	// secure communication channel has been established" (Section V.B.1).
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"paired": string(p.User), "host": string(e.host)})
}

// ServePairCallback is HandlePairCallback without the stream subscription
// or the JSON acknowledgement, for Hosts that keep no invalidation
// streams: an installed pairing answers an empty 200.
func (e *Enforcer) ServePairCallback(w http.ResponseWriter, r *http.Request) {
	e.finishPairing(w, r)
}

// finishPairing closes the pairing BeginPairing opened under the
// callback's one-time state: it consumes the state and exchanges the code
// at the AM recorded for it, for the user recorded for it. It writes the
// refusal itself: 400 for a state this Host did not issue, already used
// or let expire, before any exchange; a fixed 502 for a failed exchange,
// whose cause (the user, the AM's address, the transport error) is logged
// rather than shown to the browser.
func (e *Enforcer) finishPairing(w http.ResponseWriter, r *http.Request) (Pairing, bool) {
	q := r.URL.Query()
	state := q.Get(core.ParamState)
	e.mu.Lock()
	pending, ok := e.pending[state]
	delete(e.pending, state)
	e.mu.Unlock()
	if !ok || time.Now().After(pending.expires) {
		http.Error(w, "pep: unknown, used or expired pairing state", http.StatusBadRequest)
		return Pairing{}, false
	}
	p, err := e.CompletePairing(pending.amURL, pending.user, q.Get("code"))
	if err != nil {
		log.Printf("pep: pairing %s with %s: %v", pending.user, pending.amURL, err)
		http.Error(w, "pep: pairing with the authorization manager failed", http.StatusBadGateway)
		return Pairing{}, false
	}
	return p, true
}

// PairingFor returns the owner's default pairing.
func (e *Enforcer) PairingFor(owner core.UserID) (Pairing, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	p, ok := e.pairings[owner]
	return p, ok
}

// SetRealmPairing routes one realm's protection to a specific AM pairing,
// overriding the owner's default AM for that realm (Section V.D: different
// AMs for different resources). Obtain the pairing with CompleteRealmPairing
// or construct it from a stored credential.
func (e *Enforcer) SetRealmPairing(owner core.UserID, realm core.RealmID, p Pairing) {
	e.setRealmPairing(owner, realm, p)
}

// setRealmPairing persists and installs a realm pairing, reporting
// persistence failures (SetRealmPairing's signature predates the store and
// drops them; the protocol path surfaces them via CompleteRealmPairing).
func (e *Enforcer) setRealmPairing(owner core.UserID, realm core.RealmID, p Pairing) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.store != nil {
		rec := realmPairingRecord{Owner: owner, Realm: realm, Pairing: p}
		if _, err := e.store.Put(kindRealmPairing, realmPairingKey(owner, realm), rec); err != nil {
			return fmt.Errorf("pep: persist realm pairing: %w", err)
		}
	}
	e.realmPairings[realmKey{owner, realm}] = p
	return nil
}

// CompleteRealmPairing exchanges a pairing code at the given AM and binds
// the resulting pairing to one realm only (the owner's default pairing is
// untouched).
func (e *Enforcer) CompleteRealmPairing(amURL string, owner core.UserID, realm core.RealmID, code string) (Pairing, error) {
	p, err := e.exchange(amURL, owner, code)
	if err != nil {
		return Pairing{}, err
	}
	if err := e.setRealmPairing(owner, realm, p); err != nil {
		return Pairing{}, err
	}
	return p, nil
}

// pairingForRealm resolves the pairing protecting (owner, realm): the
// realm-specific pairing when present, otherwise the owner's default.
func (e *Enforcer) pairingForRealm(owner core.UserID, realm core.RealmID) (Pairing, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if p, ok := e.realmPairings[realmKey{owner, realm}]; ok {
		return p, true
	}
	p, ok := e.pairings[owner]
	return p, ok
}

// Delegated reports whether owner has delegated this Host's access control
// to an AM.
func (e *Enforcer) Delegated(owner core.UserID) bool {
	_, ok := e.PairingFor(owner)
	return ok
}

// Unpair drops the owner's pairing (e.g. after the AM reports it revoked).
// The in-memory pairing is removed unconditionally (fail-safe for a
// revocation); a non-nil error means the persisted copy may survive and
// resurrect on the next restart.
func (e *Enforcer) Unpair(owner core.UserID) error {
	e.mu.Lock()
	delete(e.pairings, owner)
	e.mu.Unlock()
	if e.store == nil {
		return nil
	}
	if err := e.store.Delete(kindPairing, string(owner)); err != nil && !errors.Is(err, store.ErrNotFound) {
		return fmt.Errorf("pep: unpersist pairing: %w", err)
	}
	return nil
}

// --- Protecting resources (Fig. 4, Host leg) ---

// Protect registers owner's realm (and optionally its resource list and a
// policy link) with the owner's AM over the signed channel.
func (e *Enforcer) Protect(owner core.UserID, realm core.RealmID, resources []core.ResourceID, pol core.PolicyID) error {
	p, ok := e.pairingForRealm(owner, realm)
	if !ok {
		return core.ErrNotPaired
	}
	req := core.ProtectRequest{
		PairingID: p.PairingID,
		User:      owner,
		Realm:     realm,
		Resources: resources,
		Policy:    pol,
	}
	if _, err := e.amFor(p).Protect(req); err != nil {
		return fmt.Errorf("pep: protect %s: %w", realm, err)
	}
	return nil
}

// ComposeURL returns the AM policy-composition URL a Host's "share" control
// redirects the user to (Fig. 4: "a User does not access the configuration
// menu but is redirected to this AM").
func (e *Enforcer) ComposeURL(owner core.UserID, realm core.RealmID) (string, error) {
	p, ok := e.pairingForRealm(owner, realm)
	if !ok {
		return "", core.ErrNotPaired
	}
	q := url.Values{}
	q.Set(core.ParamHost, string(e.host))
	q.Set(core.ParamRealm, string(realm))
	q.Set(core.ParamReturnTo, e.baseURL)
	return amclient.ComposeURL(p.AMURL, q), nil
}

// --- Enforcement (Figs. 5, 6 and subsequent access) ---

// Verdict classifies the outcome of a Check.
type Verdict int

// Verdicts.
const (
	// VerdictAllow: serve the resource.
	VerdictAllow Verdict = iota + 1
	// VerdictDeny: refuse with 403.
	VerdictDeny
	// VerdictNeedToken: the request carried no token; refer the Requester
	// to the AM (Fig. 5).
	VerdictNeedToken
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case VerdictAllow:
		return "allow"
	case VerdictDeny:
		return "deny"
	case VerdictNeedToken:
		return "need-token"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// CheckResult is the outcome of an enforcement check.
type CheckResult struct {
	Verdict Verdict
	// Reason explains denials.
	Reason string
	// CacheHit is true when the decision came from the local cache —
	// the Section V.B.6 fast path with no AM round-trip.
	CacheHit bool
	// AMURL is the owner's AM base URL (set for VerdictNeedToken).
	AMURL string
}

// ExtractToken pulls the authorization token from a request: the
// "Authorization: UMAC <token>" header (preferred), a Bearer header, or the
// ?token= query parameter (for browser redirects back from the AM).
func ExtractToken(r *http.Request) (string, bool) {
	// Indexed by its canonical name, which is what Header.Get does after
	// canonicalising the name it is given.
	if v := r.Header["Authorization"]; len(v) > 0 && v[0] != "" {
		scheme, tok, ok := strings.Cut(v[0], " ")
		if ok && (strings.EqualFold(scheme, TokenScheme) || strings.EqualFold(scheme, "Bearer")) {
			return strings.TrimSpace(tok), tok != ""
		}
	}
	if t := r.URL.Query().Get(core.ParamToken); t != "" {
		return t, true
	}
	return "", false
}

// Check enforces access to (owner, realm, resource, action) for the given
// request. It never writes to the response; use Require for the common
// serve-or-refuse pattern.
func (e *Enforcer) Check(r *http.Request, owner core.UserID, realm core.RealmID, res core.ResourceID, action core.Action) (CheckResult, error) {
	p, ok := e.pairingForRealm(owner, realm)
	if !ok {
		return CheckResult{}, core.ErrNotPaired
	}
	tok, ok := ExtractToken(r)
	if !ok {
		return CheckResult{Verdict: VerdictNeedToken, AMURL: p.AMURL}, nil
	}

	key := cacheKey(e.cache.digest(tok), res, action)
	if decision, ok := e.cache.get(key); ok {
		verdict := VerdictDeny
		if decision {
			verdict = VerdictAllow
		}
		return CheckResult{Verdict: verdict, CacheHit: true}, nil
	}

	// Fig. 6: decision query over the signed channel. Concurrent misses for
	// the same key collapse into one query — the leader asks the AM and
	// fills the cache, followers share its response.
	dec, err, shared := e.flights.do(key, func() (core.DecisionResponse, error) {
		q := core.DecisionQuery{
			PairingID: p.PairingID,
			Host:      e.host,
			Realm:     realm,
			Resource:  res,
			Action:    action,
			Token:     tok,
		}
		// Capture the invalidation generation before the query: if a push
		// lands while the response is in flight, the decision may predate
		// the policy change and must not be written back.
		gen := e.cache.Gen()
		d, err := e.amFor(p).Decide(q)
		if err != nil {
			return core.DecisionResponse{}, fmt.Errorf("pep: decision query to %s: %w", p.AMURL, err)
		}
		// Token-problem denials are about the token, not the policy; they
		// must never be cached no matter what TTL the response claims.
		if d.CacheTTLSeconds > 0 && !d.TokenProblem {
			e.cache.put(key, EntryScope{Owner: owner, Realm: realm, Resource: res},
				d.Permit(), d.CacheTTLSeconds, gen, true)
		}
		return d, nil
	})
	if err != nil {
		return CheckResult{}, err
	}
	if dec.TokenProblem {
		// The token itself is bad (expired, forged, out of scope): refer
		// the Requester back to the AM for a fresh one rather than
		// answering with a terminal deny.
		return CheckResult{Verdict: VerdictNeedToken, AMURL: p.AMURL, Reason: dec.Reason}, nil
	}
	verdict := VerdictDeny
	if dec.Permit() {
		verdict = VerdictAllow
	}
	// A shared result cost this caller no round-trip of its own — report it
	// like a cache hit so the fast path stays visible in metrics.
	return CheckResult{Verdict: verdict, Reason: dec.Reason, CacheHit: shared}, nil
}

// ResourceAction names one (resource, action) pair in a batched check.
type ResourceAction struct {
	Resource core.ResourceID
	Action   core.Action
}

// CheckBatch enforces access to many (resource, action) pairs of one
// owner's realm in a single pass: cached decisions answer locally and every
// uncached pair is resolved in ONE signed round-trip via the AM's batch
// decision endpoint — a Host rendering a listing of N protected resources
// pays one query instead of N (the batched form of Fig. 6). Results[i]
// corresponds to pairs[i].
func (e *Enforcer) CheckBatch(r *http.Request, owner core.UserID, realm core.RealmID, pairs []ResourceAction) ([]CheckResult, error) {
	p, ok := e.pairingForRealm(owner, realm)
	if !ok {
		return nil, core.ErrNotPaired
	}
	results := make([]CheckResult, len(pairs))
	tok, ok := ExtractToken(r)
	if !ok {
		for i := range results {
			results[i] = CheckResult{Verdict: VerdictNeedToken, AMURL: p.AMURL}
		}
		return results, nil
	}

	// First pass: answer from the cache, collect the distinct misses.
	// item[i] is the index into items of the query answering pairs[i], -1
	// for a cache hit; a pair repeating an earlier miss shares its item.
	var (
		items []core.BatchDecisionItem
		keys  []entryKey // keys[j] is items[j]'s cache key
		item  = make([]int, len(pairs))
		first = make(map[entryKey]int, len(pairs)) // cache key -> its item
	)
	digest := e.cache.digest(tok)
	for i, pr := range pairs {
		key := cacheKey(digest, pr.Resource, pr.Action)
		if j, dup := first[key]; dup {
			item[i] = j
			continue
		}
		if decision, ok := e.cache.get(key); ok {
			verdict := VerdictDeny
			if decision {
				verdict = VerdictAllow
			}
			results[i] = CheckResult{Verdict: verdict, CacheHit: true}
			item[i] = -1
			continue
		}
		if items == nil {
			items = make([]core.BatchDecisionItem, 0, len(pairs)-i)
			keys = make([]entryKey, 0, len(pairs)-i)
		}
		item[i], first[key] = len(items), len(items)
		items = append(items, core.BatchDecisionItem{
			Realm:    realm,
			Resource: pr.Resource,
			Action:   pr.Action,
		})
		keys = append(keys, key)
	}
	if len(items) == 0 {
		return results, nil
	}

	// Second pass: one signed round-trip resolves every miss — chunked to
	// the AM's batch limit, so a page wider than MaxBatchDecisionItems
	// still resolves (in ceil(n/max) round-trips) instead of erroring.
	answers := make([]CheckResult, len(items))
	for start := 0; start < len(items); start += core.MaxBatchDecisionItems {
		end := min(start+core.MaxBatchDecisionItems, len(items))
		chunk := items[start:end]
		q := core.BatchDecisionQuery{
			PairingID: p.PairingID,
			Host:      e.host,
			Token:     tok,
			Items:     chunk,
		}
		gen := e.cache.Gen()
		resp, err := e.amFor(p).DecideBatch(q)
		if err != nil {
			return nil, fmt.Errorf("pep: batch decision query: %w", err)
		}
		if len(resp.Results) != len(chunk) {
			return nil, fmt.Errorf("pep: batch decision answered %d of %d items",
				len(resp.Results), len(chunk))
		}
		for j, it := range chunk {
			res := resp.Results[j]
			var cr CheckResult
			switch {
			case res.Error != "":
				// Item-level failure (e.g. unknown realm): deny-biased,
				// never cached.
				cr = CheckResult{Verdict: VerdictDeny, Reason: res.Error}
			case res.TokenProblem:
				cr = CheckResult{Verdict: VerdictNeedToken, AMURL: p.AMURL, Reason: res.Reason}
			default:
				if res.CacheTTLSeconds > 0 {
					e.cache.put(keys[start+j], EntryScope{Owner: owner, Realm: realm, Resource: it.Resource},
						res.Permit(), res.CacheTTLSeconds, gen, true)
				}
				verdict := VerdictDeny
				if res.Permit() {
					verdict = VerdictAllow
				}
				cr = CheckResult{Verdict: verdict, Reason: res.Reason}
			}
			answers[start+j] = cr
		}
	}
	for i, j := range item {
		if j >= 0 {
			results[i] = answers[j]
		}
	}
	return results, nil
}

// Require runs Check and writes the appropriate protocol response for
// anything but an allow: 401 with AM referral headers for missing tokens,
// 403 for denials, 404 when the owner has no pairing at this Host (so the
// answer does not reveal whether the owner exists), 502 for AM
// communication failures. It returns true only when the caller should
// serve the resource.
func (e *Enforcer) Require(w http.ResponseWriter, r *http.Request, owner core.UserID, realm core.RealmID, res core.ResourceID, action core.Action) bool {
	result, err := e.Check(r, owner, realm, res, action)
	if errors.Is(err, core.ErrNotPaired) {
		// No AM was asked, so nothing failed and nothing is logged.
		http.NotFound(w, r)
		return false
	}
	if err != nil {
		// The cause names the AM and its transport error: log it, and
		// tell the untrusted Requester only that no decision came.
		log.Printf("pep: decision on %s for %s: %v", res, owner, err)
		http.Error(w, "pep: no decision from the authorization manager", http.StatusBadGateway)
		return false
	}
	switch result.Verdict {
	case VerdictAllow:
		return true
	case VerdictNeedToken:
		e.WriteReferral(w, result.AMURL, realm, res, action)
		return false
	default:
		http.Error(w, "access denied: "+result.Reason, http.StatusForbidden)
		return false
	}
}

// WriteReferral writes the 401 referral telling the Requester which AM to
// obtain a token from and for what — the programmatic equivalent of the
// Fig. 5 redirect ("a Host redirects a Requester to the AM along with
// information about the Host and the resource").
func (e *Enforcer) WriteReferral(w http.ResponseWriter, amURL string, realm core.RealmID, res core.ResourceID, action core.Action) {
	w.Header().Set(HeaderAM, amURL)
	w.Header().Set(HeaderHost, string(e.host))
	w.Header().Set(HeaderRealm, string(realm))
	w.Header().Set(HeaderResource, string(res))
	w.Header().Set(HeaderAction, string(action))
	w.Header().Set("Www-Authenticate", fmt.Sprintf("%s am=%q, realm=%q", TokenScheme, amURL, realm))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusUnauthorized)
	json.NewEncoder(w).Encode(map[string]string{
		"error":    "authorization token required",
		"am":       amURL,
		"host":     string(e.host),
		"realm":    string(realm),
		"resource": string(res),
		"action":   string(action),
	})
}
