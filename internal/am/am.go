// Package am implements the Authorization Manager (AM), the paper's central
// component: "An Authorization Manager allows a User to define access
// control policies for their online resources in a uniform way irrespective
// of the Web application that hosts those resources. This component makes
// access control decisions based on these policies. It provides
// functionality of a policy administration point (PAP) and a policy
// decision point (PDP) ... An AM also acts as a token service" (Section
// V.A.2).
//
// The AM exposes:
//
//   - a pairing flow establishing the trusted Host↔AM channel (Fig. 3);
//   - a policy administration API with JSON/XML import/export (Section VI);
//   - a token endpoint for Requesters (Fig. 5), with real-time consent and
//     terms/claims extensions (Section V.D);
//   - a decision endpoint for Hosts (Fig. 6);
//   - the consolidated audit view (requirement R4).
package am

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"umac/internal/audit"
	"umac/internal/cluster"
	"umac/internal/core"
	"umac/internal/events"
	"umac/internal/httpsig"
	"umac/internal/identity"
	"umac/internal/policy"
	"umac/internal/rebalance"
	"umac/internal/store"
	"umac/internal/token"
	"umac/internal/webutil"
)

// Store kinds used by the AM.
const (
	kindPairing   = "pairing"
	kindRealm     = "realm"
	kindPolicy    = "policy"
	kindLinkGen   = "link-general"  // key owner/realm           → linkRecord
	kindLinkSpec  = "link-specific" // key owner/host/resource   → linkRecord
	kindGroup     = "group"         // key owner/group           → []core.UserID
	kindCustodian = "custodian"     // key owner                 → []core.UserID
)

// Pairing is the durable trust relationship between a Host and this AM.
type Pairing struct {
	ID        string            `json:"id"`
	Host      core.HostID       `json:"host"`
	HostName  string            `json:"host_name"`
	HostURL   string            `json:"host_url"`
	User      core.UserID       `json:"user"`
	Scope     core.PairingScope `json:"scope"`
	Resources []core.ResourceID `json:"resources,omitempty"`
	Secret    string            `json:"secret"`
	CreatedAt time.Time         `json:"created_at"`
	Revoked   bool              `json:"revoked"`
}

// Realm is a protected group of resources registered by a Host on behalf of
// an owner (the Fig. 4 outcome).
type Realm struct {
	Host      core.HostID       `json:"host"`
	Realm     core.RealmID      `json:"realm"`
	Owner     core.UserID       `json:"owner"`
	PairingID string            `json:"pairing_id"`
	Resources []core.ResourceID `json:"resources,omitempty"`
}

// linkRecord binds a realm or resource to a policy.
type linkRecord struct {
	Policy core.PolicyID `json:"policy"`
}

// Config configures an AM.
type Config struct {
	// Name identifies this AM in health bodies, error messages and the
	// comment line that opens each event stream (e.g. "copmonkey").
	Name string
	// BaseURL is the externally reachable URL of the AM, used in redirect
	// legs. Set after the HTTP listener is bound.
	BaseURL string
	// Store persists AM state; nil means a fresh in-memory store.
	Store *store.Store
	// Audit is the consolidated audit log; nil means a fresh in-memory
	// log. Like Store it is the caller's to close, after the AM.
	Audit *audit.Log
	// TokenKey is the token-service master key; empty means random.
	TokenKey []byte
	// TokenTTL bounds authorization-token lifetime; 0 means the default.
	TokenTTL time.Duration
	// DefaultCacheTTL is the decision-cache TTL handed to Hosts when the
	// deciding policy does not set one. Zero means DefaultDecisionCacheTTL.
	DefaultCacheTTL time.Duration
	// Auth authenticates browser-facing requests; nil means
	// identity.HeaderAuth{}.
	Auth identity.Authenticator
	// Notifier delivers consent requests to users; nil means notifications
	// are dropped (consent can still be resolved via the API).
	Notifier Notifier
	// Replication selects the node's role in a replicated deployment
	// (primary streaming its WAL, or follower applying it and serving
	// reads only). The zero value is a standalone AM.
	Replication ReplicationConfig
	// Cluster places the node in a sharded multi-primary cluster: a
	// consistent-hash ring maps each resource owner to one shard (a
	// replication group), and owner-scoped routes answer wrong_shard when
	// the owner hashes elsewhere. The zero value is an unsharded AM.
	Cluster ClusterConfig
	// Abuse enables the per-tenant token-bucket rate limiter (pairing /
	// session / remote-IP tiers). The zero value disables it.
	Abuse AbuseConfig
}

// DefaultDecisionCacheTTL is the fallback Host decision-cache TTL.
const DefaultDecisionCacheTTL = 60 * time.Second

// AM is an Authorization Manager instance.
type AM struct {
	name      string
	baseURL   string
	store     *store.Store
	tokens    *token.Service
	groups    *groupStore
	engine    *policy.Engine
	index     *decisionIndex
	audit     *audit.Log
	auditPipe *audit.Pipeline
	auth      identity.Authenticator
	notifier  Notifier
	cacheTTL  time.Duration

	// broker fans control-plane events (invalidation, consent,
	// replication) out to /v1/events subscribers; heartbeat is the SSE
	// comment-frame interval (DefaultEventHeartbeat; see events.go).
	broker    *events.Broker
	heartbeat time.Duration

	// limiter is the per-tenant admission controller (nil = abuse
	// controls disabled; see ratelimit.go).
	limiter *webutil.RateLimiter

	// draining flips the /v1/readyz probe to 503 so load balancers stop
	// routing new traffic ahead of a shutdown.
	draining atomic.Bool
	// routes is the table the last Handler call registered (guarded by
	// mu; the metrics registry itself lives in the handler closure).
	routes []RouteInfo

	// clusterCfg is the node's shard membership (see cluster.go); the
	// zero value disables ownership gating. ringPtr holds the ring
	// currently in force — seeded from clusterCfg.Ring, superseded by
	// persisted installs (PUT /v1/cluster/ring, replication) — swapped
	// atomically so routing reads never lock. migMu is the migration
	// barrier: gated mutations hold it read-side for their whole
	// duration, SetOwnerShard and ring installs write-lock it to flip
	// ownership. rebal is the embedded rebalance coordinator (sharded
	// primaries only; see rebalance.go in this package).
	clusterCfg ClusterConfig
	ringPtr    atomic.Pointer[cluster.Ring]
	migMu      sync.RWMutex
	rebal      *rebalance.Coordinator

	// Replication state (see replication.go). roleFollower gates writes;
	// the remaining fields are the follower sync loop's telemetry.
	replCfg        ReplicationConfig
	roleFollower   atomic.Bool
	replConnected  atomic.Bool
	replPrimarySeq atomic.Int64
	replApplied    atomic.Int64
	replCtx        context.Context
	replCancel     context.CancelFunc
	replStopOnce   sync.Once
	replDone       chan struct{}

	mu       sync.Mutex
	pending  map[string]pendingPairing // one-time pairing codes
	consents map[string]*consentTicket
}

// pendingPairing is a one-time code awaiting Host exchange (the back leg of
// Fig. 3).
type pendingPairing struct {
	req       core.PairingRequest
	expiresAt time.Time
}

// pairingCodeTTL bounds how long a confirmation code stays exchangeable.
const pairingCodeTTL = 5 * time.Minute

// New constructs an AM from cfg.
func New(cfg Config) *AM {
	st := cfg.Store
	if st == nil {
		st = store.New()
	}
	auditLog := cfg.Audit
	if auditLog == nil {
		auditLog = &audit.Log{}
	}
	auth := cfg.Auth
	if auth == nil {
		auth = identity.HeaderAuth{}
	}
	cacheTTL := cfg.DefaultCacheTTL
	if cacheTTL <= 0 {
		cacheTTL = DefaultDecisionCacheTTL
	}
	name := cfg.Name
	if name == "" {
		name = "am"
	}
	a := &AM{
		name:       name,
		baseURL:    cfg.BaseURL,
		store:      st,
		tokens:     token.NewService(cfg.TokenKey, cfg.TokenTTL),
		audit:      auditLog,
		auth:       auth,
		notifier:   cfg.Notifier,
		cacheTTL:   cacheTTL,
		replCfg:    cfg.Replication,
		clusterCfg: cfg.Cluster,
		limiter:    newLimiter(cfg.Abuse),
		index:      newDecisionIndex(),
		pending:    make(map[string]pendingPairing),
		consents:   make(map[string]*consentTicket),
		heartbeat:  DefaultEventHeartbeat,
	}
	a.auditPipe = audit.NewPipeline(a.audit, 0)
	a.groups = newGroupStore(st)
	a.engine = policy.NewEngine(a.groups)
	// The broker must exist before the replication loop starts: the
	// follower sync path publishes replication signals from its goroutine.
	a.broker = events.New(events.Options{})
	// Seed the live ring from config, then let a persisted install (a
	// rebalance the previous process ran before dying) supersede it.
	if cfg.Cluster.enabled() {
		a.ringPtr.Store(cfg.Cluster.Ring)
		a.restoreRing()
	}
	a.startReplication()
	// Sharded primaries embed the rebalance coordinator; an unfinished
	// checkpointed plan resumes automatically — the crash-recovery half of
	// the coordinator's resumability contract.
	a.setupRebalance()
	return a
}

// Close stops the embedded rebalance coordinator (if any) as a crash
// would, leaving its plan to resume on the next start, stops the follower
// replication loop (if any), shuts the event broker down (every
// /v1/events subscriber drains and disconnects), and flushes the
// asynchronous audit pipeline. The backing store and audit log are the
// caller's to close (they may be shared).
func (a *AM) Close() error {
	if a.rebal != nil {
		a.rebal.Stop()
	}
	a.stopReplication()
	a.broker.Close()
	a.auditPipe.Close()
	return nil
}

// Events exposes the control-plane broker so embedding processes (sims,
// tests) can subscribe in-process without an HTTP round-trip.
func (a *AM) Events() *events.Broker { return a.broker }

// SetDraining marks the AM as (not) draining: while draining, the
// /v1/readyz probe answers 503 so load balancers pull the instance out of
// rotation ahead of shutdown. Serving routes keep working either way.
func (a *AM) SetDraining(v bool) { a.draining.Store(v) }

// Draining reports the drain flag.
func (a *AM) Draining() bool { return a.draining.Load() }

// Name returns the AM's display name.
func (a *AM) Name() string { return a.name }

// BaseURL returns the AM's externally reachable URL.
func (a *AM) BaseURL() string { return a.baseURL }

// SetBaseURL records the externally reachable URL once the listener is
// bound (httptest servers learn their URL only after start).
func (a *AM) SetBaseURL(u string) { a.baseURL = u }

// Audit exposes the consolidated audit log. It flushes the asynchronous
// decision-event pipeline first, so every decision issued before the call
// is visible to the returned log's queries.
func (a *AM) Audit() *audit.Log {
	a.auditPipe.Flush()
	return a.audit
}

// Store exposes the backing store (snapshots, tooling).
func (a *AM) Store() *store.Store { return a.store }

// --- Pairing (Fig. 3) ---

// ApprovePairing registers the user's consent to delegate the Host's access
// control to this AM and returns the one-time code the Host exchanges for
// the channel secret. It is invoked from the browser-redirect leg of Fig. 3
// after the AM has authenticated the user.
func (a *AM) ApprovePairing(req core.PairingRequest) (string, error) {
	if req.Host == "" || req.User == "" {
		return "", fmt.Errorf("am: pairing requires host and user")
	}
	if req.Scope == 0 {
		req.Scope = core.PairingScopeUser
	}
	release, err := a.gateOwner(req.User)
	if err != nil {
		return "", err
	}
	defer release()
	code := core.NewID("code")
	a.mu.Lock()
	a.pending[code] = pendingPairing{req: req, expiresAt: time.Now().Add(pairingCodeTTL)}
	a.mu.Unlock()
	return code, nil
}

// ExchangeCode completes Fig. 3: the Host presents the one-time code and
// receives the pairing identifier plus the channel secret. The code is
// consumed whether or not the exchange succeeds.
func (a *AM) ExchangeCode(code string, host core.HostID) (core.PairingResponse, error) {
	a.mu.Lock()
	p, ok := a.pending[code]
	a.mu.Unlock()
	if !ok || time.Now().After(p.expiresAt) {
		a.mu.Lock()
		delete(a.pending, code)
		a.mu.Unlock()
		return core.PairingResponse{}, fmt.Errorf("am: unknown or expired pairing code")
	}
	// The approve leg was gated, but the owner may have been flipped to
	// another shard between approve and exchange; the pairing record must
	// not be written to a shard that no longer owns it. Gate BEFORE
	// consuming the one-time code: wrong_shard is retryable, and a
	// retryable answer must not destroy the state the retry needs.
	release, err := a.gateOwner(p.req.User)
	if err != nil {
		return core.PairingResponse{}, err
	}
	defer release()
	a.mu.Lock()
	_, ok = a.pending[code]
	delete(a.pending, code)
	a.mu.Unlock()
	if !ok {
		// A concurrent exchange consumed it between the read and here.
		return core.PairingResponse{}, fmt.Errorf("am: unknown or expired pairing code")
	}
	if p.req.Host != host {
		return core.PairingResponse{}, fmt.Errorf("am: pairing code issued for host %q, presented by %q", p.req.Host, host)
	}
	pairing := Pairing{
		ID:        core.NewID("pair"),
		Host:      p.req.Host,
		HostName:  p.req.HostName,
		HostURL:   p.req.HostURL,
		User:      p.req.User,
		Scope:     p.req.Scope,
		Resources: p.req.Resources,
		Secret:    core.NewSecret(32),
		CreatedAt: time.Now(),
	}
	if _, err := a.store.Put(kindPairing, pairing.ID, pairing); err != nil {
		return core.PairingResponse{}, fmt.Errorf("am: persist pairing: %w", err)
	}
	a.auditPipe.Enqueue(audit.Event{
		Type: audit.EventPairingCreated, Owner: pairing.User, Host: pairing.Host,
		Detail: pairing.ID,
	})
	return core.PairingResponse{
		PairingID: pairing.ID,
		Secret:    pairing.Secret,
		AM:        a.baseURL,
		User:      pairing.User,
	}, nil
}

// PairingSecret implements httpsig.SecretSource: revoked pairings stop
// verifying immediately.
func (a *AM) PairingSecret(pairingID string) (string, bool) {
	p, err := a.channelPairing(pairingID)
	return p.Secret, err == nil
}

// channelPairing reads the pairing a signed request names, once per
// request: its secret verifies the signature and the handler gets the rest.
// Unknown and revoked pairings fail as httpsig.ErrUnknownPairing.
func (a *AM) channelPairing(pairingID string) (Pairing, error) {
	if pairingID == "" {
		return Pairing{}, httpsig.ErrUnsigned
	}
	var p Pairing
	if _, err := a.store.Get(kindPairing, pairingID, &p); err != nil || p.Revoked {
		return Pairing{}, fmt.Errorf("%w: %s", httpsig.ErrUnknownPairing, pairingID)
	}
	return p, nil
}

// GetPairing returns a pairing by ID.
func (a *AM) GetPairing(id string) (Pairing, error) {
	var p Pairing
	if _, err := a.store.Get(kindPairing, id, &p); err != nil {
		return Pairing{}, fmt.Errorf("am: %w", core.ErrNotPaired)
	}
	return p, nil
}

// RevokePairing severs the trust relationship; the Host's signed calls stop
// verifying and its realms stop resolving.
func (a *AM) RevokePairing(id string) error {
	var p Pairing
	if _, err := a.store.Get(kindPairing, id, &p); err != nil {
		return fmt.Errorf("am: %w", core.ErrNotPaired)
	}
	// Gate on the pairing's owner: a migrated-away owner's revoke must be
	// re-routed to the owning shard, not acknowledged against this
	// shard's stale copy (which would leave the authoritative pairing
	// un-revoked).
	release, err := a.gateOwner(p.User)
	if err != nil {
		return err
	}
	defer release()
	_, err = a.store.Update(kindPairing, id, &p, func(exists bool) (any, error) {
		if !exists {
			return nil, fmt.Errorf("am: %w", core.ErrNotPaired)
		}
		p.Revoked = true
		return p, nil
	})
	if err != nil {
		return err
	}
	a.auditPipe.Enqueue(audit.Event{
		Type: audit.EventPairingRevoked, Owner: p.User, Host: p.Host, Detail: id,
	})
	return nil
}

// Pairings lists pairings created by the given user.
func (a *AM) Pairings(user core.UserID) []Pairing {
	entities := a.store.List(kindPairing)
	var out []Pairing
	for _, e := range entities {
		var p Pairing
		if err := e.Decode(&p); err != nil {
			continue
		}
		if p.User == user {
			out = append(out, p)
		}
	}
	return out
}

// --- Realms ---

// RegisterRealm records a Host-registered protected realm (invoked from the
// signed /api/protect endpoint). The pairing must belong to the same Host,
// and the registration must fall inside the pairing's delegation scope
// (Section V.A.3: "access control can be delegated to AM either for the
// entire application, for individual Users only or for individual
// resources").
func (a *AM) RegisterRealm(pairingID string, req core.ProtectRequest) (core.ProtectResponse, error) {
	p, err := a.GetPairing(pairingID)
	if err != nil {
		return core.ProtectResponse{}, err
	}
	if req.Realm == "" {
		return core.ProtectResponse{}, fmt.Errorf("am: protect requires a realm")
	}
	owner := req.User
	if owner == "" {
		owner = p.User
	}
	release, err := a.gateOwner(owner)
	if err != nil {
		return core.ProtectResponse{}, err
	}
	defer release()
	switch p.Scope {
	case core.PairingScopeApplication:
		// The whole application is delegated: any owner, any resource.
	case core.PairingScopeUser:
		// Only the pairing user's resources are delegated.
		if owner != p.User {
			return core.ProtectResponse{}, fmt.Errorf(
				"am: pairing %s is scoped to user %q; cannot protect resources of %q",
				pairingID, p.User, owner)
		}
	case core.PairingScopeResources:
		// Only the explicitly enumerated resources are delegated.
		if owner != p.User {
			return core.ProtectResponse{}, fmt.Errorf(
				"am: pairing %s is scoped to user %q; cannot protect resources of %q",
				pairingID, p.User, owner)
		}
		allowed := make(map[core.ResourceID]bool, len(p.Resources))
		for _, r := range p.Resources {
			allowed[r] = true
		}
		if len(req.Resources) == 0 {
			return core.ProtectResponse{}, fmt.Errorf(
				"am: pairing %s is resource-scoped; protect must enumerate resources", pairingID)
		}
		for _, r := range req.Resources {
			if !allowed[r] {
				return core.ProtectResponse{}, fmt.Errorf(
					"am: resource %q is outside the scope of pairing %s", r, pairingID)
			}
		}
	}
	r := Realm{
		Host:      p.Host,
		Realm:     req.Realm,
		Owner:     owner,
		PairingID: pairingID,
		Resources: req.Resources,
	}
	if _, err := a.store.Put(kindRealm, realmKey(p.Host, req.Realm), r); err != nil {
		return core.ProtectResponse{}, fmt.Errorf("am: persist realm: %w", err)
	}
	if req.Policy != "" {
		// The gate is already held for this owner; the ungated core avoids
		// a recursive barrier RLock (deadlock against a queued cutover).
		if err := a.linkGeneralGated(owner, req.Realm, req.Policy); err != nil {
			return core.ProtectResponse{}, err
		}
	}
	a.auditPipe.Enqueue(audit.Event{
		Type: audit.EventResourceLinked, Owner: owner, Host: p.Host,
		Realm: req.Realm, Detail: fmt.Sprintf("%d resources", len(req.Resources)),
	})
	return core.ProtectResponse{Realm: req.Realm, Policy: req.Policy}, nil
}

// LookupRealm resolves a (host, realm) pair.
func (a *AM) LookupRealm(host core.HostID, realm core.RealmID) (Realm, error) {
	var r Realm
	if _, err := a.store.Get(kindRealm, realmKey(host, realm), &r); err != nil {
		return Realm{}, fmt.Errorf("%w: %s at %s", core.ErrUnknownRealm, realm, host)
	}
	return r, nil
}

func realmKey(host core.HostID, realm core.RealmID) string {
	return string(host) + "/" + string(realm)
}
