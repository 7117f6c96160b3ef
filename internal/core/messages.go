package core

import (
	"errors"
	"fmt"
	"time"
)

// This file defines the wire messages of the UMAC protocol. Each message
// corresponds to an interaction in Figs. 3-6 of the paper. All messages are
// carried as JSON over HTTP; Host→AM messages are additionally signed with
// the pairing secret (see internal/httpsig).

// PairingRequest starts the Fig. 3 trust-establishment flow: a User supplies
// the URL of their preferred AM at the Host side, and the Host asks the AM
// to create a pairing.
type PairingRequest struct {
	Host     HostID `json:"host"`
	HostName string `json:"host_name"`
	HostURL  string `json:"host_url"`
	User     UserID `json:"user"`
	// Scope restricts what the pairing covers. The paper allows delegation
	// for the entire application, individual users, or individual resources
	// (Section V.A.3).
	Scope PairingScope `json:"scope"`
	// Resources is the explicit resource list when Scope ==
	// PairingScopeResources.
	Resources []ResourceID `json:"resources,omitempty"`
}

// PairingScope says how much of a Host's access control is delegated.
type PairingScope int

// Pairing scopes (Section V.A.3).
const (
	PairingScopeApplication PairingScope = iota + 1
	PairingScopeUser
	PairingScopeResources
)

// String implements fmt.Stringer.
func (s PairingScope) String() string {
	switch s {
	case PairingScopeApplication:
		return "application"
	case PairingScopeUser:
		return "user"
	case PairingScopeResources:
		return "resources"
	default:
		return fmt.Sprintf("scope(%d)", int(s))
	}
}

// PairingResponse completes the Fig. 3 flow. The AM returns the pairing
// identifier and the shared secret establishing the secure Host↔AM channel
// ("an access token that is generated by AM and obtained by a Host").
type PairingResponse struct {
	PairingID string `json:"pairing_id"`
	// Secret is the base64url-encoded channel key. It never travels again
	// after this handshake; all subsequent Host↔AM messages are HMAC-signed
	// with it.
	Secret string `json:"secret"`
	// AM is the issuing Authorization Manager's base URL.
	AM string `json:"am"`
	// User confirmed the delegation (the redirect leg of Fig. 3).
	User UserID `json:"user"`
}

// ProtectRequest registers a resource (or realm of resources) under AM
// protection, linking it to a policy — the Fig. 4 "composing policies" flow.
type ProtectRequest struct {
	PairingID string       `json:"pairing_id"`
	User      UserID       `json:"user"`
	Realm     RealmID      `json:"realm"`
	Resources []ResourceID `json:"resources,omitempty"`
	// Policy optionally links an existing policy; empty means the user will
	// compose rules interactively at the AM.
	Policy PolicyID `json:"policy,omitempty"`
}

// ProtectResponse acknowledges protection and reports the realm under which
// the resources are now protected.
type ProtectResponse struct {
	Realm  RealmID  `json:"realm"`
	Policy PolicyID `json:"policy,omitempty"`
}

// TokenRequest is issued by a Requester that was redirected to the AM after
// a tokenless access attempt (Fig. 5). Host and Resource describe what the
// Requester tried to access; the AM uses them to locate applicable policies.
type TokenRequest struct {
	Requester RequesterID `json:"requester"`
	// Subject is the authenticated identity on whose behalf the Requester
	// acts (e.g. Alice's browser session). May equal the Requester for
	// autonomous services.
	Subject  UserID     `json:"subject"`
	Host     HostID     `json:"host"`
	Realm    RealmID    `json:"realm"`
	Resource ResourceID `json:"resource"`
	Action   Action     `json:"action"`
	// Claims carries term-satisfying claims (e.g. payment confirmation)
	// for the Section V.D extension. Keyed by claim name.
	Claims map[string]string `json:"claims,omitempty"`
}

// TokenResponse returns the minted authorization token. The token "refers to
// a particular resource or a group of resources (realm) and a particular
// Requester ... and cannot be used to access other resources protected by
// this particular AM" (Section V.B.3).
type TokenResponse struct {
	Token     string    `json:"token"`
	Realm     RealmID   `json:"realm"`
	ExpiresAt time.Time `json:"expires_at"`
	// PendingConsent is set instead of Token when the AM requires real-time
	// user consent (Section V.D); the Requester polls with the ticket.
	PendingConsent string `json:"pending_consent,omitempty"`
	// RequiredTerms lists terms the Requester must satisfy (with claims)
	// before a token is issued, when the request lacked them.
	RequiredTerms []string `json:"required_terms,omitempty"`
}

// Pending reports whether the response is a deferred (consent or terms)
// outcome rather than a token grant.
func (t TokenResponse) Pending() bool {
	return t.Token == "" && (t.PendingConsent != "" || len(t.RequiredTerms) > 0)
}

// DecisionQuery is the Host→AM query of Fig. 6: "a decision query contains
// information about the realm to which an access request is performed,
// information about the Host and the authorization token that has been
// provided by the Requester".
type DecisionQuery struct {
	PairingID string     `json:"pairing_id"`
	Host      HostID     `json:"host"`
	Realm     RealmID    `json:"realm"`
	Resource  ResourceID `json:"resource"`
	Action    Action     `json:"action"`
	Token     string     `json:"token"`
}

// DecisionResponse is the AM's reply: permit or deny, plus cache directives
// ("The AM may provide a User with mechanisms to control caching of access
// control decisions", Section V.B.5).
type DecisionResponse struct {
	Decision string `json:"decision"`
	// CacheTTLSeconds > 0 allows the Host to cache the decision for that
	// long; 0 forbids caching.
	CacheTTLSeconds int `json:"cache_ttl_seconds"`
	// Reason is a human-auditable explanation (policy id, rule).
	Reason string `json:"reason,omitempty"`
	// TokenProblem marks a deny caused by the token itself (expired,
	// forged, out of scope) rather than by policy. The Host answers such
	// requests with a fresh AM referral so the Requester can obtain a new
	// token, instead of a terminal 403.
	TokenProblem bool `json:"token_problem,omitempty"`
}

// Permit reports whether the response grants access.
func (d DecisionResponse) Permit() bool { return d.Decision == DecisionPermit.String() }

// MaxBatchDecisionItems bounds how many (resource, action) pairs one batch
// decision query may carry, so a single signed request cannot monopolize
// the PDP.
const MaxBatchDecisionItems = 256

// BatchDecisionItem is one (realm, resource, action) pair inside a batch
// decision query. Token overrides the batch-level token when a single batch
// mixes grants; empty means "use BatchDecisionQuery.Token".
type BatchDecisionItem struct {
	Realm    RealmID    `json:"realm"`
	Resource ResourceID `json:"resource"`
	Action   Action     `json:"action"`
	Token    string     `json:"token,omitempty"`
}

// BatchDecisionQuery resolves many decision queries in one signed Host→AM
// round-trip — the batched form of Fig. 6. The AM validates the pairing and
// each distinct token once, then evaluates every item, so a Host rendering
// a page of N protected resources pays one round-trip instead of N.
type BatchDecisionQuery struct {
	PairingID string `json:"pairing_id"`
	Host      HostID `json:"host"`
	// Token is the default authorization token applied to items that do
	// not carry their own.
	Token string              `json:"token,omitempty"`
	Items []BatchDecisionItem `json:"items"`
}

// BatchDecisionResult is the per-item outcome of a batch decision query.
// Item-level failures (e.g. an unknown realm) set Error and deny without
// failing the whole batch.
type BatchDecisionResult struct {
	DecisionResponse
	Error string `json:"error,omitempty"`
}

// BatchDecisionResponse answers a BatchDecisionQuery; Results[i] corresponds
// to Items[i].
type BatchDecisionResponse struct {
	Results []BatchDecisionResult `json:"results"`
}

// InvalidationPush is the payload of a decision-cache invalidation event
// on the AM's invalidation stream (Section V.B.5). Realms and Resources
// scope the eviction to the
// cache entries a policy change can actually have affected; when both are
// empty every entry for Owner is dropped (the conservative form, used for
// group-membership changes which may affect any of the owner's policies).
type InvalidationPush struct {
	Owner     UserID       `json:"owner"`
	Realms    []RealmID    `json:"realms,omitempty"`
	Resources []ResourceID `json:"resources,omitempty"`
}

// ConsentStatus is returned when a Requester polls a pending-consent ticket.
type ConsentStatus struct {
	Ticket   string `json:"ticket"`
	Resolved bool   `json:"resolved"`
	Approved bool   `json:"approved"`
	// Token is present once Resolved && Approved.
	Token     string    `json:"token,omitempty"`
	ExpiresAt time.Time `json:"expires_at,omitempty"`
}

// PairExchangeRequest is the Host's code-for-secret exchange completing
// Fig. 3 (POST /v1/api/pair/exchange).
type PairExchangeRequest struct {
	Code string `json:"code"`
	Host HostID `json:"host"`
}

// LinkGeneralRequest binds a general policy to a realm
// (POST /v1/links/general). Owner defaults to the acting user.
type LinkGeneralRequest struct {
	Owner  UserID   `json:"owner,omitempty"`
	Realm  RealmID  `json:"realm"`
	Policy PolicyID `json:"policy"`
}

// LinkSpecificRequest binds a specific policy to one resource
// (POST /v1/links/specific).
type LinkSpecificRequest struct {
	Owner    UserID     `json:"owner,omitempty"`
	Host     HostID     `json:"host"`
	Resource ResourceID `json:"resource"`
	Policy   PolicyID   `json:"policy"`
}

// GroupMemberRequest adds a user to an owner's group
// (POST /v1/groups/{group}/members).
type GroupMemberRequest struct {
	Owner UserID `json:"owner,omitempty"`
	User  UserID `json:"user"`
}

// CustodianRequest appoints a custodian (POST /v1/custodians). Only the
// owner themselves may appoint.
type CustodianRequest struct {
	Custodian UserID `json:"custodian"`
}

// ConsentResolveRequest resolves a pending consent ticket
// (POST /v1/consents/{ticket}).
type ConsentResolveRequest struct {
	Approve bool `json:"approve"`
}

// PairingInfo is the redacted pairing record returned by the management
// listing API (GET /v1/pairings). The channel secret never appears — the
// struct has no field for it.
type PairingInfo struct {
	ID        string       `json:"id"`
	Host      HostID       `json:"host"`
	HostName  string       `json:"host_name"`
	HostURL   string       `json:"host_url"`
	User      UserID       `json:"user"`
	Scope     PairingScope `json:"scope"`
	Resources []ResourceID `json:"resources,omitempty"`
	CreatedAt time.Time    `json:"created_at"`
	Revoked   bool         `json:"revoked"`
}

// HealthStatus is the GET /v1/healthz body: liveness plus the state of
// the two subsystems whose degradation is invisible from outside — the
// backing store and the asynchronous audit pipeline.
type HealthStatus struct {
	Status string      `json:"status"`
	AM     string      `json:"am"`
	Store  StoreHealth `json:"store"`
	Audit  AuditHealth `json:"audit"`
	// Replication is present on nodes running with a replication role and
	// carries the WAL-shipping sync state (lag, connectivity).
	Replication *ReplicationHealth `json:"replication,omitempty"`
	// Abuse is present on nodes running with rate limits enabled and
	// carries the throttle gauges operators alert on.
	Abuse *AbuseHealth `json:"abuse,omitempty"`
}

// StoreHealth reports the datastore's durability state.
type StoreHealth struct {
	Durable  bool  `json:"durable"`
	WALBytes int64 `json:"wal_bytes"`
}

// AuditHealth reports the audit log and its asynchronous pipeline; Depth
// persistently near Cap means the log writer is the bottleneck. Events,
// Bytes and Segments describe what retention currently keeps; OldestSeq
// moves forward each time retention deletes the oldest segment. Failed is
// set once the log's segment file has failed for good (a failed fsync or
// an unrecoverable write); Dropped then counts the events whose write
// failed and every event recorded since, which is not kept. A restart is
// the only recovery.
type AuditHealth struct {
	Events        int    `json:"events"`
	PipelineDepth int    `json:"pipeline_depth"`
	PipelineCap   int    `json:"pipeline_capacity"`
	Bytes         int64  `json:"bytes"`
	Segments      int    `json:"segments"`
	OldestSeq     int64  `json:"oldest_seq"`
	Dropped       int64  `json:"dropped"`
	Failed        string `json:"failed,omitempty"`
}

// AbuseHealth is the rate-limiter gauge block on /v1/healthz and
// /v1/metrics: total admission/throttle counters, live bucket occupancy
// across every tier, and the share of all throttles charged to the single
// most-throttled key — near 1.0 means one tenant is absorbing the
// backpressure (isolation working), near 1/N means the limits are squeezing
// everyone (quotas undersized).
type AbuseHealth struct {
	// Allowed counts requests admitted by the limiter since start.
	Allowed int64 `json:"allowed"`
	// Throttled counts requests rejected with rate_limited since start.
	Throttled int64 `json:"throttled"`
	// Buckets is the live token-bucket count summed across tiers — one
	// bucket per distinct key seen (occupancy).
	Buckets int `json:"buckets"`
	// TopTenantShare is max-per-key throttles / total throttles (0 when
	// nothing was throttled).
	TopTenantShare float64 `json:"top_tenant_share"`
	// Tiers breaks the counters down per configured tier.
	Tiers map[string]AbuseTierHealth `json:"tiers,omitempty"`
}

// AbuseTierHealth is one tier's slice of the AbuseHealth counters.
type AbuseTierHealth struct {
	Allowed   int64 `json:"allowed"`
	Throttled int64 `json:"throttled"`
	Buckets   int   `json:"buckets"`
}

// Redirect parameter names used on the browser/Requester redirect legs.
// They appear in query strings, mirroring the redirect choreography of
// Figs. 3-5.
const (
	ParamAM        = "am"
	ParamHost      = "host"
	ParamRealm     = "realm"
	ParamResource  = "resource"
	ParamAction    = "action"
	ParamRequester = "requester"
	ParamSubject   = "subject"
	ParamReturnTo  = "return_to"
	ParamToken     = "token"
	ParamTicket    = "ticket"
	// ParamState is the Host's one-time pairing state on the Fig. 3
	// callback (OAuth's state parameter, RFC 6749 §10.12).
	ParamState = "state"
)

// Sentinel errors shared across components.
var (
	// ErrNoToken signals a protected access attempt without an
	// authorization token; the Host answers with a redirect to the AM.
	ErrNoToken = errors.New("core: no authorization token presented")
	// ErrTokenInvalid signals a malformed, forged or expired token.
	ErrTokenInvalid = errors.New("core: authorization token invalid")
	// ErrTokenScope signals a structurally valid token used outside the
	// (requester, realm) it was bound to.
	ErrTokenScope = errors.New("core: authorization token out of scope")
	// ErrAccessDenied is the terminal deny outcome.
	ErrAccessDenied = errors.New("core: access denied")
	// ErrNotPaired signals Host→AM traffic without an established pairing.
	ErrNotPaired = errors.New("core: host is not paired with this AM")
	// ErrUnknownRealm signals a decision query or token request for a realm
	// the AM does not protect.
	ErrUnknownRealm = errors.New("core: unknown realm")
	// ErrConsentPending signals that a token cannot be issued until the
	// user resolves a consent request.
	ErrConsentPending = errors.New("core: real-time consent pending")
	// ErrTermsRequired signals that the requester must present claims
	// satisfying the realm's terms.
	ErrTermsRequired = errors.New("core: terms must be satisfied")
	// ErrInternalFault marks infrastructure failures (WAL append, fsync,
	// commit-batch errors) whose cause belongs in the server log, not on
	// the wire: APIErrorFor maps anything wrapping it to code "internal"
	// (500), and the webutil sanitizer strips the message from the body.
	ErrInternalFault = errors.New("core: internal fault")
)
