// Package umac is the public facade of the user-managed access control
// library, a Go implementation of Machulak & van Moorsel, "Architecture and
// Protocol for User-Controlled Access Management in Web 2.0 Applications"
// (Newcastle CS-TR-1191 / ICDCS 2010).
//
// The system has four actors (Fig. 1 of the paper):
//
//   - a User owns resources scattered across Web applications;
//   - Hosts store those resources and enforce decisions (PEP);
//   - a user-chosen Authorization Manager (AM) stores the user's policies
//     centrally, decides access requests (PAP+PDP) and issues authorization
//     tokens;
//   - Requesters obtain tokens from the AM and present them to Hosts.
//
// Typical use:
//
//	// Run an Authorization Manager.
//	authMgr := umac.NewAM(umac.AMConfig{Name: "my-am"})
//	http.ListenAndServe(":8080", authMgr.Handler())
//
//	// Protect a Host application.
//	enforcer := umac.NewEnforcer(umac.EnforcerConfig{Host: "webpics"})
//	// ... pair via enforcer.BeginPairing / HandlePairCallback, then:
//	if enforcer.Require(w, r, owner, realm, resource, umac.ActionRead) {
//	    // serve the resource
//	}
//
//	// Access protected resources as a Requester.
//	client := umac.NewRequester(umac.RequesterConfig{ID: "my-app", Subject: "alice"})
//	data, err := client.Fetch(resourceURL, umac.ActionRead)
//
// The facade re-exports the protocol-level types from the internal
// packages; the full surface (policy engine, DSL, stores, baselines,
// prototype applications) lives under internal/ and is exercised by the
// examples and the benchmark harness.
package umac

import (
	"umac/internal/am"
	"umac/internal/amclient"
	"umac/internal/cluster"
	"umac/internal/core"
	"umac/internal/pep"
	"umac/internal/policy"
	"umac/internal/policylang"
	"umac/internal/requester"
	"umac/internal/store"
)

// Core protocol vocabulary.
type (
	// Action is an operation on a resource.
	Action = core.Action
	// Decision is a permit/deny outcome.
	Decision = core.Decision
	// UserID identifies a user.
	UserID = core.UserID
	// HostID identifies a Host application.
	HostID = core.HostID
	// RequesterID identifies a Requester application.
	RequesterID = core.RequesterID
	// RealmID identifies a protected group of resources.
	RealmID = core.RealmID
	// ResourceID identifies a resource within a Host.
	ResourceID = core.ResourceID
	// PolicyID identifies a stored policy.
	PolicyID = core.PolicyID
)

// Actions.
const (
	ActionRead   = core.ActionRead
	ActionWrite  = core.ActionWrite
	ActionDelete = core.ActionDelete
	ActionList   = core.ActionList
	ActionShare  = core.ActionShare
)

// Authorization Manager.
type (
	// AM is an Authorization Manager instance.
	AM = am.AM
	// AMConfig configures an AM.
	AMConfig = am.Config
	// Outbox is the simulated e-mail/SMS consent channel.
	Outbox = am.Outbox
	// ReplicationConfig selects an AM's role in a replicated deployment:
	// a primary streams its write-ahead log on /v1/replication/*, a
	// follower applies it and serves the read-only decision path.
	ReplicationConfig = am.ReplicationConfig
	// ReplicationRole is the primary/follower selector.
	ReplicationRole = am.ReplicationRole
	// AMAbuseConfig enables and sizes the AM's per-tenant token-bucket
	// rate limiter: per-pairing, per-session-user and per-remote-IP
	// budgets in route-cost units per second, each with a burst capacity.
	// Over-budget requests answer the structured rate_limited error (429,
	// retryable) with a Retry-After hint; the gauges surface on
	// /v1/healthz and /v1/metrics. The zero value disables the limiter.
	AMAbuseConfig = am.AbuseConfig
)

// Replication roles for ReplicationConfig.Role.
const (
	// RolePrimary serves writes and streams its WAL to followers.
	RolePrimary = am.RolePrimary
	// RoleFollower syncs from a primary and serves reads only.
	RoleFollower = am.RoleFollower
)

// Sharded cluster (consistent-hash owner sharding across replication
// groups).
type (
	// ClusterConfig places an AM in a sharded multi-primary cluster.
	ClusterConfig = am.ClusterConfig
	// ClusterRing is the consistent-hash owner ring of a sharded cluster.
	ClusterRing = cluster.Ring
	// ShardInfo names one shard: its name, primary URL and endpoints.
	ShardInfo = core.ShardInfo
	// AMClusterClient routes AM calls by resource owner across shards,
	// chasing wrong_shard hints once and failing over within each shard.
	AMClusterClient = amclient.ClusterClient
)

// NewClusterRing builds the owner ring every node and client of a sharded
// deployment shares; vnodes <= 0 selects the default (64 per shard).
func NewClusterRing(shards []ShardInfo, vnodes int) (*ClusterRing, error) {
	return cluster.New(shards, vnodes)
}

// ParseRingSpec parses the amserver -ring flag syntax
// ("name=primaryURL[|followerURL...]", comma-separated).
func ParseRingSpec(spec string) ([]ShardInfo, error) { return cluster.ParseSpec(spec) }

// NewAMClusterClient builds a shard-aware AM client: the configuration's
// BaseURL seeds the GET /v1/cluster ring fetch, and the remaining fields
// template the per-shard clients.
func NewAMClusterClient(cfg AMClientConfig) (*AMClusterClient, error) {
	return amclient.NewCluster(cfg)
}

// NewAM constructs an Authorization Manager.
func NewAM(cfg AMConfig) *AM { return am.New(cfg) }

// Typed AM API client.
type (
	// AMClient is the typed client for the AM's versioned v1 HTTP API:
	// every protocol and management route, with signed (Host) and
	// session (management) authentication built in. Errors are
	// *APIError values carrying stable machine-readable codes.
	AMClient = amclient.Client
	// AMClientConfig configures an AMClient.
	AMClientConfig = amclient.Config
	// Page selects a window of a paginated list endpoint.
	Page = amclient.Page
	// AuditFilter narrows an AMClient audit query.
	AuditFilter = amclient.AuditFilter
	// EventStream is a reconnecting subscription to an AM event endpoint:
	// it resumes from its cursor across drops and surfaces gaps as resync
	// events.
	EventStream = amclient.EventStream
	// StreamConfig configures an AMClient.Stream subscription.
	StreamConfig = amclient.StreamConfig
	// Event is one envelope on the AM's event control plane.
	Event = core.Event
	// EventType partitions the event control plane: invalidation, consent,
	// replication, resync.
	EventType = core.EventType
	// APIError is the structured error envelope of the v1 API.
	APIError = core.APIError
)

// NewAMClient constructs a typed AM API client.
func NewAMClient(cfg AMClientConfig) *AMClient { return amclient.New(cfg) }

// Host-side enforcement.
type (
	// Enforcer is a Host's policy enforcement point.
	Enforcer = pep.Enforcer
	// EnforcerConfig configures an Enforcer.
	EnforcerConfig = pep.Config
)

// NewEnforcer constructs a Host enforcer.
func NewEnforcer(cfg EnforcerConfig) *Enforcer { return pep.New(cfg) }

// Requester side.
type (
	// Requester is a protocol-aware HTTP client.
	Requester = requester.Client
	// RequesterConfig configures a Requester.
	RequesterConfig = requester.Config
)

// NewRequester constructs a Requester client.
func NewRequester(cfg RequesterConfig) *Requester { return requester.New(cfg) }

// Policies.
type (
	// Policy is an access-control policy.
	Policy = policy.Policy
	// Rule is one policy rule.
	Rule = policy.Rule
	// Subject is a rule subject.
	Subject = policy.Subject
	// Condition guards a rule.
	Condition = policy.Condition
)

// Policy kinds and effects.
const (
	KindGeneral  = policy.KindGeneral
	KindSpecific = policy.KindSpecific
	EffectPermit = policy.EffectPermit
	EffectDeny   = policy.EffectDeny
)

// ParsePolicies parses the textual policy DSL (see internal/policylang).
func ParsePolicies(owner UserID, src string) ([]Policy, error) {
	return policylang.Parse(owner, src)
}

// FormatPolicies renders policies in the textual DSL.
func FormatPolicies(policies []Policy) string {
	return policylang.Format(policies)
}

// Store is the sharded, WAL-backed datastore used for AM and Host state.
type Store = store.Store

// StoreOption customizes OpenStore (see StoreWithFsync, StoreWithWALPath).
type StoreOption = store.Option

// NewStore returns an empty memory-only datastore for AM state.
func NewStore() *Store { return store.New() }

// OpenStore opens a durable datastore rooted at path: the snapshot file is
// loaded if present, the write-ahead log beside it is replayed, and every
// subsequent write is logged before it is acknowledged. Snapshot(path)
// compacts the log; Close releases it.
func OpenStore(path string, opts ...StoreOption) (*Store, error) { return store.Open(path, opts...) }

// StoreWithFsync fsyncs the write-ahead log on every commit, extending the
// durability guarantee from "survives process kills" to "survives machine
// crashes". Concurrent writers are group-committed and share one fsync per
// batch, so the latency cost amortizes across them.
func StoreWithFsync() StoreOption { return store.WithFsync() }

// StoreWithWALPath roots the write-ahead log's segment files at an
// explicit path instead of "<state path>.wal".
func StoreWithWALPath(path string) StoreOption { return store.WithWALPath(path) }
