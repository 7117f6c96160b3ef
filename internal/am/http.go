package am

import (
	"errors"
	"fmt"
	"html"
	"net/http"
	"net/url"
	"strings"

	"umac/internal/audit"
	"umac/internal/core"
	"umac/internal/httpsig"
	"umac/internal/policy"
	"umac/internal/webutil"
)

// APIVersionPrefix is the path prefix of the current API version. Every
// route is mounted under it and nowhere else.
const APIVersionPrefix = "/v1"

// RouteInfo describes one registered API route. The route-drift test
// asserts every entry is documented in docs/PROTOCOL.md.
type RouteInfo struct {
	Method string
	Path   string // including the /v1 prefix
}

// Handler returns the AM's versioned HTTP API; every route lives under /v1:
//
//	Browser-facing (authenticated via Config.Auth):
//	  GET    /v1/pair/confirm            Fig. 3 user-consent leg
//	  GET    /v1/compose                 Fig. 4 policy-composition page
//	  CRUD   /v1/policies, /v1/policies/{id}, /v1/policies/export, /v1/policies/import
//	  POST   /v1/links/general, /v1/links/specific (+ DELETE)
//	  CRUD   /v1/groups/{group}/members, /v1/custodians
//	  GET    /v1/audit, /v1/audit/summary
//	  GET    /v1/consents, POST /v1/consents/{ticket}
//	  GET    /v1/pairings, DELETE /v1/pairings/{id}
//
//	Requester-facing (unauthenticated; Fig. 5):
//	  POST   /v1/token
//	  GET    /v1/token/status
//
//	Host-facing (HMAC-signed with the pairing secret; Figs. 3/4/6):
//	  POST   /v1/api/pair/exchange       (one-time code, pre-secret: unsigned)
//	  POST   /v1/api/protect
//	  POST   /v1/api/decision
//	  POST   /v1/api/decision/batch
//
//	Replication (shared-secret bearer auth; primaries only):
//	  GET    /v1/replication/snapshot   follower bootstrap image
//	  GET    /v1/replication/wal        resumable WAL tail (long poll)
//
//	Event control plane (SSE; see events.go for the framing):
//	  GET    /v1/events                 session or repl-bearer subscription
//	  GET    /v1/events/consent        ticket-capability consent stream
//	  GET    /v1/events/invalidation  pairing-signed invalidation stream
//
//	Operational (unauthenticated):
//	  GET    /v1/healthz, /v1/readyz, /v1/metrics
//
// On a follower (Config.Replication.Role == RoleFollower) every mutating
// route answers the structured not_primary error with a leader hint; the
// decision family and all reads keep serving from replicated state.
//
// Every route runs inside the shared middleware stack: request-ID
// injection, panic recovery, and per-route latency/status counters
// (exposed on GET /v1/metrics). All errors are the structured
// core.APIError envelope. See docs/PROTOCOL.md for the full reference.
func (a *AM) Handler() http.Handler {
	verifier := httpsig.NewVerifier(a)
	// metrics and routes are locals closed over by this handler's own
	// endpoints, so a second Handler() call cannot zero or race a live
	// handler's counters; the AM fields only back Routes() (drift test).
	metrics := webutil.NewMetrics()
	var routes []RouteInfo
	mux := http.NewServeMux()

	// reg mounts h under "method /v1<path>" inside its route's metrics.
	reg := func(method, path string, h http.Handler) {
		pattern := method + " " + APIVersionPrefix + path
		mux.Handle(pattern, metrics.Instrument(pattern, h))
		routes = append(routes, RouteInfo{Method: method, Path: APIVersionPrefix + path})
	}

	// Mutating routes additionally pass through a.primaryOnly, so a
	// read-only follower rejects them with the structured not_primary
	// error (leader hint included) before authentication runs. The
	// decision family and all GET reads stay open on followers.
	//
	// Admission control (ratelimit.go) runs inside the auth wrappers —
	// signed and authed charge their verified identity's bucket, and the
	// unauthenticated public routes are wrapped in the per-remote-IP tier.
	// Costs are the route's cost class: decisions cheap, PAP mutations
	// heavy, import/export/audit/consent heaviest. Operational probes and
	// the replication-secret admin surface are never limited.

	// --- Host-facing API ---
	reg("POST", "/api/pair/exchange", a.primaryOnly(a.ipLimited(costMutation, http.HandlerFunc(a.handlePairExchange))))
	reg("POST", "/api/protect", a.primaryOnly(a.signed(verifier, costMutation, a.handleProtect)))
	reg("POST", "/api/decision", a.signed(verifier, costDecision, a.handleDecision))
	reg("POST", "/api/decision/batch", a.signed(verifier, costDecision, a.handleDecisionBatch))

	// --- Requester-facing ---
	reg("POST", "/token", a.primaryOnly(a.ipLimited(costMutation, http.HandlerFunc(a.handleToken))))
	reg("GET", "/token/status", a.ipLimited(costDecision, http.HandlerFunc(a.handleTokenStatus)))

	// --- Browser-facing ---
	reg("GET", "/pair/confirm", a.primaryOnly(a.authed(costMutation, a.handlePairConfirm)))
	reg("GET", "/compose", a.authed(costRead, a.handleComposePage))

	reg("GET", "/policies", a.authed(costRead, a.handlePolicyList))
	reg("POST", "/policies", a.primaryOnly(a.authed(costMutation, a.handlePolicyCreate)))
	reg("GET", "/policies/export", a.authed(costExpensive, a.handlePolicyExport))
	reg("POST", "/policies/import", a.primaryOnly(a.authed(costExpensive, a.handlePolicyImport)))
	reg("GET", "/policies/{id}", a.authed(costRead, a.handlePolicyGet))
	reg("PUT", "/policies/{id}", a.primaryOnly(a.authed(costMutation, a.handlePolicyUpdate)))
	reg("DELETE", "/policies/{id}", a.primaryOnly(a.authed(costMutation, a.handlePolicyDelete)))

	reg("POST", "/links/general", a.primaryOnly(a.authed(costMutation, a.handleLinkGeneral)))
	reg("POST", "/links/specific", a.primaryOnly(a.authed(costMutation, a.handleLinkSpecific)))
	reg("DELETE", "/links/general", a.primaryOnly(a.authed(costMutation, a.handleUnlinkGeneral)))
	reg("DELETE", "/links/specific", a.primaryOnly(a.authed(costMutation, a.handleUnlinkSpecific)))

	reg("GET", "/groups", a.authed(costRead, a.handleGroupList))
	reg("GET", "/groups/{group}/members", a.authed(costRead, a.handleGroupMembers))
	reg("POST", "/groups/{group}/members", a.primaryOnly(a.authed(costMutation, a.handleGroupAdd)))
	reg("DELETE", "/groups/{group}/members/{user}", a.primaryOnly(a.authed(costMutation, a.handleGroupRemove)))

	reg("GET", "/custodians", a.authed(costRead, a.handleCustodianList))
	reg("POST", "/custodians", a.primaryOnly(a.authed(costMutation, a.handleCustodianAdd)))
	reg("DELETE", "/custodians/{user}", a.primaryOnly(a.authed(costMutation, a.handleCustodianRemove)))

	reg("GET", "/audit", a.authed(costExpensive, a.handleAudit))
	reg("GET", "/audit/summary", a.authed(costExpensive, a.handleAuditSummary))

	reg("GET", "/consents", a.authed(costRead, a.handleConsentList))
	reg("POST", "/consents/{ticket}", a.primaryOnly(a.authed(costExpensive, a.handleConsentResolve)))

	reg("GET", "/pairings", a.authed(costRead, a.handlePairingList))
	reg("DELETE", "/pairings/{id}", a.primaryOnly(a.authed(costMutation, a.handlePairingRevoke)))

	// --- Replication (primary → follower WAL shipping) ---
	// Authenticated by the shared replication secret, not by user sessions
	// or pairings.
	reg("GET", "/replication/snapshot", a.replAuthed(a.handleReplSnapshot))
	reg("GET", "/replication/wal", a.replAuthed(a.handleReplWAL))

	// --- Cluster (consistent-hash owner sharding) ---
	// The topology probe is open like healthz; the migration admin routes
	// share the replication secret's bearer auth.
	reg("GET", "/cluster", http.HandlerFunc(a.handleClusterInfo))
	reg("PUT", "/cluster/ring", a.replAuthed(a.handleRingUpdate))
	reg("GET", "/cluster/owners", a.replAuthed(a.handleOwnerStats))
	reg("PUT", "/cluster/owners/{owner}", a.replAuthed(a.handleOwnerOverride))
	reg("DELETE", "/cluster/owners/{owner}", a.replAuthed(a.handleOwnerOverrideClear))
	reg("POST", "/cluster/import", a.replAuthed(a.handleClusterImport))

	// --- Rebalance (the self-rebalancing coordinator; see rebalance.go) ---
	// Replication-secret bearer auth: starting, watching and aborting a
	// bulk owner migration are operator actions on the same trust level as
	// the migration routes the coordinator drives.
	reg("POST", "/rebalance", a.replAuthed(a.handleRebalanceStart))
	reg("GET", "/rebalance", a.replAuthed(a.handleRebalanceStatus))
	reg("DELETE", "/rebalance", a.replAuthed(a.handleRebalanceAbort))

	// --- Event control plane (SSE) ---
	// One server-push surface for invalidation, consent and replication
	// signals; each route authenticates for its audience (session or repl
	// bearer / consent ticket capability / pairing HMAC). /events
	// authenticates internally (session or repl bearer) and stays
	// unlimited — follower tailing must never be throttled; the public
	// consent stream rides the IP tier, the invalidation stream its
	// pairing's bucket (one charge per subscription, not per event).
	reg("GET", "/events", http.HandlerFunc(a.handleEvents))
	reg("GET", "/events/consent", a.ipLimited(costMutation, http.HandlerFunc(a.handleEventsConsent)))
	reg("GET", "/events/invalidation", a.signed(verifier, costMutation, a.handleEventsInvalidation))

	// --- Operational ---
	reg("GET", "/healthz", http.HandlerFunc(a.handleHealthz))
	reg("GET", "/readyz", http.HandlerFunc(a.handleReadyz))
	reg("GET", "/metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		eventsHealth := a.broker.Health()
		body := metricsBody{
			AM:              a.name,
			Replication:     a.ReplicationHealth(),
			Events:          &eventsHealth,
			Cluster:         a.ClusterHealth(),
			Abuse:           a.AbuseHealth(),
			MetricsSnapshot: metrics.Snapshot(),
		}
		if a.rebal != nil {
			if st := a.rebal.Status(); st.State != "" {
				body.Rebalance = &st
			}
		}
		webutil.WriteJSON(w, http.StatusOK, body)
	}))

	a.mu.Lock()
	a.routes = routes
	a.mu.Unlock()
	return webutil.RequestID(webutil.Recover(mux))
}

// Routes returns the route table the last Handler call registered. The
// route-drift test keeps it in lockstep with docs/PROTOCOL.md.
func (a *AM) Routes() []RouteInfo {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.routes
}

// authedHandler receives the authenticated actor.
type authedHandler func(w http.ResponseWriter, r *http.Request, actor core.UserID)

// authed wraps browser endpoints with authentication, then charges cost
// against the authenticated user's session-tier bucket.
func (a *AM) authed(cost float64, h authedHandler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		actor, ok := a.auth.Authenticate(r)
		if !ok {
			webutil.FailCode(w, r, core.CodeUnauthenticated, "am: authentication required")
			return
		}
		if !a.allow(w, r, tierSession, string(actor), cost) {
			return
		}
		h(w, r, actor)
	})
}

// signedHandler receives a verified signed request: its pairing, read
// once, and its body, read once and valid until the handler returns.
type signedHandler func(w http.ResponseWriter, r *http.Request, p Pairing, body []byte)

// signed wraps Host-facing endpoints with HMAC channel verification, then
// charges cost against the verified pairing's bucket. The body is read
// first, capped at webutil.MaxBodyBytes, so an oversized one is answered
// request_too_large before anything else is read; verification runs before
// the charge, so a forged signature cannot drain a tenant's budget.
func (a *AM) signed(v *httpsig.Verifier, cost float64, h signedHandler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		buf := bodyPool.Get().(*[]byte)
		defer putBody(buf)
		body, err := webutil.ReadBody((*buf)[:0], r)
		*buf = body
		if err != nil {
			webutil.Fail(w, r, err)
			return
		}
		p, err := a.channelPairing(r.Header.Get(httpsig.HeaderPairing))
		if err == nil {
			err = v.VerifyBody(r, p.Secret, body)
		}
		if err != nil {
			code := core.CodeSignatureInvalid
			if errors.Is(err, httpsig.ErrReplay) {
				code = core.CodeSignatureReplay
			}
			webutil.FailCode(w, r, code, "%s", err.Error())
			return
		}
		if !a.allow(w, r, tierPairing, p.ID, cost) {
			return
		}
		h(w, r, p, body)
	})
}

// failOp answers an operation error under the given caller-fault code —
// unless the error chain carries core.ErrInternalFault, which is not the
// caller's doing and must ride the sanitizing 500 funnel instead of
// leaking its cause inside a 4xx envelope.
func failOp(w http.ResponseWriter, r *http.Request, code string, err error) {
	if errors.Is(err, core.ErrInternalFault) {
		webutil.Fail(w, r, err)
		return
	}
	webutil.FailCode(w, r, code, "%s", err.Error())
}

// ownerParam resolves the owner an actor is operating on: the explicit
// ?owner= query value, defaulting to the actor. Management rights are
// verified.
func (a *AM) ownerParam(r *http.Request, actor core.UserID) (core.UserID, error) {
	owner := core.UserID(r.FormValue("owner"))
	if owner == "" {
		owner = actor
	}
	if !a.CanManage(owner, actor) {
		return "", core.APIErrorf(core.CodeForbidden, "am: %s may not manage %s", actor, owner)
	}
	return owner, nil
}

// --- Operational handlers ---

func (a *AM) handleHealthz(w http.ResponseWriter, r *http.Request) {
	auditHealth := a.audit.Health()
	auditHealth.PipelineDepth = a.auditPipe.Depth()
	auditHealth.PipelineCap = a.auditPipe.Capacity()
	webutil.WriteJSON(w, http.StatusOK, core.HealthStatus{
		Status: "ok",
		AM:     a.name,
		Store: core.StoreHealth{
			Durable:  a.store.Durable(),
			WALBytes: a.store.WALSize(),
		},
		Audit:       auditHealth,
		Replication: a.ReplicationHealth(),
		Abuse:       a.AbuseHealth(),
	})
}

// handleReadyz is the load-balancer readiness probe: 200 while serving,
// 503 (code "unavailable", retryable) once SetDraining(true) — so an LB
// stops routing new traffic while in-flight requests finish.
func (a *AM) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if a.draining.Load() {
		webutil.FailCode(w, r, core.CodeUnavailable, "am: %s is draining", a.name)
		return
	}
	webutil.WriteJSON(w, http.StatusOK, map[string]any{"ready": true, "am": a.name})
}

// metricsBody is the GET /v1/metrics response.
type metricsBody struct {
	AM          string                  `json:"am"`
	Replication *core.ReplicationHealth `json:"replication,omitempty"`
	Events      *core.EventsHealth      `json:"events,omitempty"`
	// Cluster carries the shard's owner-load gauges (sharded nodes only):
	// the data the rebalance planner diffs and operators alert on.
	Cluster *core.ClusterHealth `json:"cluster,omitempty"`
	// Rebalance is the embedded coordinator's progress, present once a
	// plan has run on this node.
	Rebalance *core.RebalanceStatus `json:"rebalance,omitempty"`
	// Abuse carries the rate-limiter throttle gauges (present only when
	// abuse controls are enabled).
	Abuse *core.AbuseHealth `json:"abuse,omitempty"`
	webutil.MetricsSnapshot
}

// --- Pairing handlers ---

func (a *AM) handlePairConfirm(w http.ResponseWriter, r *http.Request, actor core.UserID) {
	q := r.URL.Query()
	req := core.PairingRequest{
		Host:     core.HostID(q.Get(core.ParamHost)),
		HostName: q.Get("host_name"),
		HostURL:  q.Get("host_url"),
		User:     actor,
	}
	switch q.Get("scope") {
	case "application":
		req.Scope = core.PairingScopeApplication
	case "resources":
		req.Scope = core.PairingScopeResources
		for _, res := range q[core.ParamResource] {
			req.Resources = append(req.Resources, core.ResourceID(res))
		}
	default:
		req.Scope = core.PairingScopeUser
	}
	returnTo := q.Get(core.ParamReturnTo)
	code, err := a.ApprovePairing(req)
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	if returnTo == "" {
		webutil.WriteJSON(w, http.StatusOK, map[string]string{"code": code})
		return
	}
	u, err := url.Parse(returnTo)
	if err != nil {
		webutil.FailCode(w, r, core.CodeBadRequest, "am: bad return_to")
		return
	}
	uq := u.Query()
	uq.Set("code", code)
	u.RawQuery = uq.Encode()
	http.Redirect(w, r, u.String(), http.StatusFound)
}

func (a *AM) handlePairExchange(w http.ResponseWriter, r *http.Request) {
	var req core.PairExchangeRequest
	if err := webutil.ReadJSON(r, &req); err != nil {
		webutil.Fail(w, r, err)
		return
	}
	resp, err := a.ExchangeCode(req.Code, req.Host)
	if err != nil {
		failOp(w, r, core.CodePairingCodeInvalid, err)
		return
	}
	webutil.WriteJSON(w, http.StatusOK, resp)
}

func (a *AM) handlePairingList(w http.ResponseWriter, r *http.Request, actor core.UserID) {
	owner, err := a.ownerParam(r, actor)
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	offset, limit, err := webutil.ParsePage(r)
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	// Serve the declared wire struct (core.PairingInfo), which has no
	// secret field at all — the channel secret cannot leak through the
	// listing API even by omission.
	pairings := a.Pairings(owner)
	infos := make([]core.PairingInfo, len(pairings))
	for i, p := range pairings {
		infos[i] = core.PairingInfo{
			ID:        p.ID,
			Host:      p.Host,
			HostName:  p.HostName,
			HostURL:   p.HostURL,
			User:      p.User,
			Scope:     p.Scope,
			Resources: p.Resources,
			CreatedAt: p.CreatedAt,
			Revoked:   p.Revoked,
		}
	}
	webutil.WritePage(w, http.StatusOK, infos, len(infos), offset, limit)
}

func (a *AM) handlePairingRevoke(w http.ResponseWriter, r *http.Request, actor core.UserID) {
	id := r.PathValue("id")
	p, err := a.GetPairing(id)
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	if !a.CanManage(p.User, actor) {
		webutil.FailCode(w, r, core.CodeForbidden, "am: %s may not revoke pairing of %s", actor, p.User)
		return
	}
	if err := a.RevokePairing(id); err != nil {
		webutil.Fail(w, r, err)
		return
	}
	webutil.WriteJSON(w, http.StatusOK, map[string]string{"revoked": id})
}

// --- Host API handlers ---

func (a *AM) handleProtect(w http.ResponseWriter, r *http.Request, p Pairing, body []byte) {
	var req core.ProtectRequest
	if err := webutil.DecodeJSON(body, &req); err != nil {
		webutil.Fail(w, r, err)
		return
	}
	resp, err := a.RegisterRealm(p.ID, req)
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	webutil.WriteJSON(w, http.StatusOK, resp)
}

func (a *AM) handleDecision(w http.ResponseWriter, r *http.Request, p Pairing, body []byte) {
	var q core.DecisionQuery
	if err := q.DecodeJSON(body); err != nil {
		webutil.Fail(w, r, err)
		return
	}
	resp, err := a.decide(p, q)
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	writeDecision(w, &resp)
}

func (a *AM) handleDecisionBatch(w http.ResponseWriter, r *http.Request, p Pairing, body []byte) {
	items := itemsPool.Get().(*[]core.BatchDecisionItem)
	q := core.BatchDecisionQuery{Items: *items}
	defer func() {
		if cap(q.Items) > cap(*items) {
			*items = q.Items[:0]
		}
		// Pool the array without pinning this body's strings.
		clear((*items)[:cap(*items)])
		if cap(*items) <= core.MaxBatchDecisionItems {
			itemsPool.Put(items)
		}
	}()
	if err := q.DecodeJSON(body); err != nil {
		webutil.Fail(w, r, err)
		return
	}
	resp, err := a.decideBatch(p, q)
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	writeDecision(w, &resp)
}

// --- Requester handlers ---

func (a *AM) handleToken(w http.ResponseWriter, r *http.Request) {
	var req core.TokenRequest
	if err := webutil.ReadJSON(r, &req); err != nil {
		webutil.Fail(w, r, err)
		return
	}
	resp, err := a.IssueToken(req)
	switch {
	case err != nil:
		webutil.Fail(w, r, err)
	case resp.Pending():
		// 202: the request is accepted but the token is not ready —
		// consent pending or terms outstanding (asynchronous flow).
		webutil.WriteJSON(w, http.StatusAccepted, resp)
	default:
		webutil.WriteJSON(w, http.StatusOK, resp)
	}
}

func (a *AM) handleTokenStatus(w http.ResponseWriter, r *http.Request) {
	st, err := a.ConsentStatus(r.FormValue(core.ParamTicket))
	if err != nil {
		failOp(w, r, core.CodeNotFound, err)
		return
	}
	webutil.WriteJSON(w, http.StatusOK, st)
}

// --- Policy handlers ---

func (a *AM) handlePolicyList(w http.ResponseWriter, r *http.Request, actor core.UserID) {
	owner, err := a.ownerParam(r, actor)
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	offset, limit, err := webutil.ParsePage(r)
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	policies := a.ListPolicies(owner)
	webutil.WritePage(w, http.StatusOK, policies, len(policies), offset, limit)
}

func (a *AM) handlePolicyCreate(w http.ResponseWriter, r *http.Request, actor core.UserID) {
	var p policy.Policy
	if err := webutil.ReadJSONLoose(r, &p); err != nil {
		webutil.Fail(w, r, err)
		return
	}
	if p.Owner == "" {
		p.Owner = actor
	}
	created, err := a.CreatePolicy(actor, p)
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	webutil.WriteJSON(w, http.StatusCreated, created)
}

func (a *AM) handlePolicyGet(w http.ResponseWriter, r *http.Request, actor core.UserID) {
	p, err := a.GetPolicy(core.PolicyID(r.PathValue("id")))
	if err != nil {
		failOp(w, r, core.CodeNotFound, err)
		return
	}
	if !a.CanManage(p.Owner, actor) {
		webutil.FailCode(w, r, core.CodeForbidden, "am: %s may not view policies of %s", actor, p.Owner)
		return
	}
	webutil.WriteJSON(w, http.StatusOK, p)
}

func (a *AM) handlePolicyUpdate(w http.ResponseWriter, r *http.Request, actor core.UserID) {
	var p policy.Policy
	if err := webutil.ReadJSONLoose(r, &p); err != nil {
		webutil.Fail(w, r, err)
		return
	}
	p.ID = core.PolicyID(r.PathValue("id"))
	if err := a.UpdatePolicy(actor, p); err != nil {
		webutil.Fail(w, r, err)
		return
	}
	webutil.WriteJSON(w, http.StatusOK, p)
}

func (a *AM) handlePolicyDelete(w http.ResponseWriter, r *http.Request, actor core.UserID) {
	if err := a.DeletePolicy(actor, core.PolicyID(r.PathValue("id"))); err != nil {
		webutil.Fail(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (a *AM) handlePolicyExport(w http.ResponseWriter, r *http.Request, actor core.UserID) {
	owner, err := a.ownerParam(r, actor)
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	format, err := policy.ParseFormat(formatParam(r))
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	w.Header().Set("Content-Type", format.ContentType())
	if err := a.ExportPolicies(w, owner, format); err != nil {
		// Headers are gone; nothing more we can do than log via audit.
		return
	}
}

func (a *AM) handlePolicyImport(w http.ResponseWriter, r *http.Request, actor core.UserID) {
	owner, err := a.ownerParam(r, actor)
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	format, err := policy.ParseFormat(formatParam(r))
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	// The import stream bypasses ReadJSON, so it needs its own size cap;
	// an over-cap read surfaces as *http.MaxBytesError through the policy
	// codec's %w chain and maps to request_too_large in webutil.Fail.
	n, err := a.ImportPolicies(actor, owner, http.MaxBytesReader(w, r.Body, webutil.MaxBodyBytes), format)
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	webutil.WriteJSON(w, http.StatusOK, map[string]int{"imported": n})
}

// formatParam reads the serialization format from ?format= or Content-Type.
func formatParam(r *http.Request) string {
	if f := r.URL.Query().Get("format"); f != "" {
		return f
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		return ct
	}
	return "json"
}

// --- Link handlers ---

func (a *AM) handleLinkGeneral(w http.ResponseWriter, r *http.Request, actor core.UserID) {
	var req core.LinkGeneralRequest
	if err := webutil.ReadJSON(r, &req); err != nil {
		webutil.Fail(w, r, err)
		return
	}
	owner := req.Owner
	if owner == "" {
		owner = actor
	}
	if !a.CanManage(owner, actor) {
		webutil.FailCode(w, r, core.CodeForbidden, "am: %s may not manage %s", actor, owner)
		return
	}
	if err := a.LinkGeneral(owner, req.Realm, req.Policy); err != nil {
		webutil.Fail(w, r, err)
		return
	}
	webutil.WriteJSON(w, http.StatusOK, map[string]string{"linked": string(req.Realm)})
}

func (a *AM) handleLinkSpecific(w http.ResponseWriter, r *http.Request, actor core.UserID) {
	var req core.LinkSpecificRequest
	if err := webutil.ReadJSON(r, &req); err != nil {
		webutil.Fail(w, r, err)
		return
	}
	owner := req.Owner
	if owner == "" {
		owner = actor
	}
	if !a.CanManage(owner, actor) {
		webutil.FailCode(w, r, core.CodeForbidden, "am: %s may not manage %s", actor, owner)
		return
	}
	if err := a.LinkSpecific(owner, req.Host, req.Resource, req.Policy); err != nil {
		webutil.Fail(w, r, err)
		return
	}
	webutil.WriteJSON(w, http.StatusOK, map[string]string{"linked": string(req.Resource)})
}

func (a *AM) handleUnlinkGeneral(w http.ResponseWriter, r *http.Request, actor core.UserID) {
	owner, err := a.ownerParam(r, actor)
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	if err := a.UnlinkGeneral(owner, core.RealmID(r.FormValue(core.ParamRealm))); err != nil {
		failOp(w, r, core.CodeNotFound, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (a *AM) handleUnlinkSpecific(w http.ResponseWriter, r *http.Request, actor core.UserID) {
	owner, err := a.ownerParam(r, actor)
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	err = a.UnlinkSpecific(owner,
		core.HostID(r.FormValue(core.ParamHost)),
		core.ResourceID(r.FormValue(core.ParamResource)))
	if err != nil {
		failOp(w, r, core.CodeNotFound, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- Group handlers ---

func (a *AM) handleGroupList(w http.ResponseWriter, r *http.Request, actor core.UserID) {
	owner, err := a.ownerParam(r, actor)
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	webutil.WriteJSON(w, http.StatusOK, a.Groups(owner))
}

func (a *AM) handleGroupMembers(w http.ResponseWriter, r *http.Request, actor core.UserID) {
	owner, err := a.ownerParam(r, actor)
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	webutil.WriteJSON(w, http.StatusOK, a.GroupMembers(owner, r.PathValue("group")))
}

func (a *AM) handleGroupAdd(w http.ResponseWriter, r *http.Request, actor core.UserID) {
	var req core.GroupMemberRequest
	if err := webutil.ReadJSON(r, &req); err != nil {
		webutil.Fail(w, r, err)
		return
	}
	owner := req.Owner
	if owner == "" {
		owner = actor
	}
	if err := a.AddGroupMember(actor, owner, r.PathValue("group"), req.User); err != nil {
		failOp(w, r, core.CodeForbidden, err)
		return
	}
	webutil.WriteJSON(w, http.StatusOK, a.GroupMembers(owner, r.PathValue("group")))
}

func (a *AM) handleGroupRemove(w http.ResponseWriter, r *http.Request, actor core.UserID) {
	owner, err := a.ownerParam(r, actor)
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	if err := a.RemoveGroupMember(actor, owner, r.PathValue("group"), core.UserID(r.PathValue("user"))); err != nil {
		failOp(w, r, core.CodeForbidden, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- Custodian handlers ---

func (a *AM) handleCustodianList(w http.ResponseWriter, r *http.Request, actor core.UserID) {
	owner, err := a.ownerParam(r, actor)
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	webutil.WriteJSON(w, http.StatusOK, a.Custodians(owner))
}

func (a *AM) handleCustodianAdd(w http.ResponseWriter, r *http.Request, actor core.UserID) {
	var req core.CustodianRequest
	if err := webutil.ReadJSON(r, &req); err != nil {
		webutil.Fail(w, r, err)
		return
	}
	// Only the owner themselves may appoint custodians.
	if err := a.AddCustodian(actor, req.Custodian); err != nil {
		webutil.Fail(w, r, err)
		return
	}
	webutil.WriteJSON(w, http.StatusOK, a.Custodians(actor))
}

func (a *AM) handleCustodianRemove(w http.ResponseWriter, r *http.Request, actor core.UserID) {
	if err := a.RemoveCustodian(actor, core.UserID(r.PathValue("user"))); err != nil {
		webutil.Fail(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- Audit handlers ---

func (a *AM) handleAudit(w http.ResponseWriter, r *http.Request, actor core.UserID) {
	owner, err := a.ownerParam(r, actor)
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	offset, limit, err := webutil.ParsePage(r)
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	f := audit.Filter{
		Owner:     owner,
		Host:      core.HostID(r.FormValue(core.ParamHost)),
		Realm:     core.RealmID(r.FormValue(core.ParamRealm)),
		Requester: core.RequesterID(r.FormValue(core.ParamRequester)),
		Type:      audit.EventType(r.FormValue("type")),
	}
	// QueryPage windows at the source (one pass, page-sized allocation);
	// the frame headers are computed from the request offset.
	events, total := a.Audit().QueryPage(f, offset, limit)
	webutil.WritePageFrame(w, http.StatusOK, events, total, offset)
}

func (a *AM) handleAuditSummary(w http.ResponseWriter, r *http.Request, actor core.UserID) {
	owner, err := a.ownerParam(r, actor)
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	webutil.WriteJSON(w, http.StatusOK, a.Audit().Summarize(owner))
}

// --- Consent handlers ---

func (a *AM) handleConsentList(w http.ResponseWriter, r *http.Request, actor core.UserID) {
	owner, err := a.ownerParam(r, actor)
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	offset, limit, err := webutil.ParsePage(r)
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	pending := a.PendingConsents(owner)
	webutil.WritePage(w, http.StatusOK, pending, len(pending), offset, limit)
}

func (a *AM) handleConsentResolve(w http.ResponseWriter, r *http.Request, actor core.UserID) {
	var req core.ConsentResolveRequest
	if err := webutil.ReadJSON(r, &req); err != nil {
		webutil.Fail(w, r, err)
		return
	}
	if err := a.ResolveConsent(actor, r.PathValue("ticket"), req.Approve); err != nil {
		webutil.Fail(w, r, err)
		return
	}
	webutil.WriteJSON(w, http.StatusOK, map[string]bool{"approved": req.Approve})
}

// --- Compose page (Fig. 4) ---

// handleComposePage renders the policy-composition landing page a user
// reaches when redirected from a Host's "share" control. It lists the
// user's policies so one can be linked to the realm the Host supplied.
// Programmatic clients use POST /v1/links/general instead.
func (a *AM) handleComposePage(w http.ResponseWriter, r *http.Request, actor core.UserID) {
	q := r.URL.Query()
	host := q.Get(core.ParamHost)
	realm := q.Get(core.ParamRealm)
	var b strings.Builder
	fmt.Fprintf(&b, "<!doctype html><title>%s — compose policy</title>", html.EscapeString(a.name))
	fmt.Fprintf(&b, "<h1>Protect %s at %s</h1>", html.EscapeString(realm), html.EscapeString(host))
	fmt.Fprintf(&b, "<p>Signed in as %s.</p><h2>Your policies</h2><ul>", html.EscapeString(string(actor)))
	for _, p := range a.ListPolicies(actor) {
		fmt.Fprintf(&b, "<li>%s (%s, %d rules)</li>",
			html.EscapeString(string(p.ID)), html.EscapeString(p.Kind.String()), len(p.Rules))
	}
	b.WriteString("</ul><p>Link a policy via POST /v1/links/general.</p>")
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, b.String())
}
