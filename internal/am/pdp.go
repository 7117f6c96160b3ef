package am

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"umac/internal/audit"
	"umac/internal/core"
	"umac/internal/policy"
	"umac/internal/token"
)

// This file is the policy decision point (PDP) and token service: the
// Fig. 5 token endpoint and the Fig. 6 decision endpoint.

// maxClaimBytes caps the claims a token request presents, counted as the
// token carries them: the JSON object of claim names and values. A permit
// signs the claims into the token, which then travels on every access, so
// outside input must not grow it without bound. With requester, subject,
// host and realm of up to 64 bytes each, a token minted at the cap stays
// within the 2 048 bytes a Host memoises the digest of.
const maxClaimBytes = 1024

// IssueToken evaluates a Requester's access request and, on permit, mints
// an authorization token bound to (requester, host, realm) — Fig. 5. The
// outcomes map to the paper's Section V.D extensions:
//
//   - permit              → TokenResponse with the token;
//   - consent required    → TokenResponse with PendingConsent (asynchronous
//     Requester↔AM interaction);
//   - terms unsatisfied   → TokenResponse listing RequiredTerms;
//   - deny                → core.ErrAccessDenied.
//
// Claims over maxClaimBytes are refused as bad_request.
func (a *AM) IssueToken(req core.TokenRequest) (core.TokenResponse, error) {
	if len(req.Claims) > 0 {
		// A map of strings always encodes.
		if b, _ := json.Marshal(req.Claims); len(b) > maxClaimBytes {
			return core.TokenResponse{}, core.APIErrorf(core.CodeBadRequest,
				"am: claims encode to %d bytes, over the %d-byte cap", len(b), maxClaimBytes)
		}
	}
	realm, err := a.LookupRealm(req.Host, req.Realm)
	if err != nil {
		return core.TokenResponse{}, err
	}
	release, err := a.gateOwner(realm.Owner)
	if err != nil {
		return core.TokenResponse{}, err
	}
	defer release()
	res := a.evaluate(req, realm, false)
	switch {
	case res.Decision == core.DecisionPermit:
		return a.grantToken(req, realm, false)
	case res.RequireConsent:
		ticket, err := a.openConsent(req, realm)
		if err != nil {
			return core.TokenResponse{}, err
		}
		return core.TokenResponse{PendingConsent: ticket}, nil
	case len(res.RequiredTerms) > 0:
		a.auditPipe.Enqueue(audit.Event{
			Type: audit.EventTokenRefused, Owner: realm.Owner, Host: req.Host,
			Realm: req.Realm, Resource: req.Resource, Requester: req.Requester,
			Subject: req.Subject, Action: req.Action,
			Detail: fmt.Sprintf("terms required: %v", res.RequiredTerms),
		})
		return core.TokenResponse{RequiredTerms: dedupe(res.RequiredTerms)}, nil
	default:
		a.auditPipe.Enqueue(audit.Event{
			Type: audit.EventTokenRefused, Owner: realm.Owner, Host: req.Host,
			Realm: req.Realm, Resource: req.Resource, Requester: req.Requester,
			Subject: req.Subject, Action: req.Action, Detail: res.Reason,
		})
		return core.TokenResponse{}, fmt.Errorf("%w: %s", core.ErrAccessDenied, res.Reason)
	}
}

// grantToken mints the token. The grant context a decision query
// re-evaluates under — the claims the Requester presented, and whether
// the owner consented — travels signed inside the token, so nothing is
// stored.
func (a *AM) grantToken(req core.TokenRequest, realm Realm, consent bool) (core.TokenResponse, error) {
	tok, claims, err := a.tokens.MintClaims(token.Claims{
		Requester: req.Requester, Subject: req.Subject, Host: req.Host, Realm: req.Realm,
		Terms: req.Claims, Consent: consent,
	})
	if err != nil {
		return core.TokenResponse{}, err
	}
	detail := claims.ID
	if consent {
		detail += " (consented)"
	}
	a.auditPipe.Enqueue(audit.Event{
		Type: audit.EventTokenIssued, Owner: realm.Owner, Host: req.Host,
		Realm: req.Realm, Resource: req.Resource, Requester: req.Requester,
		Subject: req.Subject, Action: req.Action, Detail: detail,
	})
	return core.TokenResponse{Token: tok, Realm: req.Realm, ExpiresAt: claims.ExpiresAt}, nil
}

// evaluate builds the policy request and runs the two-stage engine over
// the compiled decision index.
func (a *AM) evaluate(req core.TokenRequest, realm Realm, consent bool) policy.Result {
	return a.evaluateWith(req, realm, consent, a.compiledGeneral(realm.Owner, req.Realm))
}

// evaluateWith is evaluate with the realm's compiled general policy already
// resolved.
func (a *AM) evaluateWith(req core.TokenRequest, realm Realm, consent bool, general *policy.CompiledPolicy) policy.Result {
	preq := policy.Request{
		Subject:        req.Subject,
		Requester:      req.Requester,
		Action:         req.Action,
		Resource:       core.ResourceRef{Host: req.Host, Resource: req.Resource, Realm: req.Realm},
		Realm:          req.Realm,
		Owner:          realm.Owner,
		Claims:         req.Claims,
		ConsentGranted: consent,
	}
	// The compiled index resolves both links without touching the store on
	// a hit and hands the engine pre-filtered candidate rules per action.
	specific := a.compiledSpecific(realm.Owner, req.Host, req.Resource)
	return a.engine.EvaluateCompiled(preq, general, specific)
}

// decideCtx memoizes the lookups shared by the items of one batch decision
// query: realm resolution and its general policy, and token validation. A
// batch of N items for one page of resources typically carries one token
// and one realm, so the whole batch costs one validation and one realm
// fetch — and, each memo holding its first entry inline, no map at all.
type decideCtx struct {
	realms   memo[core.RealmID, realmLookup]
	generals memo[core.RealmID, *policy.CompiledPolicy]
	tokens   memo[string, tokenLookup]
}

// memo is a lookup cache whose first entry needs no allocation; a map is
// made only once a second distinct key appears.
type memo[K comparable, V any] struct {
	k0   K
	v0   V
	used bool
	more map[K]V
}

func (m *memo[K, V]) get(k K) (V, bool) {
	if m.used && m.k0 == k {
		return m.v0, true
	}
	v, ok := m.more[k]
	return v, ok
}

func (m *memo[K, V]) put(k K, v V) {
	if !m.used {
		m.k0, m.v0, m.used = k, v, true
		return
	}
	if m.more == nil {
		m.more = make(map[K]V)
	}
	m.more[k] = v
}

type realmLookup struct {
	realm Realm
	err   error
}

type tokenLookup struct {
	claims token.Claims
	err    error
}

func (a *AM) realmCached(ctx *decideCtx, host core.HostID, realm core.RealmID) (Realm, error) {
	if l, ok := ctx.realms.get(realm); ok {
		return l.realm, l.err
	}
	r, err := a.LookupRealm(host, realm)
	ctx.realms.put(realm, realmLookup{realm: r, err: err})
	return r, err
}

func (a *AM) generalCached(ctx *decideCtx, realm Realm, id core.RealmID) *policy.CompiledPolicy {
	if c, ok := ctx.generals.get(id); ok {
		return c
	}
	c := a.compiledGeneral(realm.Owner, id)
	ctx.generals.put(id, c)
	return c
}

func (a *AM) tokenCached(ctx *decideCtx, tok string) (token.Claims, error) {
	if l, ok := ctx.tokens.get(tok); ok {
		return l.claims, l.err
	}
	claims, err := a.tokens.Validate(tok)
	ctx.tokens.put(tok, tokenLookup{claims: claims, err: err})
	return claims, err
}

// Decide answers a Host's decision query — Fig. 6. The pairingID is the
// authenticated channel identity established by httpsig; the query is
// rejected unless the pairing's Host matches the query's Host.
func (a *AM) Decide(pairingID string, q core.DecisionQuery) (core.DecisionResponse, error) {
	pairing, err := a.GetPairing(pairingID)
	if err != nil {
		return core.DecisionResponse{}, err
	}
	return a.decide(pairing, q)
}

// decide is Decide for a pairing the caller has already read.
func (a *AM) decide(pairing Pairing, q core.DecisionQuery) (core.DecisionResponse, error) {
	if pairing.Host != q.Host {
		return core.DecisionResponse{}, fmt.Errorf("am: pairing %s belongs to host %q, query claims %q",
			pairing.ID, pairing.Host, q.Host)
	}
	var ctx decideCtx
	dec, ev, err := a.decideItem(&ctx, q)
	if err == nil {
		a.auditPipe.Enqueue(ev)
	}
	return dec, err
}

// DecideBatch answers a batched decision query — N Fig. 6 queries in one
// signed round-trip. The pairing is authenticated once; realm lookups and
// token validations are memoized across items, and the items' audit
// events go to the pipeline in one send. Item-level failures
// (unknown realm, storage errors) deny that item with Error set instead of
// failing the batch, so one bad item cannot veto a page load.
func (a *AM) DecideBatch(pairingID string, q core.BatchDecisionQuery) (core.BatchDecisionResponse, error) {
	pairing, err := a.GetPairing(pairingID)
	if err != nil {
		return core.BatchDecisionResponse{}, err
	}
	return a.decideBatch(pairing, q)
}

// decideBatch is DecideBatch for a pairing the caller has already read.
func (a *AM) decideBatch(pairing Pairing, q core.BatchDecisionQuery) (core.BatchDecisionResponse, error) {
	if len(q.Items) == 0 {
		return core.BatchDecisionResponse{}, fmt.Errorf("am: batch decision query carries no items")
	}
	if len(q.Items) > core.MaxBatchDecisionItems {
		return core.BatchDecisionResponse{}, fmt.Errorf("am: batch of %d items exceeds limit %d",
			len(q.Items), core.MaxBatchDecisionItems)
	}
	if pairing.Host != q.Host {
		return core.BatchDecisionResponse{}, fmt.Errorf("am: pairing %s belongs to host %q, query claims %q",
			pairing.ID, pairing.Host, q.Host)
	}
	var ctx decideCtx
	resp := core.BatchDecisionResponse{Results: make([]core.BatchDecisionResult, len(q.Items))}
	events := make([]audit.Event, 0, len(q.Items))
	for i, item := range q.Items {
		tok := item.Token
		if tok == "" {
			tok = q.Token
		}
		dec, ev, err := a.decideItem(&ctx, core.DecisionQuery{
			PairingID: pairing.ID,
			Host:      q.Host,
			Realm:     item.Realm,
			Resource:  item.Resource,
			Action:    item.Action,
			Token:     tok,
		})
		if err != nil {
			// wrong_shard vetoes the whole batch: the client must re-route
			// the page to the owning shard, and burying the routing hint in
			// an item-level string would hide it from the chase logic.
			var ae *core.APIError
			if errors.As(err, &ae) && ae.Code == core.CodeWrongShard {
				a.auditPipe.EnqueueBatch(events)
				return core.BatchDecisionResponse{}, err
			}
			resp.Results[i] = core.BatchDecisionResult{
				DecisionResponse: core.DecisionResponse{Decision: core.DecisionDeny.String()},
				Error:            err.Error(),
			}
			continue
		}
		resp.Results[i] = core.BatchDecisionResult{DecisionResponse: dec}
		events = append(events, ev)
	}
	a.auditPipe.EnqueueBatch(events)
	return resp, nil
}

// decideItem evaluates one decision query for an already-authenticated
// pairing and returns the decision's audit event for the caller to
// enqueue (an error carries none). ctx carries the batch-level
// memoization; single queries pass a fresh one.
func (a *AM) decideItem(ctx *decideCtx, q core.DecisionQuery) (core.DecisionResponse, audit.Event, error) {
	realm, err := a.realmCached(ctx, q.Host, q.Realm)
	if err != nil {
		return core.DecisionResponse{}, audit.Event{}, err
	}
	// A decision for a migrated-away owner must not be served from this
	// shard's (still-present, no-longer-authoritative) state: the client
	// chases the shard hint instead.
	if err := a.checkShard(realm.Owner); err != nil {
		return core.DecisionResponse{}, audit.Event{}, err
	}

	deny := func(reason string) (core.DecisionResponse, audit.Event, error) {
		return core.DecisionResponse{
			Decision:        core.DecisionDeny.String(),
			CacheTTLSeconds: 0, // denials from token problems are not cacheable
			Reason:          reason,
			TokenProblem:    true,
		}, decisionEvent(realm, q, "", core.DecisionDeny, reason), nil
	}

	claims, err := a.tokenCached(ctx, q.Token)
	if err != nil {
		if errors.Is(err, core.ErrTokenInvalid) {
			return deny("token invalid: " + err.Error())
		}
		return core.DecisionResponse{}, audit.Event{}, err
	}
	if err := token.CheckScope(claims, "", q.Host, q.Realm); err != nil {
		return deny("token out of scope: " + err.Error())
	}

	// Re-evaluate under the grant context the token carries (claims
	// presented, consent given), so the decision reproduces the conditions
	// under which the token was issued.
	req := core.TokenRequest{
		Requester: claims.Requester,
		Subject:   claims.Subject,
		Host:      q.Host,
		Realm:     q.Realm,
		Resource:  q.Resource,
		Action:    q.Action,
		Claims:    claims.Terms,
	}
	res := a.evaluateWith(req, realm, claims.Consent, a.generalCached(ctx, realm, q.Realm))
	decision := core.DecisionDeny
	if res.Decision == core.DecisionPermit {
		decision = core.DecisionPermit
	}
	return core.DecisionResponse{
		Decision:        decision.String(),
		CacheTTLSeconds: a.cacheTTLSeconds(res),
		Reason:          res.Reason,
	}, decisionEvent(realm, q, claims.Requester, decision, res.Reason), nil
}

// cacheTTLSeconds converts an engine result's caching directive into the
// wire form: policy TTL if set, AM default otherwise, 0 if the policy
// forbids caching.
func (a *AM) cacheTTLSeconds(res policy.Result) int {
	switch {
	case res.CacheTTLSeconds < 0:
		return 0
	case res.CacheTTLSeconds > 0:
		return res.CacheTTLSeconds
	default:
		return int(a.cacheTTL / time.Second)
	}
}

// decisionEvent is the audit record of one decision. Callers hand it to
// the asynchronous audit pipeline: the hot path pays one buffered-channel
// send (one per batch query) and the pipeline worker appends events to
// the log in batches, off the decision critical section. Readers
// (Audit(), the /audit endpoints) flush the pipeline first, so the log
// stays read-your-writes consistent.
func decisionEvent(realm Realm, q core.DecisionQuery, requester core.RequesterID, d core.Decision, reason string) audit.Event {
	return audit.Event{
		Type: audit.EventDecision, Owner: realm.Owner, Host: q.Host,
		Realm: q.Realm, Resource: q.Resource, Requester: requester,
		Action: q.Action, Decision: d.String(), Detail: reason,
	}
}

func dedupe(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
