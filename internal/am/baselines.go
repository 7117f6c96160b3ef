package am

import (
	"fmt"
	"time"

	"umac/internal/audit"
	"umac/internal/core"
)

// This file implements the two protocol variants the paper positions itself
// against (Section VIII), so the benchmark harness can compare them on the
// same AM, the same policies and the same workload:
//
//   - the pull model — the authors' earlier SSP'09 proposal "based on the
//     access control pull model that did not require an authorization token
//     and was transparent for the Requester": the Host queries the AM on
//     every access, with no token and no cacheable grant;
//
//   - the UMA authorization-state model — "in UMA a Requester does not
//     obtain a token from AM but rather establishes an authorization state
//     for a particular realm at a particular Host. This state is then
//     checked by a Host when it queries AM for an access control decision."

// PullDecide answers a tokenless Host decision query: the Host itself
// asserts the subject and requester identities it observed. Pull-model
// decisions are never cacheable — that is the structural weakness the
// push-token model fixes.
func (a *AM) PullDecide(pairingID string, q core.DecisionQuery, subject core.UserID, requester core.RequesterID) (core.DecisionResponse, error) {
	pairing, err := a.GetPairing(pairingID)
	if err != nil {
		return core.DecisionResponse{}, err
	}
	if pairing.Host != q.Host {
		return core.DecisionResponse{}, fmt.Errorf("am: pairing %s belongs to host %q, query claims %q",
			pairingID, pairing.Host, q.Host)
	}
	realm, err := a.LookupRealm(q.Host, q.Realm)
	if err != nil {
		return core.DecisionResponse{}, err
	}
	if err := a.checkShard(realm.Owner); err != nil {
		return core.DecisionResponse{}, err
	}
	req := core.TokenRequest{
		Requester: requester,
		Subject:   subject,
		Host:      q.Host,
		Realm:     q.Realm,
		Resource:  q.Resource,
		Action:    q.Action,
	}
	res := a.evaluate(req, realm, false)
	decision := core.DecisionDeny
	if res.Decision == core.DecisionPermit {
		decision = core.DecisionPermit
	}
	a.auditPipe.Enqueue(decisionEvent(realm, q, requester, decision, res.Reason+" (pull)"))
	return core.DecisionResponse{
		Decision:        decision.String(),
		CacheTTLSeconds: 0, // pull model: transparent, stateless, uncacheable
		Reason:          res.Reason,
	}, nil
}

// authState is an established UMA-style authorization state.
type authState struct {
	Handle    string           `json:"handle"`
	Requester core.RequesterID `json:"requester"`
	Subject   core.UserID      `json:"subject,omitempty"`
	Host      core.HostID      `json:"host"`
	Realm     core.RealmID     `json:"realm"`
	CreatedAt time.Time        `json:"created_at"`
}

const kindAuthState = "auth-state"

// EstablishState records an authorization state for (requester, host,
// realm) after a policy pre-check, returning the opaque state handle the
// Requester presents to the Host.
func (a *AM) EstablishState(req core.TokenRequest) (string, error) {
	realm, err := a.LookupRealm(req.Host, req.Realm)
	if err != nil {
		return "", err
	}
	release, err := a.gateOwner(realm.Owner)
	if err != nil {
		return "", err
	}
	defer release()
	res := a.evaluate(req, realm, false)
	if res.Decision != core.DecisionPermit {
		a.auditPipe.Enqueue(audit.Event{
			Type: audit.EventTokenRefused, Owner: realm.Owner, Host: req.Host,
			Realm: req.Realm, Requester: req.Requester, Subject: req.Subject,
			Action: req.Action, Detail: res.Reason + " (state)",
		})
		return "", fmt.Errorf("%w: %s", core.ErrAccessDenied, res.Reason)
	}
	st := authState{
		Handle:    core.NewID("state"),
		Requester: req.Requester,
		Subject:   req.Subject,
		Host:      req.Host,
		Realm:     req.Realm,
		CreatedAt: time.Now(),
	}
	if _, err := a.store.Put(kindAuthState, st.Handle, st); err != nil {
		return "", fmt.Errorf("am: persist state: %w", err)
	}
	return st.Handle, nil
}

// StateDecide answers a Host decision query in the UMA-state model: the
// Host presents the Requester's state handle; the AM checks the state
// binding and re-evaluates the policies.
func (a *AM) StateDecide(pairingID string, q core.DecisionQuery, handle string) (core.DecisionResponse, error) {
	pairing, err := a.GetPairing(pairingID)
	if err != nil {
		return core.DecisionResponse{}, err
	}
	if pairing.Host != q.Host {
		return core.DecisionResponse{}, fmt.Errorf("am: pairing %s belongs to host %q, query claims %q",
			pairingID, pairing.Host, q.Host)
	}
	realm, err := a.LookupRealm(q.Host, q.Realm)
	if err != nil {
		return core.DecisionResponse{}, err
	}
	if err := a.checkShard(realm.Owner); err != nil {
		return core.DecisionResponse{}, err
	}
	deny := func(reason string) core.DecisionResponse {
		a.auditPipe.Enqueue(decisionEvent(realm, q, "", core.DecisionDeny, reason))
		return core.DecisionResponse{Decision: core.DecisionDeny.String(), Reason: reason}
	}
	var st authState
	if _, err := a.store.Get(kindAuthState, handle, &st); err != nil {
		return deny("unknown authorization state"), nil
	}
	if st.Host != q.Host || st.Realm != q.Realm {
		return deny("authorization state out of scope"), nil
	}
	req := core.TokenRequest{
		Requester: st.Requester,
		Subject:   st.Subject,
		Host:      q.Host,
		Realm:     q.Realm,
		Resource:  q.Resource,
		Action:    q.Action,
	}
	res := a.evaluate(req, realm, false)
	decision := core.DecisionDeny
	if res.Decision == core.DecisionPermit {
		decision = core.DecisionPermit
	}
	a.auditPipe.Enqueue(decisionEvent(realm, q, st.Requester, decision, res.Reason+" (state)"))
	return core.DecisionResponse{
		Decision:        decision.String(),
		CacheTTLSeconds: a.cacheTTLSeconds(res),
		Reason:          res.Reason,
	}, nil
}
