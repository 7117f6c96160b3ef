// Package umastate implements the UMA authorization-state variant the
// paper contrasts with its push-token design: "in UMA a Requester does not
// obtain a token from AM but rather establishes an authorization state for
// a particular realm at a particular Host. This state is then checked by a
// Host when it queries AM for an access control decision" (Section V.B.3 /
// VIII).
//
// The Requester calls Establish once per (host, realm) and presents the
// opaque handle to the Host; the Host includes the handle in each decision
// query and caches nothing. The state is what the AM already issues as a
// token: the handle is a token from POST /v1/token, whose signed claims
// (binding, presented claims, consent) are the state, and the Host's
// check an uncached signed decision query (POST
// /v1/api/decision) — token introspection, as UMA later defined it. The AM
// therefore needs no route of its own for this model. Compared with the
// push-token model every access costs an AM round-trip.
package umastate

import (
	"errors"
	"fmt"
	"net/http"

	"umac/internal/amclient"
	"umac/internal/core"
	"umac/internal/pep"
)

// RequesterClient establishes authorization states at an AM.
type RequesterClient struct {
	ID      core.RequesterID
	Subject core.UserID
	HTTP    *http.Client
}

// Establish runs the UMA-style pre-authorization at the AM, returning the
// state handle to present to the Host. Policy refusals, and answers that
// leave consent or terms outstanding, surface as core.ErrAccessDenied;
// any other failure is an error that is not a denial.
func (c *RequesterClient) Establish(amURL string, host core.HostID, realm core.RealmID, res core.ResourceID, action core.Action) (string, error) {
	am := amclient.New(amclient.Config{BaseURL: amURL, HTTPClient: c.HTTP})
	resp, err := am.RequestToken(core.TokenRequest{
		Requester: c.ID,
		Subject:   c.Subject,
		Host:      host,
		Realm:     realm,
		Resource:  res,
		Action:    action,
	})
	switch {
	case errors.Is(err, core.ErrAccessDenied):
		return "", fmt.Errorf("umastate: state refused: %w", err)
	case err != nil:
		// Transport failure, unknown realm, throttling — not a denial.
		return "", fmt.Errorf("umastate: establish: %w", err)
	case resp.Token == "":
		return "", fmt.Errorf("%w: state pending", core.ErrAccessDenied)
	}
	return resp.Token, nil
}

// Enforcer is the Host-side checker for the state model.
type Enforcer struct {
	host   core.HostID
	client *http.Client
}

// New constructs a state-model enforcer.
func New(host core.HostID, client *http.Client) *Enforcer {
	if client == nil {
		client = http.DefaultClient
	}
	return &Enforcer{host: host, client: client}
}

// Check queries the AM with the Requester's state handle. A handle the AM
// does not recognise, or one established for another realm, is a deny.
func (e *Enforcer) Check(p pep.Pairing, handle string, realm core.RealmID, res core.ResourceID, action core.Action) (bool, error) {
	am := amclient.New(amclient.Config{
		BaseURL:    p.AMURL,
		HTTPClient: e.client,
		PairingID:  p.PairingID,
		Secret:     p.Secret,
	})
	dec, err := am.Decide(core.DecisionQuery{
		PairingID: p.PairingID,
		Host:      e.host,
		Realm:     realm,
		Resource:  res,
		Action:    action,
		Token:     handle,
	})
	if err != nil {
		return false, fmt.Errorf("umastate: query: %w", err)
	}
	return dec.Permit(), nil
}
