// Package umastate implements the UMA authorization-state variant the
// paper contrasts with its push-token design: "in UMA a Requester does not
// obtain a token from AM but rather establishes an authorization state for
// a particular realm at a particular Host. This state is then checked by a
// Host when it queries AM for an access control decision" (Section V.B.3 /
// VIII).
//
// The Requester calls EstablishState once per (host, realm) and presents
// the opaque handle to the Host; the Host includes the handle in each
// decision query. Compared with the push-token model the AM carries the
// state, and the Host cannot verify anything locally.
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

// EstablishState runs the UMA-style pre-authorization at the AM, returning
// the state handle to present to the Host. Refusals surface as
// core.ErrAccessDenied.
func (c *RequesterClient) EstablishState(amURL string, host core.HostID, realm core.RealmID, res core.ResourceID, action core.Action) (string, error) {
	am := amclient.New(amclient.Config{BaseURL: amURL, HTTPClient: c.HTTP})
	handle, err := am.EstablishState(core.TokenRequest{
		Requester: c.ID,
		Subject:   c.Subject,
		Host:      host,
		Realm:     realm,
		Resource:  res,
		Action:    action,
	})
	var ae *core.APIError
	switch {
	case errors.As(err, &ae):
		// The AM answered with an error response: the state was refused.
		return "", fmt.Errorf("%w: state refused: %v", core.ErrAccessDenied, err)
	case err != nil:
		// Transport failure — not a denial.
		return "", fmt.Errorf("umastate: establish: %w", err)
	}
	return handle, nil
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

// Check queries the AM with the Requester's state handle.
func (e *Enforcer) Check(p pep.Pairing, handle string, realm core.RealmID, res core.ResourceID, action core.Action) (bool, error) {
	req := core.StateDecisionQuery{
		Query: core.DecisionQuery{
			PairingID: p.PairingID,
			Host:      e.host,
			Realm:     realm,
			Resource:  res,
			Action:    action,
		},
		Handle: handle,
	}
	am := amclient.New(amclient.Config{
		BaseURL:    p.AMURL,
		HTTPClient: e.client,
		PairingID:  p.PairingID,
		Secret:     p.Secret,
	})
	dec, err := am.StateDecide(req)
	if err != nil {
		return false, fmt.Errorf("umastate: query: %w", err)
	}
	return dec.Permit(), nil
}
