// Package pullmodel is the Host-side client for the paper's earlier
// (SSP'09 poster) protocol design: "our previous proposal ... was based on
// the access control pull model that did not require an authorization token
// and was transparent for the Requester" (Section V.B.3).
//
// Every access triggers a synchronous Host→AM query carrying the
// identities the Host observed; the Host keeps nothing to check later
// accesses against. The query is the AM's own token request (POST
// /v1/token), sent by the Host on the Requester's behalf: a returned token
// is a permit, an access_denied answer a deny, and the token itself is
// dropped. The AM therefore needs no route of its own for this model. The
// benchmark harness (experiment E9) uses it to show why the published
// protocol added the token: pull cost grows linearly with accesses while
// the push-token model amortises.
package pullmodel

import (
	"errors"
	"fmt"
	"net/http"

	"umac/internal/amclient"
	"umac/internal/core"
	"umac/internal/pep"
)

// Enforcer is a pull-model PEP. It finds the AM through a pep pairing (the
// Fig. 3 trust relationship is identical); only the per-access flow
// differs.
type Enforcer struct {
	host   core.HostID
	client *http.Client
}

// New constructs a pull-model enforcer for the given host identity.
func New(host core.HostID, client *http.Client) *Enforcer {
	if client == nil {
		client = http.DefaultClient
	}
	return &Enforcer{host: host, client: client}
}

// Check queries the AM for every access — the defining property (and cost)
// of the pull model. An answer that grants no token (a denial, or consent
// or terms outstanding) is a deny; only a failed query is an error.
func (e *Enforcer) Check(p pep.Pairing, subject core.UserID, requester core.RequesterID,
	realm core.RealmID, res core.ResourceID, action core.Action) (bool, error) {
	am := amclient.New(amclient.Config{BaseURL: p.AMURL, HTTPClient: e.client})
	resp, err := am.RequestToken(core.TokenRequest{
		Requester: requester,
		Subject:   subject,
		Host:      e.host,
		Realm:     realm,
		Resource:  res,
		Action:    action,
	})
	switch {
	case errors.Is(err, core.ErrAccessDenied):
		return false, nil
	case err != nil:
		return false, fmt.Errorf("pullmodel: query: %w", err)
	}
	return resp.Token != "", nil
}
