// Package pullmodel is the Host-side client for the paper's earlier
// (SSP'09 poster) protocol design: "our previous proposal ... was based on
// the access control pull model that did not require an authorization token
// and was transparent for the Requester" (Section V.B.3).
//
// Every access triggers a synchronous Host→AM decision query carrying the
// identities the Host observed; there is no token and nothing to cache
// against. The benchmark harness (experiment E9) uses this to show why the
// published protocol added the token: pull cost grows linearly with
// accesses while the push-token model amortises.
package pullmodel

import (
	"fmt"
	"net/http"

	"umac/internal/amclient"
	"umac/internal/core"
	"umac/internal/pep"
)

// Enforcer is a pull-model PEP. It reuses a pep pairing (the Fig. 3 trust
// relationship is identical); only the per-access flow differs.
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
// of the pull model.
func (e *Enforcer) Check(p pep.Pairing, subject core.UserID, requester core.RequesterID,
	realm core.RealmID, res core.ResourceID, action core.Action) (bool, error) {
	req := core.PullDecisionQuery{
		Query: core.DecisionQuery{
			PairingID: p.PairingID,
			Host:      e.host,
			Realm:     realm,
			Resource:  res,
			Action:    action,
		},
		Subject:   subject,
		Requester: requester,
	}
	am := amclient.New(amclient.Config{
		BaseURL:    p.AMURL,
		HTTPClient: e.client,
		PairingID:  p.PairingID,
		Secret:     p.Secret,
	})
	dec, err := am.PullDecide(req)
	if err != nil {
		return false, fmt.Errorf("pullmodel: query: %w", err)
	}
	return dec.Permit(), nil
}
