package amclient

import (
	"net/http"
	"net/url"

	"umac/internal/core"
)

// This file wraps the protocol routes: the Host-facing signed API
// (pair/exchange, protect, decision family) and the open Requester-facing
// token service. Management routes live in management.go.

// ConfirmPairing drives the Fig. 3 user-consent leg programmatically:
// acting as Config.User it approves a pairing with host and returns the
// one-time code the Host exchanges for the channel secret. Browsers follow
// the redirect form of the same route (PairConfirmURL); headless tooling —
// the sim, the load harness, operator scripts — uses this JSON form.
func (c *Client) ConfirmPairing(host core.HostID) (string, error) {
	var resp struct {
		Code string `json:"code"`
	}
	err := c.get("/pair/confirm", url.Values{core.ParamHost: {string(host)}}, &resp)
	return resp.Code, err
}

// ExchangePairingCode completes Fig. 3: the Host presents the one-time
// code minted by the user's confirmation and receives the pairing ID plus
// channel secret. The only Host-facing call that is not signed (it runs
// before the Host has a secret).
func (c *Client) ExchangePairingCode(code string, host core.HostID) (core.PairingResponse, error) {
	var resp core.PairingResponse
	err := c.do(http.MethodPost, "/api/pair/exchange", nil,
		core.PairExchangeRequest{Code: code, Host: host}, &resp)
	return resp, err
}

// Protect registers a protected realm over the signed channel (Fig. 4).
func (c *Client) Protect(req core.ProtectRequest) (core.ProtectResponse, error) {
	var resp core.ProtectResponse
	err := c.do(http.MethodPost, "/api/protect", nil, req, &resp)
	return resp, err
}

// Decide runs one decision query over the signed channel (Fig. 6). The
// query is encoded once, by the envelope codec, and those bytes are both
// signed and sent.
func (c *Client) Decide(q core.DecisionQuery) (core.DecisionResponse, error) {
	var resp core.DecisionResponse
	body := q.AppendJSON(make([]byte, 0, 192+len(q.Token)+len(q.Resource)))
	err := c.send(http.MethodPost, "/api/decision", nil, body, "application/json", &resp, nil)
	return resp, err
}

// DecideBatch resolves up to core.MaxBatchDecisionItems decision queries
// in one signed round-trip, encoded and decoded like Decide's.
func (c *Client) DecideBatch(q core.BatchDecisionQuery) (core.BatchDecisionResponse, error) {
	resp := core.BatchDecisionResponse{Results: make([]core.BatchDecisionResult, 0, len(q.Items))}
	size := 128 + len(q.Token)
	for _, it := range q.Items {
		size += 64 + len(it.Realm) + len(it.Resource) + len(it.Action) + len(it.Token)
	}
	err := c.send(http.MethodPost, "/api/decision/batch", nil, q.AppendJSON(make([]byte, 0, size)), "application/json", &resp, nil)
	return resp, err
}

// RequestToken asks for an authorization token (Fig. 5). Inspect the
// response: Token set means granted; Pending() means consent or terms are
// outstanding (poll TokenStatus / retry with claims). A policy deny is an
// error with errors.Is(err, core.ErrAccessDenied) == true (wire code
// "access_denied").
func (c *Client) RequestToken(req core.TokenRequest) (core.TokenResponse, error) {
	var resp core.TokenResponse
	err := c.do(http.MethodPost, "/token", nil, req, &resp)
	return resp, err
}

// TokenStatus polls a pending-consent ticket (§V.D). Unknown tickets are
// a not_found APIError.
func (c *Client) TokenStatus(ticket string) (core.ConsentStatus, error) {
	var st core.ConsentStatus
	err := c.get("/token/status", url.Values{core.ParamTicket: {ticket}}, &st)
	return st, err
}
