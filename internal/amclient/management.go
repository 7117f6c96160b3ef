package amclient

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"umac/internal/audit"
	"umac/internal/core"
	"umac/internal/policy"
)

// This file wraps the session-authenticated management surface: policies,
// links, groups, custodians, audit, consents, pairings, and the
// operational probes. All calls act as Config.User; pass owner to operate
// on another user's state as their custodian (empty owner = the actor).

// --- Policies ---

// ListPolicies returns one page of owner's policies.
func (c *Client) ListPolicies(owner core.UserID, page Page) ([]policy.Policy, error) {
	var out []policy.Policy
	err := c.get("/policies", page.apply(ownerQuery(owner)), &out)
	return out, err
}

// CreatePolicy stores a policy (owner defaults to the acting user) and
// returns it with the server-assigned ID.
func (c *Client) CreatePolicy(p policy.Policy) (policy.Policy, error) {
	var created policy.Policy
	err := c.do(http.MethodPost, "/policies", nil, p, &created)
	return created, err
}

// GetPolicy fetches one policy by ID.
func (c *Client) GetPolicy(id core.PolicyID) (policy.Policy, error) {
	var p policy.Policy
	err := c.get("/policies/"+url.PathEscape(string(id)), nil, &p)
	return p, err
}

// UpdatePolicy replaces the policy with p.ID.
func (c *Client) UpdatePolicy(p policy.Policy) error {
	return c.do(http.MethodPut, "/policies/"+url.PathEscape(string(p.ID)), nil, p, nil)
}

// DeletePolicy removes a policy; links to it dangle deny-biased.
func (c *Client) DeletePolicy(id core.PolicyID) error {
	return c.do(http.MethodDelete, "/policies/"+url.PathEscape(string(id)), nil, nil, nil)
}

// ExportPolicies streams owner's serialized policy set ("json" or "xml")
// to w.
func (c *Client) ExportPolicies(w io.Writer, owner core.UserID, format string) error {
	q := ownerQuery(owner)
	q.Set("format", format)
	req, err := c.newRequest(c.BaseURL(), http.MethodGet, "/policies/export", q, nil, "")
	if err != nil {
		return err
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return fmt.Errorf("amclient: GET /policies/export: %w", err)
	}
	defer drainBody(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	_, err = io.Copy(w, resp.Body)
	return err
}

// ImportPolicies pushes a serialized policy set from r into owner's
// account, returning how many policies were imported.
func (c *Client) ImportPolicies(r io.Reader, owner core.UserID, format string) (int, error) {
	q := ownerQuery(owner)
	q.Set("format", format)
	var out struct {
		Imported int `json:"imported"`
	}
	payload, err := io.ReadAll(r)
	if err != nil {
		return 0, fmt.Errorf("amclient: read /policies/import body: %w", err)
	}
	err = c.send(http.MethodPost, "/policies/import", q, payload, "", &out, nil)
	return out.Imported, err
}

// --- Links ---

// LinkGeneral binds a general policy to a realm across every Host where
// the realm is registered.
func (c *Client) LinkGeneral(owner core.UserID, realm core.RealmID, pid core.PolicyID) error {
	return c.do(http.MethodPost, "/links/general", nil,
		core.LinkGeneralRequest{Owner: owner, Realm: realm, Policy: pid}, nil)
}

// UnlinkGeneral removes a realm's general-policy link.
func (c *Client) UnlinkGeneral(owner core.UserID, realm core.RealmID) error {
	q := ownerQuery(owner)
	q.Set(core.ParamRealm, string(realm))
	return c.do(http.MethodDelete, "/links/general", q, nil, nil)
}

// LinkSpecific binds a specific policy to one resource.
func (c *Client) LinkSpecific(owner core.UserID, host core.HostID, res core.ResourceID, pid core.PolicyID) error {
	return c.do(http.MethodPost, "/links/specific", nil,
		core.LinkSpecificRequest{Owner: owner, Host: host, Resource: res, Policy: pid}, nil)
}

// UnlinkSpecific removes a resource's specific-policy link.
func (c *Client) UnlinkSpecific(owner core.UserID, host core.HostID, res core.ResourceID) error {
	q := ownerQuery(owner)
	q.Set(core.ParamHost, string(host))
	q.Set(core.ParamResource, string(res))
	return c.do(http.MethodDelete, "/links/specific", q, nil, nil)
}

// --- Groups and custodians ---

// Groups lists owner's group names.
func (c *Client) Groups(owner core.UserID) ([]string, error) {
	var out []string
	err := c.get("/groups", ownerQuery(owner), &out)
	return out, err
}

// GroupMembers lists one group's members.
func (c *Client) GroupMembers(owner core.UserID, group string) ([]core.UserID, error) {
	var out []core.UserID
	err := c.get("/groups/"+url.PathEscape(group)+"/members", ownerQuery(owner), &out)
	return out, err
}

// AddGroupMember adds user to owner's group, returning the updated
// member list.
func (c *Client) AddGroupMember(owner core.UserID, group string, user core.UserID) ([]core.UserID, error) {
	var out []core.UserID
	err := c.do(http.MethodPost, "/groups/"+url.PathEscape(group)+"/members", nil,
		core.GroupMemberRequest{Owner: owner, User: user}, &out)
	return out, err
}

// RemoveGroupMember removes user from owner's group.
func (c *Client) RemoveGroupMember(owner core.UserID, group string, user core.UserID) error {
	return c.do(http.MethodDelete,
		"/groups/"+url.PathEscape(group)+"/members/"+url.PathEscape(string(user)),
		ownerQuery(owner), nil, nil)
}

// Custodians lists owner's custodians.
func (c *Client) Custodians(owner core.UserID) ([]core.UserID, error) {
	var out []core.UserID
	err := c.get("/custodians", ownerQuery(owner), &out)
	return out, err
}

// AddCustodian appoints a custodian for the acting user (only the owner
// themselves may appoint), returning the updated list.
func (c *Client) AddCustodian(custodian core.UserID) ([]core.UserID, error) {
	var out []core.UserID
	err := c.do(http.MethodPost, "/custodians", nil,
		core.CustodianRequest{Custodian: custodian}, &out)
	return out, err
}

// RemoveCustodian removes one of the acting user's custodians.
func (c *Client) RemoveCustodian(custodian core.UserID) error {
	return c.do(http.MethodDelete, "/custodians/"+url.PathEscape(string(custodian)), nil, nil, nil)
}

// --- Audit ---

// AuditFilter narrows an audit query; zero-valued fields match everything.
type AuditFilter struct {
	Owner     core.UserID
	Host      core.HostID
	Realm     core.RealmID
	Requester core.RequesterID
	Type      audit.EventType
}

func (f AuditFilter) query() url.Values {
	q := ownerQuery(f.Owner)
	if f.Host != "" {
		q.Set(core.ParamHost, string(f.Host))
	}
	if f.Realm != "" {
		q.Set(core.ParamRealm, string(f.Realm))
	}
	if f.Requester != "" {
		q.Set(core.ParamRequester, string(f.Requester))
	}
	if f.Type != "" {
		q.Set("type", string(f.Type))
	}
	return q
}

// Audit returns one page of the consolidated audit view.
func (c *Client) Audit(f AuditFilter, page Page) ([]audit.Event, error) {
	var out []audit.Event
	err := c.get("/audit", page.apply(f.query()), &out)
	return out, err
}

// PageFrame is the pagination frame a list route reports in its
// X-Total-Count / X-Next-Offset response headers.
type PageFrame struct {
	// Total is the pre-windowing size of the filtered set.
	Total int
	// NextOffset is the offset of the next page, -1 when this page
	// exhausted the listing.
	NextOffset int
}

// parsePageFrame reads the pagination headers of a list response.
func parsePageFrame(hdr http.Header) (PageFrame, error) {
	frame := PageFrame{NextOffset: -1}
	if raw := hdr.Get("X-Total-Count"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil {
			return frame, fmt.Errorf("amclient: bad X-Total-Count %q", raw)
		}
		frame.Total = n
	}
	if raw := hdr.Get("X-Next-Offset"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil {
			return frame, fmt.Errorf("amclient: bad X-Next-Offset %q", raw)
		}
		frame.NextOffset = n
	}
	return frame, nil
}

// AuditPage returns one page of the consolidated audit view together with
// its pagination frame, so callers can walk the full set by following
// NextOffset (the offset-based framing the PR 3 pagination fix pinned
// down).
func (c *Client) AuditPage(f AuditFilter, page Page) ([]audit.Event, PageFrame, error) {
	var out []audit.Event
	var hdr http.Header
	if err := c.send(http.MethodGet, "/audit", page.apply(f.query()), nil, "", &out, &hdr); err != nil {
		return nil, PageFrame{NextOffset: -1}, err
	}
	frame, err := parsePageFrame(hdr)
	return out, frame, err
}

// AuditSummary returns the one-pass consolidated summary for owner.
func (c *Client) AuditSummary(owner core.UserID) (audit.Summary, error) {
	var out audit.Summary
	err := c.get("/audit/summary", ownerQuery(owner), &out)
	return out, err
}

// --- Consents ---

// Consents lists owner's unresolved consent tickets, oldest first.
func (c *Client) Consents(owner core.UserID, page Page) ([]core.ConsentStatus, error) {
	var out []core.ConsentStatus
	err := c.get("/consents", page.apply(ownerQuery(owner)), &out)
	return out, err
}

// ResolveConsent approves or denies a pending consent ticket.
func (c *Client) ResolveConsent(ticket string, approve bool) error {
	return c.do(http.MethodPost, "/consents/"+url.PathEscape(ticket), nil,
		core.ConsentResolveRequest{Approve: approve}, nil)
}

// --- Pairings ---

// Pairings lists owner's Host pairings (secrets always redacted).
func (c *Client) Pairings(owner core.UserID, page Page) ([]core.PairingInfo, error) {
	var out []core.PairingInfo
	err := c.get("/pairings", page.apply(ownerQuery(owner)), &out)
	return out, err
}

// RevokePairing severs a pairing (DELETE /v1/pairings/{id}): the Host's
// signed calls stop verifying immediately. Unknown IDs are a not_paired
// APIError.
func (c *Client) RevokePairing(id string) error {
	return c.do(http.MethodDelete, "/pairings/"+url.PathEscape(id), nil, nil, nil)
}

// --- Operational ---

// Healthz fetches the AM's health report.
func (c *Client) Healthz() (core.HealthStatus, error) {
	var h core.HealthStatus
	err := c.get("/healthz", nil, &h)
	return h, err
}

// Ready reports whether the AM is accepting new traffic (readyz probe).
// A draining AM returns (false, nil); transport failures return an error.
func (c *Client) Ready() (bool, error) {
	err := c.get("/readyz", nil, nil)
	if err == nil {
		return true, nil
	}
	var ae *core.APIError
	if errors.As(err, &ae) && ae.Code == core.CodeUnavailable {
		return false, nil
	}
	return false, err
}
