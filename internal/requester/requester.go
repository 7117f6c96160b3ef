// Package requester implements the Requester side of the protocol: "a
// Requester is an application that is capable of issuing access requests to
// resources on Hosts which are protected by an Authorization Manager. A
// Requester is able to obtain the necessary authorization token from AM.
// Such token is later presented to the Host" (Section V.A.4).
//
// The Client wraps an http.Client with the token choreography of Figs. 5
// and 6: a tokenless access is answered by the Host with a referral to the
// owner's AM; the Client obtains a token there (supplying claims for terms,
// or waiting on the AM's consent stream for real-time consent) and retries
// with the token attached.
// Tokens are cached per (host origin, realm), so "a Requester may need to
// obtain it only once and can use it for multiple subsequent access
// requests".
package requester

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"umac/internal/amclient"
	"umac/internal/core"
	"umac/internal/pep"
)

// Errors surfaced by the Client beyond plain transport failures.
var (
	// ErrDenied: the AM refused a token (policy deny).
	ErrDenied = core.ErrAccessDenied
	// ErrConsentDenied: the owner resolved the consent request negatively.
	ErrConsentDenied = errors.New("requester: owner denied consent")
	// ErrConsentTimeout: the owner did not resolve consent in time.
	ErrConsentTimeout = errors.New("requester: consent wait timed out")
)

// TermsError reports terms the Requester must satisfy with claims.
type TermsError struct {
	Terms []string
}

// Error implements error.
func (e *TermsError) Error() string {
	return "requester: required terms not satisfied: " + strings.Join(e.Terms, ", ")
}

// Config configures a Client.
type Config struct {
	// ID is the Requester's application identity.
	ID core.RequesterID
	// Subject is the human identity the Requester acts for (may be empty
	// for autonomous services).
	Subject core.UserID
	// Claims are presented with token requests (terms extension, e.g.
	// {"payment": "rcpt-42"}).
	Claims map[string]string
	// HTTPClient performs all calls; nil means http.DefaultClient.
	HTTPClient *http.Client
	// ConsentTimeout bounds the total consent wait (default 5s).
	ConsentTimeout time.Duration
}

// Client is a protocol-aware HTTP client for Requesters.
type Client struct {
	id             core.RequesterID
	subject        core.UserID
	claims         map[string]string
	http           *http.Client
	consentTimeout time.Duration

	// ctx parents every consent wait; Close cancels it so shutdown never
	// waits out a parked stream read.
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.RWMutex
	tokens map[string]string // origin+"|"+realm → token
	last   map[string]string // origin → most recently used token
}

// New constructs a Client.
func New(cfg Config) *Client {
	h := cfg.HTTPClient
	if h == nil {
		h = http.DefaultClient
	}
	timeout := cfg.ConsentTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	claims := make(map[string]string, len(cfg.Claims))
	for k, v := range cfg.Claims {
		claims[k] = v
	}
	c := &Client{
		id:             cfg.ID,
		subject:        cfg.Subject,
		claims:         claims,
		http:           h,
		consentTimeout: timeout,
		tokens:         make(map[string]string),
		last:           make(map[string]string),
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	return c
}

// Close cancels any in-flight consent wait — a parked stream read
// unblocks immediately — and makes future consent waits fail fast. Cached
// tokens keep working; only waiting stops.
func (c *Client) Close() error {
	c.cancel()
	return nil
}

// ID returns the Requester identity.
func (c *Client) ID() core.RequesterID { return c.id }

// SetClaim adds or replaces a claim presented with future token requests.
func (c *Client) SetClaim(name, value string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.claims[name] = value
}

// ForgetTokens drops all cached tokens (e.g. to simulate a fresh session).
func (c *Client) ForgetTokens() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tokens = make(map[string]string)
	c.last = make(map[string]string)
}

// Get fetches a URL performing the full authorization choreography for the
// given action. The caller owns the response body.
func (c *Client) Get(rawURL string, action core.Action) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, rawURL, nil)
	if err != nil {
		return nil, fmt.Errorf("requester: %w", err)
	}
	return c.Do(req, action, nil)
}

// Fetch is Get plus body read; non-2xx statuses become errors.
func (c *Client) Fetch(rawURL string, action core.Action) ([]byte, error) {
	resp, err := c.Get(rawURL, action)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("requester: read body: %w", err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("requester: %s: status %d: %s", rawURL, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// Post sends a body performing the authorization choreography (body is
// buffered so the request can be replayed after token acquisition).
func (c *Client) Post(rawURL, contentType string, body []byte, action core.Action) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, rawURL, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("requester: %w", err)
	}
	req.Header.Set("Content-Type", contentType)
	return c.Do(req, action, body)
}

// Do executes req with the token choreography. body must carry the request
// payload for replay (nil for bodyless requests).
func (c *Client) Do(req *http.Request, action core.Action, body []byte) (*http.Response, error) {
	origin := req.URL.Scheme + "://" + req.URL.Host

	send := func(tok string) (*http.Response, error) {
		clone := req.Clone(req.Context())
		if body != nil {
			clone.Body = io.NopCloser(bytes.NewReader(body))
			clone.ContentLength = int64(len(body))
		}
		if tok != "" {
			clone.Header.Set("Authorization", pep.TokenScheme+" "+tok)
		}
		return c.http.Do(clone)
	}

	c.mu.RLock()
	lastTok := c.last[origin]
	c.mu.RUnlock()

	resp, err := send(lastTok)
	if err != nil {
		return nil, fmt.Errorf("requester: %w", err)
	}
	if resp.StatusCode != http.StatusUnauthorized {
		return resp, nil
	}
	amURL := resp.Header.Get(pep.HeaderAM)
	if amURL == "" {
		// 401 from something that is not a UMAC referral: pass through.
		return resp, nil
	}
	referral := referralInfo{
		am:       amURL,
		host:     core.HostID(resp.Header.Get(pep.HeaderHost)),
		realm:    core.RealmID(resp.Header.Get(pep.HeaderRealm)),
		resource: core.ResourceID(resp.Header.Get(pep.HeaderResource)),
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	// A cached token for this (origin, realm) that we did not just try is
	// worth one attempt before going to the AM.
	c.mu.RLock()
	cached := c.tokens[origin+"|"+string(referral.realm)]
	c.mu.RUnlock()
	if cached != "" && cached != lastTok {
		resp, err := send(cached)
		if err != nil {
			return nil, fmt.Errorf("requester: %w", err)
		}
		if resp.StatusCode != http.StatusUnauthorized {
			c.remember(origin, referral.realm, cached)
			return resp, nil
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	tok, err := c.ObtainToken(referral.am, referral.host, referral.realm, referral.resource, action)
	if err != nil {
		return nil, err
	}
	c.remember(origin, referral.realm, tok)
	return send(tok)
}

type referralInfo struct {
	am       string
	host     core.HostID
	realm    core.RealmID
	resource core.ResourceID
}

func (c *Client) remember(origin string, realm core.RealmID, tok string) {
	c.mu.Lock()
	c.tokens[origin+"|"+string(realm)] = tok
	c.last[origin] = tok
	c.mu.Unlock()
}

// ObtainToken runs the Fig. 5 flow against the AM directly: request a
// token, satisfying terms with configured claims and waiting on real-time
// consent if the policy demands it.
func (c *Client) ObtainToken(amURL string, host core.HostID, realm core.RealmID, resource core.ResourceID, action core.Action) (string, error) {
	c.mu.RLock()
	claims := make(map[string]string, len(c.claims))
	for k, v := range c.claims {
		claims[k] = v
	}
	c.mu.RUnlock()
	req := core.TokenRequest{
		Requester: c.id,
		Subject:   c.subject,
		Host:      host,
		Realm:     realm,
		Resource:  resource,
		Action:    action,
		Claims:    claims,
	}
	tr, err := c.am(amURL).RequestToken(req)
	switch {
	case errors.Is(err, core.ErrAccessDenied):
		return "", fmt.Errorf("%w: AM refused token", ErrDenied)
	case err != nil:
		return "", fmt.Errorf("requester: token request: %w", err)
	}
	switch {
	case tr.Token != "":
		return tr.Token, nil
	case tr.PendingConsent != "":
		return c.waitConsent(amURL, tr.PendingConsent)
	case len(tr.RequiredTerms) > 0:
		return "", &TermsError{Terms: tr.RequiredTerms}
	default:
		return "", fmt.Errorf("requester: empty token response")
	}
}

// am returns a typed client for the referred AM (Requester calls are
// unauthenticated: identity travels in the request body, mediated by
// policy, consent and terms).
func (c *Client) am(amURL string) *amclient.Client {
	return amclient.New(amclient.Config{BaseURL: amURL, HTTPClient: c.http})
}

// waitConsent waits for the owner to resolve the consent ticket — the
// asynchronous Requester↔AM interaction of Section V.D — over the AM's
// consent event stream (GET /v1/events/consent): resolution arrives the
// instant the owner acts, with the minted token in the event payload. Two
// status checks back the stream up: one right after the subscription
// registers, and one on every resync marker. A stream that cannot be
// established is an error. The wait is bounded by ConsentTimeout and
// cancelled by Close.
func (c *Client) waitConsent(amURL, ticket string) (string, error) {
	ctx, cancel := context.WithTimeout(c.ctx, c.consentTimeout)
	defer cancel()
	am := c.am(amURL)
	stream := am.Stream(amclient.StreamConfig{
		Path:  "/events/consent",
		Query: url.Values{core.ParamTicket: {ticket}},
	})
	defer stream.Close()
	if err := stream.Connect(ctx); err != nil {
		return "", c.consentWaitErr(ctx, err)
	}
	// The owner may have resolved the ticket between RequestToken handing
	// it out and the subscription registering just now — an event published
	// in that window had no subscriber and will never replay. One status
	// check closes the race; everything after it arrives via the stream.
	if st, err := am.TokenStatus(ticket); err == nil && st.Resolved {
		return c.consentOutcome(ticket, st)
	}
	for {
		ev, err := stream.Next(ctx)
		if err != nil {
			return "", c.consentWaitErr(ctx, err)
		}
		switch ev.Type {
		case core.EventConsent:
			if st := ev.Consent; st != nil && st.Resolved {
				return c.consentOutcome(ticket, *st)
			}
		case core.EventResync:
			// The resolution may be among the lost events: check the status
			// endpoint once, then keep streaming for a live resolution.
			if st, err := am.TokenStatus(ticket); err == nil && st.Resolved {
				return c.consentOutcome(ticket, st)
			}
		}
	}
}

// consentOutcome maps a resolved ticket to the token or ErrConsentDenied.
func (c *Client) consentOutcome(ticket string, st core.ConsentStatus) (string, error) {
	if !st.Approved {
		return "", ErrConsentDenied
	}
	return st.Token, nil
}

// consentWaitErr classifies a consent-wait failure: the overall deadline
// means the owner never acted (ErrConsentTimeout); cancellation means
// Close was called; anything else (the stream was rejected or stayed
// unreachable) is returned wrapped.
func (c *Client) consentWaitErr(ctx context.Context, err error) error {
	if c.ctx.Err() != nil {
		return fmt.Errorf("requester: client closed: %w", c.ctx.Err())
	}
	if ctx.Err() != nil {
		return ErrConsentTimeout
	}
	return fmt.Errorf("requester: consent wait: %w", err)
}
