// Package amclient is the shared typed Go client for the Authorization
// Manager's versioned v1 API. It is the single place Host (PEP),
// Requester, CLI and simulation code build AM requests: every protocol and
// management route is wrapped in a method taking and returning the wire
// structs from internal/core, with both authentication modes built in —
// the HMAC-signed Host↔AM channel (pairing credentials) and the
// session-identity header used by the management surface.
//
// Error responses decode into *core.APIError, so callers branch on stable
// machine-readable codes (or errors.Is against the core sentinels, which
// APIError unwraps to) instead of string-matching response bodies.
//
// Every call leaves its connection reusable: the response body is read to
// EOF (bounded) before it is closed, whether the method decodes the reply,
// ignores it or fails on it, so a Client keeps one kept-alive connection
// per concurrent caller instead of dialling per call.
//
// Against a replicated deployment, configure every node in
// Config.Endpoints: the client fails over transparently on connection
// errors, not_primary rejections (following the error's leader hint) and
// unavailable (draining) answers, and remembers the working endpoint for
// subsequent calls.
package amclient

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"umac/internal/core"
	"umac/internal/httpsig"
	"umac/internal/identity"
	"umac/internal/webutil"
)

// Config configures a Client.
type Config struct {
	// BaseURL is the AM's base URL (scheme://host[:port]); a trailing
	// slash is tolerated.
	BaseURL string
	// Endpoints lists additional AM endpoints of the same replicated
	// deployment (followers and/or the primary). When more than one
	// endpoint is known, the client fails over transparently: a connection
	// error, a not_primary rejection or an unavailable (draining) answer
	// is retried against the next endpoint — following the error's leader
	// hint when one is present — until every endpoint has been tried once.
	Endpoints []string
	// HTTPClient performs the calls; nil means http.DefaultClient.
	HTTPClient *http.Client
	// User, when set, authenticates management calls via the session
	// identity header (UserHeader, default identity.DefaultUserHeader).
	// Front the AM with a real SSO proxy in production.
	User core.UserID
	// UserHeader overrides the identity header name.
	UserHeader string
	// PairingID and Secret, when set, HMAC-sign every request with the
	// pairing secret — the Host↔AM channel of Figs. 3/4/6.
	PairingID string
	Secret    string
	// ReplSecret, when set, is sent as a bearer token on every request —
	// the shared replication secret that authenticates the
	// /v1/replication/* surface and the cluster migration admin routes.
	// Only operator tooling (umacctl migrate-owner, the sim harness)
	// should set it.
	ReplSecret string
	// Retry429 bounds how many times a rate_limited (429) answer is
	// retried against the same endpoint before the error surfaces to the
	// caller: 0 selects the default (3), a negative value disables
	// retrying. Waits honor the server's Retry-After hint when present
	// and fall back to jittered exponential backoff otherwise.
	Retry429 int
	// RetryBudget caps the total time one call spends sleeping between
	// rate_limited retries (0 = default 5s). Once the budget is spent the
	// 429 surfaces immediately — fail fast rather than pile on.
	RetryBudget time.Duration
}

// Rate-limit retry defaults (see Config.Retry429 / Config.RetryBudget).
const (
	defaultRetry429    = 3
	defaultRetryBudget = 5 * time.Second
	retryBaseWait      = 100 * time.Millisecond
)

// Client is a typed AM API client. Methods are safe for concurrent use.
type Client struct {
	cfg       Config
	endpoints []string
	// cur indexes the endpoint requests currently start at; failover
	// advances it so later calls go straight to the working node.
	cur atomic.Int32
	// sleep and jitter are the rate-limit backoff's clock hooks; tests
	// replace them to run the retry loop deterministically.
	sleep  func(time.Duration)
	jitter func() float64
}

// New constructs a Client.
func New(cfg Config) *Client {
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = http.DefaultClient
	}
	if cfg.UserHeader == "" {
		cfg.UserHeader = identity.DefaultUserHeader
	}
	var endpoints []string
	if cfg.BaseURL != "" {
		endpoints = append(endpoints, strings.TrimSuffix(cfg.BaseURL, "/"))
	}
	for _, e := range cfg.Endpoints {
		e = strings.TrimSuffix(e, "/")
		if e != "" && !slices.Contains(endpoints, e) {
			endpoints = append(endpoints, e)
		}
	}
	if len(endpoints) == 0 {
		endpoints = []string{""}
	}
	return &Client{cfg: cfg, endpoints: endpoints, sleep: time.Sleep, jitter: rand.Float64}
}

// WithCredential returns a copy of the client signing with the given
// pairing credentials (the Host side uses one Client per paired AM).
func (c *Client) WithCredential(pairingID, secret string) *Client {
	cfg := c.cfg
	cfg.PairingID = pairingID
	cfg.Secret = secret
	nc := &Client{cfg: cfg, endpoints: c.endpoints, sleep: c.sleep, jitter: c.jitter}
	nc.cur.Store(c.cur.Load())
	return nc
}

// BaseURL returns the AM base URL requests currently start at (the
// configured BaseURL until a failover moved on).
func (c *Client) BaseURL() string { return c.endpoints[c.cur.Load()] }

// urlAt joins one endpoint, the version prefix and the route path + query.
func (c *Client) urlAt(base, path string, q url.Values) string {
	u := base + "/v1" + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	return u
}

// failoverWorthy reports whether err may succeed against another endpoint:
// transport-level failures (the node is down) and the two structured
// answers a healthy-but-wrong node gives — not_primary (a follower
// refusing a write) and unavailable (a draining node).
func failoverWorthy(err error) bool {
	var ae *core.APIError
	if errors.As(err, &ae) {
		return ae.Code == core.CodeNotPrimary || ae.Code == core.CodeUnavailable
	}
	var ue *url.Error
	return errors.As(err, &ue)
}

// nextEndpoint picks the index for the following attempt: the leader hint
// when it names a known endpoint this call has not tried yet (a stale hint
// pointing back at a dead node must not burn the budget), otherwise the
// nearest untried endpoint; -1 when every endpoint has been tried.
func (c *Client) nextEndpoint(at int, tried []bool, err error) int {
	var ae *core.APIError
	if errors.As(err, &ae) && ae.Leader != "" {
		if i := slices.Index(c.endpoints, strings.TrimSuffix(ae.Leader, "/")); i >= 0 && !tried[i] {
			return i
		}
	}
	for i := 1; i <= len(c.endpoints); i++ {
		idx := (at + i) % len(c.endpoints)
		if !tried[idx] {
			return idx
		}
	}
	return -1
}

// Page selects a window of a list endpoint. The zero value means the
// server defaults (offset 0, default limit).
type Page struct {
	Offset int
	Limit  int
}

func (p Page) apply(q url.Values) url.Values {
	if p.Offset > 0 {
		if q == nil {
			q = url.Values{}
		}
		q.Set("offset", fmt.Sprint(p.Offset))
	}
	if p.Limit > 0 {
		if q == nil {
			q = url.Values{}
		}
		q.Set("limit", fmt.Sprint(p.Limit))
	}
	return q
}

// ownerQuery builds the ?owner= query management routes accept.
func ownerQuery(owner core.UserID) url.Values {
	q := url.Values{}
	if owner != "" {
		q.Set("owner", string(owner))
	}
	return q
}

// do performs one API call: method + route path (+ query), JSON-encoding
// in (nil = no body) and decoding a 2xx response into out (nil = discard).
// Non-2xx responses return *core.APIError.
func (c *Client) do(method, path string, q url.Values, in, out any) error {
	var payload []byte
	if in != nil {
		var err error
		if payload, err = json.Marshal(in); err != nil {
			return fmt.Errorf("amclient: encode %s: %w", path, err)
		}
	}
	return c.send(method, path, q, payload, "application/json", out, nil)
}

// newRequest builds an API request against one endpoint with both auth
// modes applied: the session identity header and (when credentials are
// configured) the HMAC signature over payload, which is sent as the body
// (nil = no body). Every call path goes through here so auth can never
// drift between methods.
func (c *Client) newRequest(base, method, path string, q url.Values, payload []byte, contentType string) (*http.Request, error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequest(method, c.urlAt(base, path, q), body)
	if err != nil {
		return nil, fmt.Errorf("amclient: build %s: %w", path, err)
	}
	if payload != nil && contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if c.cfg.User != "" {
		req.Header.Set(c.cfg.UserHeader, string(c.cfg.User))
	}
	if c.cfg.ReplSecret != "" {
		req.Header.Set("Authorization", "Bearer "+c.cfg.ReplSecret)
	}
	if c.cfg.PairingID != "" {
		httpsig.SignBody(req, c.cfg.PairingID, c.cfg.Secret, payload)
	}
	return req, nil
}

// send performs one API call with payload as its body, trying each
// endpoint at most once, starting at the last known-good one; a failover
// sends the same bytes again. When hdr is non-nil it receives the headers
// of the successful attempt (list routes carry their pagination frame
// there).
func (c *Client) send(method, path string, q url.Values, payload []byte, contentType string, out any, hdr *http.Header) error {
	tried := make([]bool, len(c.endpoints))
	at := int(c.cur.Load())
	retries := c.cfg.Retry429
	if retries == 0 {
		retries = defaultRetry429
	}
	budget := c.cfg.RetryBudget
	if budget == 0 {
		budget = defaultRetryBudget
	}
	var slept time.Duration
	retried := 0
	var lastErr error
	for at >= 0 {
		tried[at] = true
		err := c.doOnce(c.endpoints[at], method, path, q, payload, contentType, out, hdr)
		if err == nil {
			// Remember the working endpoint so later calls start here.
			c.cur.Store(int32(at))
			return nil
		}
		lastErr = err
		// A rate_limited answer is retried against the SAME endpoint —
		// the budget is per tenant, not per node, so failing over would
		// just spend another shard's goodwill. Bounded count, bounded
		// total sleep; past either, the 429 surfaces to the caller.
		if hint, ok := rateLimited(err); ok {
			if retried >= retries || slept >= budget {
				return err
			}
			wait := c.backoff429(hint, retried, budget-slept)
			retried++
			slept += wait
			c.sleep(wait)
			continue
		}
		if len(c.endpoints) == 1 || !failoverWorthy(err) {
			return err
		}
		at = c.nextEndpoint(at, tried, err)
	}
	return lastErr
}

// rateLimited reports whether err is the structured rate_limited answer,
// returning the server's Retry-After hint when it carried one.
func rateLimited(err error) (time.Duration, bool) {
	var ae *core.APIError
	if errors.As(err, &ae) && ae.Code == core.CodeRateLimited {
		return time.Duration(ae.RetryAfterSeconds) * time.Second, true
	}
	return 0, false
}

// backoff429 picks the wait before the n-th rate_limited retry: the
// server's Retry-After hint when present, exponential from retryBaseWait
// otherwise, jittered into [wait/2, wait) so a herd of throttled clients
// does not re-arrive in lockstep, and never past the remaining budget.
func (c *Client) backoff429(hint time.Duration, n int, remaining time.Duration) time.Duration {
	wait := hint
	if wait <= 0 {
		wait = retryBaseWait << uint(n)
	}
	wait = wait/2 + time.Duration(c.jitter()*float64(wait/2))
	if wait > remaining {
		wait = remaining
	}
	return wait
}

// bodyDecoder is a response envelope with its own codec (core's decision
// envelopes); doOnce hands it the whole body instead of running
// encoding/json.
type bodyDecoder interface{ DecodeJSON([]byte) error }

// respBufPool holds the buffers decision responses are read into; the
// codec copies what it keeps, so a buffer is reused at once.
var respBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

// doOnce performs one API call against one endpoint.
func (c *Client) doOnce(base, method, path string, q url.Values, payload []byte, contentType string, out any, hdr *http.Header) error {
	req, err := c.newRequest(base, method, path, q, payload, contentType)
	if err != nil {
		return err
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return fmt.Errorf("amclient: %s %s: %w", method, path, err)
	}
	defer drainBody(resp.Body)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp)
	}
	if hdr != nil {
		*hdr = resp.Header.Clone()
	}
	switch out := out.(type) {
	case nil:
	case bodyDecoder:
		buf := respBufPool.Get().(*[]byte)
		body, err := webutil.AppendBody((*buf)[:0], resp.Body, resp.ContentLength)
		if err == nil {
			err = out.DecodeJSON(body)
		}
		*buf = body
		if cap(body) <= maxPooledResp {
			respBufPool.Put(buf)
		}
		if err != nil {
			return fmt.Errorf("amclient: decode %s response: %w", path, err)
		}
	default:
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("amclient: decode %s response: %w", path, err)
		}
	}
	return nil
}

// maxPooledResp caps the response buffers kept for reuse.
const maxPooledResp = 64 << 10

// drainBody reads what is left of a response body, up to maxErrorBody,
// and closes it. The Transport reuses a connection only once its body has
// been read to EOF; closing early drops it. A reply the caller ignores, or
// the chunk terminator a json.Decoder stops short of, would otherwise cost
// a fresh TCP connection on the next call.
func drainBody(body io.ReadCloser) {
	io.CopyN(io.Discard, body, maxErrorBody)
	body.Close()
}

// get performs a GET decoding into out.
func (c *Client) get(path string, q url.Values, out any) error {
	return c.do(http.MethodGet, path, q, nil, out)
}

// PairConfirmURL builds the browser URL of the Fig. 3 consent leg
// (GET /v1/pair/confirm): a redirect the user's browser follows, not a
// request this client performs.
func PairConfirmURL(amURL string, q url.Values) string {
	return strings.TrimSuffix(amURL, "/") + "/v1/pair/confirm?" + q.Encode()
}

// ComposeURL builds the browser URL of the Fig. 4 policy-composition page
// (GET /v1/compose) a Host's "share" control redirects to.
func ComposeURL(amURL string, q url.Values) string {
	return strings.TrimSuffix(amURL, "/") + "/v1/compose?" + q.Encode()
}

// maxErrorBody bounds how much of an error response is read.
const maxErrorBody = 64 << 10

// decodeError turns a non-2xx response into *core.APIError. Structured
// envelopes pass through; bodies without a code (proxies, non-AM servers)
// degrade to code "unknown" with the raw text as message.
func decodeError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
	var e core.APIError
	if err := json.Unmarshal(raw, &e); err == nil {
		if e.Code == "" {
			e.Code = core.CodeUnknown
		}
		if e.Message == "" {
			e.Message = strings.TrimSpace(string(raw))
		}
		if e.Status == 0 {
			e.Status = resp.StatusCode
		}
		if e.RequestID == "" {
			e.RequestID = resp.Header.Get("X-Request-Id")
		}
		if e.RetryAfterSeconds == 0 {
			if n, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && n > 0 {
				e.RetryAfterSeconds = n
			}
		}
		return &e
	}
	msg := strings.TrimSpace(string(raw))
	if msg == "" {
		msg = resp.Status
	}
	return &core.APIError{
		Code:      core.CodeUnknown,
		Status:    resp.StatusCode,
		Message:   msg,
		RequestID: resp.Header.Get("X-Request-Id"),
	}
}
