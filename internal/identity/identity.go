// Package identity is the authentication substrate. The paper deliberately
// keeps authentication out of the access-control protocol: "we assume that
// this process can be completed with existing technologies. For example a
// User could authenticate to a Host using OpenID or Google Account
// credentials" (Section V.B). This package supplies that existing
// technology in miniature: a redirect-based identity provider issuing
// signed assertions, plus cookie-session middleware that Hosts and the AM
// use to know who is driving the browser.
package identity

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"umac/internal/core"
)

// Authenticator extracts the authenticated user from a request. Components
// accept any Authenticator so deployments can swap in real OpenID.
type Authenticator interface {
	// Authenticate returns the user driving the request, or ok=false when
	// the request is anonymous.
	Authenticate(r *http.Request) (core.UserID, bool)
}

// HeaderAuth authenticates via a trusted header. It stands in for a
// reverse-proxy-injected identity in tests and CLI tools.
type HeaderAuth struct {
	// Header is the header name; empty means "X-Umac-User".
	Header string
}

// DefaultUserHeader is the header HeaderAuth reads when unconfigured.
const DefaultUserHeader = "X-Umac-User"

// Authenticate implements Authenticator.
func (h HeaderAuth) Authenticate(r *http.Request) (core.UserID, bool) {
	name := h.Header
	if name == "" {
		name = DefaultUserHeader
	}
	u := r.Header.Get(name)
	return core.UserID(u), u != ""
}

// Provider is a minimal identity provider. Users are registered with
// passwords; a login issues an HMAC-signed assertion that relying parties
// verify offline with the provider's public verification secret — a
// simplification of OpenID association that preserves the redirect shape.
type Provider struct {
	mu    sync.RWMutex
	users map[core.UserID]string
	key   []byte
	ttl   time.Duration
	now   func() time.Time
}

// NewProvider returns a provider with the given assertion lifetime
// (<=0 means 10 minutes).
func NewProvider(ttl time.Duration) *Provider {
	if ttl <= 0 {
		ttl = 10 * time.Minute
	}
	return &Provider{
		users: make(map[core.UserID]string),
		key:   []byte(core.NewSecret(32)),
		ttl:   ttl,
		now:   time.Now,
	}
}

// Register adds or replaces a user credential.
func (p *Provider) Register(user core.UserID, password string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.users[user] = password
}

// assertion is the signed login proof.
type assertion struct {
	User      core.UserID `json:"user"`
	ExpiresAt time.Time   `json:"exp"`
}

// Login checks credentials and returns a signed assertion.
func (p *Provider) Login(user core.UserID, password string) (string, error) {
	p.mu.RLock()
	want, ok := p.users[user]
	p.mu.RUnlock()
	if !ok || want != password {
		return "", fmt.Errorf("identity: invalid credentials for %q", user)
	}
	payload, err := json.Marshal(assertion{User: user, ExpiresAt: p.now().Add(p.ttl)})
	if err != nil {
		return "", fmt.Errorf("identity: encode assertion: %w", err)
	}
	sig := p.sign(payload)
	return base64.RawURLEncoding.EncodeToString(payload) + "." +
		base64.RawURLEncoding.EncodeToString(sig), nil
}

// VerifyAssertion validates an assertion and returns the asserted user.
func (p *Provider) VerifyAssertion(a string) (core.UserID, error) {
	dot := strings.IndexByte(a, '.')
	if dot < 0 {
		return "", fmt.Errorf("identity: malformed assertion")
	}
	payload, err := core.DecodeSegment(a[:dot])
	if err != nil {
		return "", fmt.Errorf("identity: bad assertion payload")
	}
	sig, err := core.DecodeSegment(a[dot+1:])
	if err != nil || !hmac.Equal(sig, p.sign(payload)) {
		return "", fmt.Errorf("identity: assertion signature mismatch")
	}
	var as assertion
	if err := json.Unmarshal(payload, &as); err != nil {
		return "", fmt.Errorf("identity: bad assertion: %w", err)
	}
	if p.now().After(as.ExpiresAt) {
		return "", fmt.Errorf("identity: assertion expired")
	}
	return as.User, nil
}

func (p *Provider) sign(payload []byte) []byte {
	m := hmac.New(sha256.New, p.key)
	m.Write(payload)
	return m.Sum(nil)
}

// Handler serves the provider's HTTP endpoints:
//
//	GET/POST /login?user=&password=&return_to=  →  302 return_to?assertion=...
//
// matching the redirect choreography a Host initiates when it wants the
// browser's user authenticated.
func (p *Provider) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/login", func(w http.ResponseWriter, r *http.Request) {
		user := core.UserID(r.FormValue("user"))
		pass := r.FormValue("password")
		returnTo := r.FormValue(core.ParamReturnTo)
		a, err := p.Login(user, pass)
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnauthorized)
			return
		}
		if returnTo == "" {
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]string{"assertion": a})
			return
		}
		u, err := url.Parse(returnTo)
		if err != nil {
			http.Error(w, "bad return_to", http.StatusBadRequest)
			return
		}
		q := u.Query()
		q.Set("assertion", a)
		u.RawQuery = q.Encode()
		http.Redirect(w, r, u.String(), http.StatusFound)
	})
	return mux
}

// Sessions is cookie-session middleware backed by the provider's
// assertions: a relying party (Host or AM) exchanges a verified assertion
// for a session cookie.
type Sessions struct {
	// CookieName identifies the session cookie; empty means "umac_session".
	CookieName string
	provider   *Provider

	mu       sync.RWMutex
	sessions map[string]core.UserID
}

// NewSessions returns session middleware verifying assertions against p.
func NewSessions(p *Provider) *Sessions {
	return &Sessions{provider: p, sessions: make(map[string]core.UserID)}
}

func (s *Sessions) cookieName() string {
	if s.CookieName == "" {
		return "umac_session"
	}
	return s.CookieName
}

// Establish verifies the assertion and sets a session cookie on w.
func (s *Sessions) Establish(w http.ResponseWriter, assertionStr string) (core.UserID, error) {
	user, err := s.provider.VerifyAssertion(assertionStr)
	if err != nil {
		return "", err
	}
	id := core.NewID("sess")
	s.mu.Lock()
	s.sessions[id] = user
	s.mu.Unlock()
	http.SetCookie(w, &http.Cookie{Name: s.cookieName(), Value: id, Path: "/", HttpOnly: true})
	return user, nil
}

// Authenticate implements Authenticator via the session cookie.
func (s *Sessions) Authenticate(r *http.Request) (core.UserID, bool) {
	c, err := r.Cookie(s.cookieName())
	if err != nil {
		return "", false
	}
	s.mu.RLock()
	user, ok := s.sessions[c.Value]
	s.mu.RUnlock()
	return user, ok
}

// Revoke terminates the session carried by the request, if any.
func (s *Sessions) Revoke(r *http.Request) {
	c, err := r.Cookie(s.cookieName())
	if err != nil {
		return
	}
	s.mu.Lock()
	delete(s.sessions, c.Value)
	s.mu.Unlock()
}

// Interface compliance.
var (
	_ Authenticator = HeaderAuth{}
	_ Authenticator = (*Sessions)(nil)
)
