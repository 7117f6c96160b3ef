// Package token implements the Authorization Manager's token service.
//
// The paper requires that an authorization token "refers to a particular
// resource or a group of resources (realm) and a particular Requester. It is
// issued by an Authorization Manager ... is bound to the access request and
// cannot be used to access other resources protected by this particular AM"
// (Section V.B.3). The paper planned to adopt OAuth-WRAP-style bearer
// tokens; this implementation uses self-contained HMAC-SHA256 tokens, which
// preserve exactly those binding semantics with stdlib crypto.
//
// A token is base64url(JSON claims) + "." + base64url(HMAC-SHA256(claims)).
// Only the issuing AM can mint or verify tokens (it holds the master key);
// Hosts do not verify tokens locally — they send them back to the AM inside
// decision queries (Fig. 6) — but the AM also exposes Validate for its own
// token-endpoint and decision-endpoint checks.
package token

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"umac/internal/core"
)

// Claims is the payload bound into an authorization token.
type Claims struct {
	// ID is a unique token identifier (useful for revocation and auditing).
	ID string `json:"id"`
	// Requester the token was issued to; tokens are non-transferable.
	Requester core.RequesterID `json:"requester"`
	// Subject is the human identity the Requester acts for (may be empty).
	Subject core.UserID `json:"subject,omitempty"`
	// Host and Realm scope the token: it opens exactly one realm at one
	// Host.
	Host  core.HostID  `json:"host"`
	Realm core.RealmID `json:"realm"`
	// IssuedAt and ExpiresAt bound the token's lifetime.
	IssuedAt  time.Time `json:"iat"`
	ExpiresAt time.Time `json:"exp"`
}

// Service mints and validates tokens with a single master key. Construct
// with NewService.
type Service struct {
	key []byte
	ttl time.Duration
	now func() time.Time
}

// DefaultTTL is the token lifetime used when NewService receives ttl <= 0.
// "Depending on the validity of the token, a Requester may need to obtain it
// only once and can use it for multiple subsequent access requests"
// (Section V.A.4) — so tokens are deliberately long-lived relative to a
// browsing session.
const DefaultTTL = 30 * time.Minute

// NewService returns a token service using the given master key. An empty
// key is replaced by a fresh random one (suitable for single-process AMs;
// pass an explicit key to survive restarts).
func NewService(key []byte, ttl time.Duration) *Service {
	if len(key) == 0 {
		key = []byte(core.NewSecret(32))
	} else {
		// Copy at the boundary: the caller may reuse its slice.
		key = append([]byte(nil), key...)
	}
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Service{key: key, ttl: ttl, now: time.Now}
}

// SetClock overrides the service's time source; tests use it to exercise
// expiry without sleeping.
func (s *Service) SetClock(now func() time.Time) { s.now = now }

// TTL returns the configured token lifetime.
func (s *Service) TTL() time.Duration { return s.ttl }

// Mint issues a token for the given binding. ID, IssuedAt and ExpiresAt are
// filled in by the service.
func (s *Service) Mint(requester core.RequesterID, subject core.UserID, host core.HostID, realm core.RealmID) (string, Claims, error) {
	if requester == "" || host == "" || realm == "" {
		return "", Claims{}, fmt.Errorf("token: requester, host and realm are required")
	}
	now := s.now()
	c := Claims{
		ID:        core.NewID("tok"),
		Requester: requester,
		Subject:   subject,
		Host:      host,
		Realm:     realm,
		IssuedAt:  now,
		ExpiresAt: now.Add(s.ttl),
	}
	payload, err := json.Marshal(c)
	if err != nil {
		return "", Claims{}, fmt.Errorf("token: encode claims: %w", err)
	}
	sig := s.sign(payload)
	tok := base64.RawURLEncoding.EncodeToString(payload) + "." +
		base64.RawURLEncoding.EncodeToString(sig)
	return tok, c, nil
}

// Validate checks the token's signature and expiry and returns its claims.
func (s *Service) Validate(tok string) (Claims, error) {
	payload, err := s.verify(tok)
	if err != nil {
		return Claims{}, err
	}
	var c Claims
	if err := json.Unmarshal(payload, &c); err != nil {
		return Claims{}, fmt.Errorf("%w: bad claims: %v", core.ErrTokenInvalid, err)
	}
	if s.now().After(c.ExpiresAt) {
		return Claims{}, fmt.Errorf("%w: expired at %s", core.ErrTokenInvalid, c.ExpiresAt.Format(time.RFC3339))
	}
	return c, nil
}

// CheckScope verifies that validated claims authorize the given use: the
// token must have been minted for this requester, host and realm. It
// returns core.ErrTokenScope otherwise. An empty requester skips the
// requester check (Hosts forward tokens without knowing the requester's
// self-declared identity; the AM re-checks).
func CheckScope(c Claims, requester core.RequesterID, host core.HostID, realm core.RealmID) error {
	if requester != "" && c.Requester != requester {
		return fmt.Errorf("%w: token for requester %q used by %q", core.ErrTokenScope, c.Requester, requester)
	}
	if c.Host != host {
		return fmt.Errorf("%w: token for host %q used at %q", core.ErrTokenScope, c.Host, host)
	}
	if c.Realm != realm {
		return fmt.Errorf("%w: token for realm %q used for %q", core.ErrTokenScope, c.Realm, realm)
	}
	return nil
}

func (s *Service) sign(payload []byte) []byte {
	mac := hmac.New(sha256.New, s.key)
	mac.Write(payload)
	return mac.Sum(nil)
}

// verify checks structure and signature, returning the payload bytes.
func (s *Service) verify(tok string) ([]byte, error) {
	dot := strings.IndexByte(tok, '.')
	if dot < 0 || strings.IndexByte(tok[dot+1:], '.') >= 0 {
		return nil, fmt.Errorf("%w: malformed", core.ErrTokenInvalid)
	}
	payload, err := core.DecodeSegment(tok[:dot])
	if err != nil {
		return nil, fmt.Errorf("%w: bad payload encoding", core.ErrTokenInvalid)
	}
	sig, err := core.DecodeSegment(tok[dot+1:])
	if err != nil {
		return nil, fmt.Errorf("%w: bad signature encoding", core.ErrTokenInvalid)
	}
	if !hmac.Equal(sig, s.sign(payload)) {
		return nil, fmt.Errorf("%w: signature mismatch", core.ErrTokenInvalid)
	}
	return payload, nil
}
