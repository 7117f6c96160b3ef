// Package httpsig secures the Host↔AM channel. The paper requires that
// after pairing, "the communication between a Host and an Authorization
// Manager is secure in terms of the integrity, confidentiality and
// authenticity of messages ... achieved using an access token that is
// generated by AM and obtained by a Host" (Section V.B.1).
//
// This package provides the integrity and authenticity half: every message
// is HMAC-SHA256-signed with the pairing secret over (method, path, body
// hash, timestamp, nonce), with a skew window and nonce replay cache.
// Confidentiality in deployment comes from TLS, which is transport
// configuration outside the protocol — exactly as in the paper's prototype.
package httpsig

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"umac/internal/core"
)

// Header names carrying the signature material.
const (
	HeaderPairing   = "X-Umac-Pairing"
	HeaderTimestamp = "X-Umac-Timestamp"
	HeaderNonce     = "X-Umac-Nonce"
	HeaderSignature = "X-Umac-Signature"
)

// MaxSkew is how far a signed message's timestamp may deviate from the
// verifier's clock before it is rejected.
const MaxSkew = 5 * time.Minute

// Errors returned by Verify.
var (
	// ErrUnsigned means the request carries no signature headers.
	ErrUnsigned = errors.New("httpsig: request not signed")
	// ErrBadSignature means the signature did not verify.
	ErrBadSignature = errors.New("httpsig: signature mismatch")
	// ErrSkew means the timestamp is outside the allowed window.
	ErrSkew = errors.New("httpsig: timestamp outside allowed skew")
	// ErrReplay means the nonce was already seen inside the skew window.
	ErrReplay = errors.New("httpsig: nonce replay")
	// ErrUnknownPairing means the verifier has no secret for the pairing.
	ErrUnknownPairing = errors.New("httpsig: unknown pairing")
)

// canonical builds the signed string. The body hash binds the payload; the
// timestamp and nonce prevent replay.
func canonical(method, path string, bodyHash []byte, ts int64, nonce string) []byte {
	var b bytes.Buffer
	b.WriteString(method)
	b.WriteByte('\n')
	b.WriteString(path)
	b.WriteByte('\n')
	b.Write(bodyHash)
	b.WriteByte('\n')
	b.WriteString(strconv.FormatInt(ts, 10))
	b.WriteByte('\n')
	b.WriteString(nonce)
	return b.Bytes()
}

func mac(secret string, msg []byte) []byte {
	m := hmac.New(sha256.New, []byte(secret))
	m.Write(msg)
	return m.Sum(nil)
}

// Sign signs req in place with the pairing credentials. It reads and
// restores the request body.
func Sign(req *http.Request, pairingID, secret string) error {
	var body []byte
	if req.Body != nil {
		var err error
		body, err = io.ReadAll(req.Body)
		if err != nil {
			return fmt.Errorf("httpsig: read body: %w", err)
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	h := sha256.Sum256(body)
	ts := time.Now().Unix()
	nonce := core.NewID("n")
	sig := mac(secret, canonical(req.Method, req.URL.Path, h[:], ts, nonce))
	req.Header.Set(HeaderPairing, pairingID)
	req.Header.Set(HeaderTimestamp, strconv.FormatInt(ts, 10))
	req.Header.Set(HeaderNonce, nonce)
	req.Header.Set(HeaderSignature, base64.RawURLEncoding.EncodeToString(sig))
	return nil
}

// SecretSource resolves a pairing ID to its channel secret.
type SecretSource interface {
	// PairingSecret returns the secret for the pairing, or false if the
	// pairing is unknown or revoked.
	PairingSecret(pairingID string) (string, bool)
}

// SecretSourceFunc adapts a function to SecretSource.
type SecretSourceFunc func(pairingID string) (string, bool)

// PairingSecret implements SecretSource.
func (f SecretSourceFunc) PairingSecret(pairingID string) (string, bool) { return f(pairingID) }

// Verifier checks signed requests against a secret source, enforcing skew
// and replay protection.
type Verifier struct {
	secrets SecretSource
	now     func() time.Time

	mu     sync.Mutex
	nonces map[string]time.Time
	sweep  time.Time
}

// NewVerifier returns a Verifier reading secrets from src.
func NewVerifier(src SecretSource) *Verifier {
	return &Verifier{secrets: src, now: time.Now, nonces: make(map[string]time.Time)}
}

// SetClock overrides the verifier's time source for tests.
func (v *Verifier) SetClock(now func() time.Time) { v.now = now }

// Verify checks the request's signature and returns the authenticated
// pairing ID. The request body is read and restored.
func (v *Verifier) Verify(req *http.Request) (pairingID string, err error) {
	pairingID = req.Header.Get(HeaderPairing)
	sigB64 := req.Header.Get(HeaderSignature)
	tsStr := req.Header.Get(HeaderTimestamp)
	nonce := req.Header.Get(HeaderNonce)
	if pairingID == "" || sigB64 == "" || tsStr == "" || nonce == "" {
		return "", ErrUnsigned
	}
	secret, ok := v.secrets.PairingSecret(pairingID)
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrUnknownPairing, pairingID)
	}
	ts, err := strconv.ParseInt(tsStr, 10, 64)
	if err != nil {
		return "", fmt.Errorf("%w: bad timestamp", ErrBadSignature)
	}
	now := v.now()
	if d := now.Sub(time.Unix(ts, 0)); d > MaxSkew || d < -MaxSkew {
		return "", fmt.Errorf("%w: %s", ErrSkew, time.Unix(ts, 0).Format(time.RFC3339))
	}
	var body []byte
	if req.Body != nil {
		body, err = io.ReadAll(req.Body)
		if err != nil {
			return "", fmt.Errorf("httpsig: read body: %w", err)
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	h := sha256.Sum256(body)
	want := mac(secret, canonical(req.Method, req.URL.Path, h[:], ts, nonce))
	got, err := core.DecodeSegment(sigB64)
	if err != nil || !hmac.Equal(got, want) {
		return "", ErrBadSignature
	}
	if err := v.rememberNonce(pairingID+"/"+nonce, now); err != nil {
		return "", err
	}
	return pairingID, nil
}

// rememberNonce records the nonce, rejecting duplicates still inside the
// replay horizon, and opportunistically sweeps expired entries.
func (v *Verifier) rememberNonce(key string, now time.Time) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if seen, ok := v.nonces[key]; ok && now.Sub(seen) <= MaxSkew {
		return ErrReplay
	}
	v.nonces[key] = now
	if now.Sub(v.sweep) > MaxSkew {
		for k, seen := range v.nonces {
			if now.Sub(seen) > MaxSkew {
				delete(v.nonces, k)
			}
		}
		v.sweep = now
	}
	return nil
}

// IsSigned reports whether the request carries signature headers (used to
// distinguish unsigned browser traffic from Host→AM API traffic).
func IsSigned(req *http.Request) bool {
	return req.Header.Get(HeaderSignature) != "" || req.Header.Get(HeaderPairing) != ""
}

// StripSignature removes signature headers (useful when proxying).
func StripSignature(req *http.Request) {
	for _, h := range []string{HeaderPairing, HeaderTimestamp, HeaderNonce, HeaderSignature} {
		req.Header.Del(h)
	}
}

// SignedPath reports whether a path should require signing under the given
// prefix convention (all Host↔AM API routes live under /api/).
func SignedPath(path, prefix string) bool {
	return strings.HasPrefix(path, prefix)
}
