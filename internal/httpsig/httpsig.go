// Package httpsig secures the Host↔AM channel. The paper requires that
// after pairing, "the communication between a Host and an Authorization
// Manager is secure in terms of the integrity, confidentiality and
// authenticity of messages ... achieved using an access token that is
// generated by AM and obtained by a Host" (Section V.B.1).
//
// This package provides the integrity and authenticity half: every message
// is HMAC-SHA256-signed with the pairing secret over (method, path, body
// hash, timestamp, nonce), with a skew window and a replay filter.
// Confidentiality in deployment comes from TLS, which is transport
// configuration outside the protocol — exactly as in the paper's prototype.
//
// As in RFC 5849 §3.3, a nonce must be unique per (pairing, timestamp):
// the verifier refuses a (pairing, timestamp, nonce) it has accepted for as
// long as that timestamp is inside the skew window.
package httpsig

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"umac/internal/webutil"
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

// appendCanonical appends the signed string to dst. The body hash binds
// the payload; the timestamp and nonce prevent replay.
func appendCanonical[N string | []byte](dst []byte, method, path string, bodyHash []byte, ts int64, nonce N) []byte {
	dst = append(dst, method...)
	dst = append(dst, '\n')
	dst = append(dst, path...)
	dst = append(dst, '\n')
	dst = append(dst, bodyHash...)
	dst = append(dst, '\n')
	dst = strconv.AppendInt(dst, ts, 10)
	dst = append(dst, '\n')
	return append(dst, nonce...)
}

// mac is HMAC-SHA256 (RFC 2104) keyed with secret over the canonical
// string of (method, path, body, ts, nonce). The string is assembled once,
// after the inner key block, in one stack buffer.
func mac[N string | []byte](secret, method, path string, body []byte, ts int64, nonce N) [sha256.Size]byte {
	var key [sha256.BlockSize]byte
	if len(secret) > sha256.BlockSize {
		sum := sha256.Sum256([]byte(secret))
		copy(key[:], sum[:])
	} else {
		copy(key[:], secret)
	}
	var buf [sha256.BlockSize + 192]byte
	for i, k := range key {
		buf[i] = k ^ 0x36
	}
	bodyHash := sha256.Sum256(body)
	inner := sha256.Sum256(appendCanonical(buf[:sha256.BlockSize], method, path, bodyHash[:], ts, nonce))
	var outer [sha256.BlockSize + sha256.Size]byte
	for i, k := range key {
		outer[i] = k ^ 0x5c
	}
	copy(outer[sha256.BlockSize:], inner[:])
	return sha256.Sum256(outer[:])
}

// Sign signs req in place with the pairing credentials. It reads and
// restores the request body; callers holding the body bytes use SignBody.
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
	SignBody(req, pairingID, secret, body)
	return nil
}

// nonceLen is the length of a nonce: "n-" and 16 random bytes in hex.
const nonceLen = 2 + 2*16

// SignBody signs req in place for body, the exact bytes the caller sends
// as its body; req.Body is not read.
func SignBody(req *http.Request, pairingID, secret string, body []byte) {
	ts := time.Now().Unix()
	var random [16]byte
	_, _ = rand.Read(random[:])
	// The three generated header values share one string: timestamp,
	// nonce, then signature.
	var buf [20 + nonceLen + 43]byte
	b := strconv.AppendInt(buf[:0], ts, 10)
	tsEnd := len(b)
	b = append(b, "n-"...)
	b = hex.AppendEncode(b, random[:])
	nonceEnd := len(b)
	sig := mac(secret, req.Method, req.URL.Path, body, ts, b[tsEnd:nonceEnd])
	b = base64.RawURLEncoding.AppendEncode(b, sig[:])
	vals := string(b)
	hv := make([]string, 4)
	hv[0], hv[1], hv[2], hv[3] = pairingID, vals[:tsEnd], vals[tsEnd:nonceEnd], vals[nonceEnd:]
	req.Header[HeaderPairing] = hv[0:1:1]
	req.Header[HeaderTimestamp] = hv[1:2:2]
	req.Header[HeaderNonce] = hv[2:3:3]
	req.Header[HeaderSignature] = hv[3:4:4]
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
	replays replayFilter
}

// NewVerifier returns a Verifier reading secrets from src.
func NewVerifier(src SecretSource) *Verifier {
	v := &Verifier{secrets: src, now: time.Now}
	v.replays.init()
	return v
}

// SetClock overrides the verifier's time source for tests.
func (v *Verifier) SetClock(now func() time.Time) { v.now = now }

// Verify checks the request's signature and returns the authenticated
// pairing ID. It reads the body (refusing one over webutil.MaxBodyBytes
// with *http.MaxBytesError) and restores it for the handler; servers that
// hand the body bytes on themselves use VerifyBody.
func (v *Verifier) Verify(req *http.Request) (pairingID string, err error) {
	pairingID = req.Header.Get(HeaderPairing)
	if pairingID == "" {
		return "", ErrUnsigned
	}
	secret, ok := v.secrets.PairingSecret(pairingID)
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrUnknownPairing, pairingID)
	}
	body, err := webutil.ReadBody(nil, req)
	if err != nil {
		return "", err
	}
	if req.Body != nil {
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	if err := v.VerifyBody(req, secret, body); err != nil {
		return "", err
	}
	return pairingID, nil
}

// VerifyBody checks req's signature over body, the request's body already
// read by the caller, with secret, the secret of the pairing req's
// HeaderPairing names. A request that verifies is remembered, so the same
// one is refused with ErrReplay for as long as its timestamp is inside the
// skew window.
func (v *Verifier) VerifyBody(req *http.Request, secret string, body []byte) error {
	pairingID := req.Header.Get(HeaderPairing)
	sigB64 := req.Header.Get(HeaderSignature)
	tsStr := req.Header.Get(HeaderTimestamp)
	nonce := req.Header.Get(HeaderNonce)
	if pairingID == "" || sigB64 == "" || tsStr == "" || nonce == "" {
		return ErrUnsigned
	}
	ts, err := strconv.ParseInt(tsStr, 10, 64)
	if err != nil {
		return fmt.Errorf("%w: bad timestamp", ErrBadSignature)
	}
	if d := v.now().Sub(time.Unix(ts, 0)); d > MaxSkew || d < -MaxSkew {
		return fmt.Errorf("%w: %s", ErrSkew, time.Unix(ts, 0).Format(time.RFC3339))
	}
	// Comparing the signature's spelling with the expected MAC's canonical
	// encoding also refuses every other spelling of the same bytes, as
	// core.DecodeSegment does for tokens.
	want := mac(secret, req.Method, req.URL.Path, body, ts, nonce)
	var enc [43]byte
	base64.RawURLEncoding.Encode(enc[:], want[:])
	if !equalMAC(enc[:], sigB64) {
		return ErrBadSignature
	}
	return v.replays.admit(pairingID, ts, nonce)
}

// equalMAC compares an encoded MAC in constant time.
func equalMAC(enc []byte, s string) bool {
	if len(enc) != len(s) {
		return false
	}
	var diff byte
	for i := range enc {
		diff |= enc[i] ^ s[i]
	}
	return diff == 0
}

// The replay filter remembers every accepted (pairing, timestamp, nonce)
// for as long as its timestamp is inside the skew window — ts+MaxSkew, not
// arrival+MaxSkew, so a request signed by a Host whose clock runs ahead
// cannot be replayed once its arrival is MaxSkew old. Entries live in a
// ring of buckets by signed timestamp, bucketSeconds wide: an entry is
// looked up only in its own timestamp's bucket, and a bucket is dropped
// whole once every timestamp it holds is 2·MaxSkew older than one just
// admitted, when they have all left the window. There is no per-entry
// expiry and no sweep.
//
// A key is a 64-bit keyed hash of the triple, and a bucket's map holds
// nothing the garbage collector must scan. A collision between two
// distinct triples can only make the filter refuse a fresh request as a
// replay — retryable, the Host signs again with a new nonce — and can never
// admit a replay, which hashes to the very key its first acceptance stored.
// With a bucket holding n keys the chance of that refusal is n/2⁶⁴ per
// request, and the per-process random seed keeps it out of a sender's
// control.
const (
	bucketSeconds = 10
	// windowPeriods is the skew window, 2·MaxSkew, in buckets.
	windowPeriods = int64(2 * MaxSkew / time.Second / bucketSeconds)
	// replayBuckets covers the 2·MaxSkew window plus a bucket of slack:
	// a slot is reused only for a timestamp replayBuckets·bucketSeconds
	// newer than the one it held, and then that one is out of the window.
	replayBuckets = 64
)

// replayKey is the keyed hash of one (pairing, timestamp, nonce).
type replayKey uint64

// replayBucket holds the keys of the timestamps of one bucketSeconds
// period.
type replayBucket struct {
	period int64 // ts / bucketSeconds of every key held
	keys   map[replayKey]struct{}
}

type replayFilter struct {
	seed maphash.Seed

	mu      sync.Mutex
	buckets [replayBuckets]replayBucket
	newest  int64 // the newest period admitted
}

func (f *replayFilter) init() { f.seed = maphash.MakeSeed() }

// key hashes the triple, length-prefixing the strings so distinct triples
// never write the same bytes.
func (f *replayFilter) key(pairingID string, ts int64, nonce string) replayKey {
	var h maphash.Hash
	h.SetSeed(f.seed)
	var n [24]byte
	binary.LittleEndian.PutUint64(n[0:], uint64(len(pairingID)))
	binary.LittleEndian.PutUint64(n[8:], uint64(ts))
	binary.LittleEndian.PutUint64(n[16:], uint64(len(nonce)))
	h.Write(n[:])
	h.WriteString(pairingID)
	h.WriteString(nonce)
	return replayKey(h.Sum64())
}

// admit records the triple, or returns ErrReplay if it is already there.
// A timestamp older than its slot's current period (the verifier's clock
// went back by more than the window) is refused as ErrSkew: the filter no
// longer holds what it would need to tell a replay.
func (f *replayFilter) admit(pairingID string, ts int64, nonce string) error {
	k := f.key(pairingID, ts, nonce)
	period := ts / bucketSeconds
	if ts < 0 {
		period = (ts - bucketSeconds + 1) / bucketSeconds
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if period > f.newest {
		f.newest = period
		f.expire(period)
	}
	b := &f.buckets[(period%replayBuckets+replayBuckets)%replayBuckets]
	switch {
	case b.keys == nil || b.period < period:
		b.period, b.keys = period, make(map[replayKey]struct{})
	case b.period > period:
		return fmt.Errorf("%w: %s predates the replay window", ErrSkew, time.Unix(ts, 0).Format(time.RFC3339))
	}
	if _, seen := b.keys[k]; seen {
		return ErrReplay
	}
	b.keys[k] = struct{}{}
	return nil
}

// expire drops every bucket whose timestamps all lie more than 2·MaxSkew
// before period, the period of a timestamp just admitted: that timestamp
// is at most MaxSkew ahead of the clock, so theirs are all more than
// MaxSkew behind it and fail the skew check. It runs once per new period,
// over the ring's 64 slots.
func (f *replayFilter) expire(period int64) {
	for i := range f.buckets {
		if b := &f.buckets[i]; b.keys != nil && b.period+windowPeriods < period {
			b.keys = nil
		}
	}
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
