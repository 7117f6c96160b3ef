package core

import (
	"errors"
	"fmt"
)

// This file defines the structured error envelope of the versioned AM API.
// Every AM error response carries one APIError rendered as an
// application/problem+json-style body: a stable machine-readable code the
// PEP/Requester retry logic can branch on, the HTTP status, a human
// message, a retryable hint, and the request ID for cross-log correlation.
// The code registry below is part of the wire contract (docs/PROTOCOL.md):
// codes are only ever added, never renamed or removed.

// API error codes. Stable: clients may compare against these strings.
const (
	// CodeBadRequest: malformed body, unknown fields, invalid parameters.
	CodeBadRequest = "bad_request"
	// CodeUnauthenticated: a session-authenticated route was called without
	// (or with an invalid) user session.
	CodeUnauthenticated = "unauthenticated"
	// CodeSignatureInvalid: a signed Host route was called unsigned, with a
	// bad signature, an unknown/revoked pairing, or excessive clock skew.
	CodeSignatureInvalid = "signature_invalid"
	// CodeSignatureReplay: the signature nonce was already seen; re-sign
	// with a fresh nonce and retry.
	CodeSignatureReplay = "signature_replay"
	// CodeTokenInvalid: the authorization token is malformed, forged or
	// expired.
	CodeTokenInvalid = "token_invalid"
	// CodeTokenScope: a valid token was used outside the (requester, realm)
	// it is bound to.
	CodeTokenScope = "token_scope"
	// CodeAccessDenied: the policy decision is deny.
	CodeAccessDenied = "access_denied"
	// CodeForbidden: the authenticated actor lacks management rights over
	// the targeted owner's state.
	CodeForbidden = "forbidden"
	// CodeNotPaired: no (valid) pairing with the calling Host.
	CodeNotPaired = "not_paired"
	// CodeUnknownRealm: the named realm is not protected by this AM.
	CodeUnknownRealm = "unknown_realm"
	// CodeNotFound: any other missing entity (policy, ticket, link).
	CodeNotFound = "not_found"
	// CodeConflict: the request conflicts with current server state — a
	// stale ring version push, or a rebalance started while a different
	// unfinished plan is checkpointed. Resolve the conflict (refresh the
	// ring; resume or abort the existing plan) before retrying.
	CodeConflict = "conflict"
	// CodePairingCodeInvalid: the one-time pairing code is unknown, expired,
	// consumed, or presented by the wrong Host.
	CodePairingCodeInvalid = "pairing_code_invalid"
	// CodeInternal: the handler panicked or hit an unexpected fault; the
	// request may be retried.
	CodeInternal = "internal"
	// CodeUnavailable: the AM is draining (readiness probe); retry against
	// another instance.
	CodeUnavailable = "unavailable"
	// CodeNotPrimary: a write was sent to a read-only follower; retry
	// against the primary (the Leader field carries its base URL when the
	// follower knows it).
	CodeNotPrimary = "not_primary"
	// CodeWALTruncated: the requested replication offset predates the
	// primary's retained WAL window (compaction or buffer overflow); the
	// follower must re-bootstrap from GET /v1/replication/snapshot.
	CodeWALTruncated = "wal_truncated"
	// CodeWrongShard: the request targets a resource owner that a
	// different shard of the cluster owns; retry against the shard named
	// in the Shard hint (its primary base URL) after refreshing the ring
	// from GET /v1/cluster.
	CodeWrongShard = "wrong_shard"
	// CodeRateLimited: the caller exhausted its per-tenant token-bucket
	// budget (pairing, session or remote-IP tier). Retry after the delay
	// named by the Retry-After header / RetryAfterSeconds field; hammering
	// sooner only refills the 429 counter.
	CodeRateLimited = "rate_limited"
	// CodeRequestTooLarge: the request body exceeds the server's size cap.
	// Not retryable — the same payload will be rejected again.
	CodeRequestTooLarge = "request_too_large"
	// CodeUnknown is used client-side for error responses that carry no
	// machine-readable code (proxies, non-AM servers).
	CodeUnknown = "unknown"
)

// codeInfo is the registry backing NewAPIError: default status, retryable
// hint, and the sentinel error the code unwraps to (nil if none).
var codeInfo = map[string]struct {
	status    int
	retryable bool
	sentinel  error
}{
	CodeBadRequest:         {400, false, nil},
	CodeUnauthenticated:    {401, false, nil},
	CodeSignatureInvalid:   {401, false, nil},
	CodeSignatureReplay:    {409, true, nil},
	CodeTokenInvalid:       {401, false, ErrTokenInvalid},
	CodeTokenScope:         {401, false, ErrTokenScope},
	CodeAccessDenied:       {403, false, ErrAccessDenied},
	CodeForbidden:          {403, false, nil},
	CodeNotPaired:          {404, false, ErrNotPaired},
	CodeUnknownRealm:       {404, false, ErrUnknownRealm},
	CodeNotFound:           {404, false, nil},
	CodeConflict:           {409, false, nil},
	CodePairingCodeInvalid: {403, false, nil},
	CodeInternal:           {500, true, ErrInternalFault},
	CodeUnavailable:        {503, true, nil},
	CodeNotPrimary:         {421, true, nil},
	CodeWALTruncated:       {410, false, nil},
	CodeWrongShard:         {421, true, nil},
	CodeRateLimited:        {429, true, nil},
	CodeRequestTooLarge:    {413, false, nil},
	CodeUnknown:            {500, false, nil},
}

// APIError is the structured error envelope of the v1 AM API.
type APIError struct {
	// Code is the stable machine-readable error class (registry above).
	Code string `json:"code"`
	// Status is the HTTP status the error was (or should be) served with.
	Status int `json:"status"`
	// Message is the human-auditable explanation.
	Message string `json:"message"`
	// Retryable hints that the identical request may succeed if retried
	// (fresh nonce, transient fault, another instance).
	Retryable bool `json:"retryable"`
	// RequestID correlates the response with the AM's logs and metrics.
	RequestID string `json:"request_id,omitempty"`
	// Leader is the primary's base URL on not_primary errors: the endpoint
	// a client should retry the write against. Best-effort — a follower
	// that has lost its primary may leave it empty.
	Leader string `json:"leader,omitempty"`
	// Shard is the owning shard's primary base URL on wrong_shard errors:
	// the endpoint a client should chase (exactly once) after refreshing
	// its ring. Best-effort — empty when the answering node cannot name
	// the owner's shard.
	Shard string `json:"shard,omitempty"`
	// RetryAfterSeconds is the server's backoff hint on rate_limited
	// errors: how long (in whole seconds, rounded up) until the caller's
	// token bucket can cover the rejected request. Mirrored in the
	// Retry-After response header.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// Error implements error. Responses without a machine-readable code
// (proxies, non-AM servers) fall back to the HTTP status as the classifier.
func (e *APIError) Error() string {
	if e.Code == "" || e.Code == CodeUnknown {
		return fmt.Sprintf("status %d: %s", e.Status, e.Message)
	}
	return e.Message + " [" + e.Code + "]"
}

// Unwrap maps the wire code back to the protocol sentinel, so
// errors.Is(err, core.ErrAccessDenied) keeps working across an HTTP hop.
func (e *APIError) Unwrap() error {
	if info, ok := codeInfo[e.Code]; ok {
		return info.sentinel
	}
	return nil
}

// NewAPIError builds an APIError for a registered code; status and
// retryable come from the registry. Unregistered codes get status 500.
func NewAPIError(code, message string) *APIError {
	info, ok := codeInfo[code]
	if !ok {
		info.status = 500
	}
	return &APIError{Code: code, Status: info.status, Message: message, Retryable: info.retryable}
}

// APIErrorf is NewAPIError with formatting.
func APIErrorf(code, format string, args ...any) *APIError {
	return NewAPIError(code, fmt.Sprintf(format, args...))
}

// APIErrorFor classifies an arbitrary error: an *APIError passes through,
// protocol sentinels map to their codes, anything else is bad_request —
// the default the pre-v1 surface used, because the unmatched population
// is overwhelmingly validation errors ("am: protect requires a realm").
// Server-side faults that deserve internal/503 must be raised as explicit
// APIError values (or new sentinels) at the site that knows the cause.
func APIErrorFor(err error) *APIError {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae
	}
	code := CodeBadRequest
	switch {
	case errors.Is(err, ErrInternalFault):
		code = CodeInternal
	case errors.Is(err, ErrAccessDenied):
		code = CodeAccessDenied
	case errors.Is(err, ErrTokenInvalid):
		code = CodeTokenInvalid
	case errors.Is(err, ErrTokenScope):
		code = CodeTokenScope
	case errors.Is(err, ErrUnknownRealm):
		code = CodeUnknownRealm
	case errors.Is(err, ErrNotPaired):
		code = CodeNotPaired
	}
	return NewAPIError(code, err.Error())
}
