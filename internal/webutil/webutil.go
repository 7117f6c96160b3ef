// Package webutil holds the small HTTP helpers shared by the AM, Hosts and
// prototype applications: JSON request/response plumbing and error mapping.
package webutil

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync/atomic"

	"umac/internal/core"
)

// MaxBodyBytes bounds request bodies accepted by ReadJSON and ReadBody.
const MaxBodyBytes = 4 << 20 // 4 MiB

// ReadBody appends r's body to dst and returns the result. It reads at most
// MaxBodyBytes+1 bytes: a longer body (or a declared Content-Length over the
// cap) is refused with *http.MaxBytesError, which Fail answers with
// request_too_large, and the rest is never read.
func ReadBody(dst []byte, r *http.Request) ([]byte, error) {
	if r.Body == nil || r.Body == http.NoBody {
		return dst, nil
	}
	return AppendBody(dst, r.Body, r.ContentLength)
}

// AppendBody is ReadBody for any body stream; length is its declared
// length, or -1 when unknown.
func AppendBody(dst []byte, body io.Reader, length int64) ([]byte, error) {
	if length > MaxBodyBytes {
		return dst, &http.MaxBytesError{Limit: MaxBodyBytes}
	}
	if length > 0 && cap(dst)-len(dst) < int(length) {
		dst = append(make([]byte, 0, len(dst)+int(length)), dst...)
	}
	start := len(dst)
	lr := io.LimitedReader{R: body, N: MaxBodyBytes + 1}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := lr.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return dst, err
		}
	}
	if len(dst)-start > MaxBodyBytes {
		return dst, &http.MaxBytesError{Limit: MaxBodyBytes}
	}
	return dst, nil
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if v != nil {
		_ = json.NewEncoder(w).Encode(v)
	}
}

// ErrorBody is the plain JSON error body of the prototype Host
// applications (the AM answers with the structured core.APIError instead).
type ErrorBody struct {
	Error string `json:"error"`
}

// WriteError writes a JSON error response.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, ErrorBody{Error: err.Error()})
}

// WriteErrorf writes a formatted JSON error response.
func WriteErrorf(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, ErrorBody{Error: fmt.Sprintf(format, args...)})
}

// ProblemContentType is the content type of structured error responses.
const ProblemContentType = "application/problem+json"

// SanitizedMessage is the only message a sanitized 5xx body carries; the
// real cause is logged server-side under the request ID.
const SanitizedMessage = "internal error"

// internalLogSink receives the full cause of every sanitized 5xx. Stored
// as an atomic so the sanitization audit can capture causes without
// racing live traffic.
var internalLogSink atomic.Value // of func(requestID string, e *core.APIError)

// SetInternalErrorLog replaces the server-side sink sanitized 5xx causes
// are reported to (nil restores the default log.Printf sink) and returns
// the previous sink. The sink runs on the request goroutine — keep it
// fast and never let it write to the response.
func SetInternalErrorLog(fn func(requestID string, e *core.APIError)) func(string, *core.APIError) {
	if fn == nil {
		fn = defaultInternalLog
	}
	prev, _ := internalLogSink.Swap(fn).(func(string, *core.APIError))
	return prev
}

// defaultInternalLog is the stock sink: one server-log line keyed by the
// request ID, carrying everything the sanitized body withholds.
func defaultInternalLog(requestID string, e *core.APIError) {
	log.Printf("webutil: internal error [req %s] code=%s status=%d: %s", requestID, e.Code, e.Status, e.Message)
}

func init() { internalLogSink.Store(defaultInternalLog) }

// sanitize returns the envelope actually written for e: 5xx messages are
// replaced with SanitizedMessage after the full cause is handed to the
// internal log sink, so filesystem paths, wrapped Go error chains and WAL
// internals never reach the wire. The one exception is "unavailable"
// (503): its message is the server's own drain announcement, carries no
// internals, and clients display it. 4xx envelopes pass through — their
// messages describe the caller's own input.
func sanitize(e *core.APIError) *core.APIError {
	if e.Status < http.StatusInternalServerError || e.Code == core.CodeUnavailable {
		return e
	}
	if sink, ok := internalLogSink.Load().(func(string, *core.APIError)); ok {
		sink(e.RequestID, e)
	}
	if e.Message == SanitizedMessage {
		return e
	}
	clean := *e
	clean.Message = SanitizedMessage
	return &clean
}

// WriteAPIError writes the structured error envelope, stamping the request
// ID from the request context when the error carries none. It is the
// single funnel every error response passes through: 5xx messages are
// sanitized (full cause to the server log, stable envelope to the wire)
// and rate_limited hints gain their Retry-After header here, so no
// handler can leak or forget either.
func WriteAPIError(w http.ResponseWriter, r *http.Request, e *core.APIError) {
	if e.RequestID == "" && r != nil {
		e.RequestID = RequestIDFrom(r.Context())
	}
	e = sanitize(e)
	if e.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfterSeconds))
	}
	w.Header().Set("Content-Type", ProblemContentType)
	w.WriteHeader(e.Status)
	_ = json.NewEncoder(w).Encode(e)
}

// Fail classifies err (core.APIErrorFor) and writes the envelope. Bodies
// rejected by a MaxBytesReader cap map to request_too_large (413).
func Fail(w http.ResponseWriter, r *http.Request, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		WriteAPIError(w, r, core.APIErrorf(core.CodeRequestTooLarge,
			"webutil: request body exceeds %d bytes", mbe.Limit))
		return
	}
	WriteAPIError(w, r, core.APIErrorFor(err))
}

// FailCode writes the envelope for an explicit error code.
func FailCode(w http.ResponseWriter, r *http.Request, code, format string, args ...any) {
	WriteAPIError(w, r, core.APIErrorf(code, format, args...))
}

// Pagination defaults for the list endpoints: a request with no explicit
// limit gets DefaultPageLimit items; explicit limits are capped at
// MaxPageLimit so one response cannot dump a million-event log.
const (
	DefaultPageLimit = 100
	MaxPageLimit     = 1000
)

// Pagination response headers. The body stays a plain JSON array (the
// pre-v1 shape); the page frame travels in headers.
const (
	HeaderTotalCount = "X-Total-Count"
	HeaderNextOffset = "X-Next-Offset"
)

// ParsePage reads ?offset= and ?limit= with the shared defaults. Invalid
// values yield a bad_request APIError.
func ParsePage(r *http.Request) (offset, limit int, err error) {
	offset, err = pageInt(r, "offset", 0)
	if err != nil {
		return 0, 0, err
	}
	limit, err = pageInt(r, "limit", DefaultPageLimit)
	if err != nil {
		return 0, 0, err
	}
	if limit <= 0 || limit > MaxPageLimit {
		limit = MaxPageLimit
	}
	return offset, limit, nil
}

func pageInt(r *http.Request, name string, def int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return 0, core.APIErrorf(core.CodeBadRequest, "webutil: %s must be a non-negative integer, got %q", name, raw)
	}
	return n, nil
}

// WritePage slices items to [offset, offset+limit), sets the pagination
// headers and writes the page as a JSON array. total is the pre-slice
// size of the filtered set.
func WritePage[T any](w http.ResponseWriter, status int, items []T, total, offset, limit int) {
	if offset > len(items) {
		offset = len(items)
	}
	end := offset + limit
	if end > len(items) {
		end = len(items)
	}
	WritePageFrame(w, status, items[offset:end], total, offset)
}

// WritePageFrame writes an already-windowed page whose first element sits
// at offset within the total matching set (for handlers that window at
// the source, like the audit log). It sets the pagination headers and
// writes the page as a JSON array.
func WritePageFrame[T any](w http.ResponseWriter, status int, page []T, total, offset int) {
	w.Header().Set(HeaderTotalCount, strconv.Itoa(total))
	if next := offset + len(page); next < total {
		w.Header().Set(HeaderNextOffset, strconv.Itoa(next))
	}
	// An empty page renders as [] (not null) so clients can range over it.
	if page == nil {
		page = []T{}
	}
	WriteJSON(w, status, page)
}

// StatusFor maps protocol errors to HTTP statuses.
func StatusFor(err error) int {
	switch {
	case errors.Is(err, core.ErrAccessDenied):
		return http.StatusForbidden
	case errors.Is(err, core.ErrTokenInvalid), errors.Is(err, core.ErrTokenScope):
		return http.StatusUnauthorized
	case errors.Is(err, core.ErrUnknownRealm), errors.Is(err, core.ErrNotPaired):
		return http.StatusNotFound
	default:
		return http.StatusBadRequest
	}
}

// ReadJSON decodes the request body into v, rejecting oversized bodies and
// trailing garbage.
func ReadJSON(r *http.Request, v any) error {
	return decodeStrict(json.NewDecoder(http.MaxBytesReader(nil, r.Body, MaxBodyBytes)), v)
}

// DecodeJSON is ReadJSON over a body already read (ReadBody).
func DecodeJSON(body []byte, v any) error {
	return decodeStrict(json.NewDecoder(bytes.NewReader(body)), v)
}

// decodeStrict decodes one value, refusing unknown fields and anything but
// whitespace after the value.
func decodeStrict(dec *json.Decoder, v any) error {
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("webutil: decode body: %w", err)
	}
	switch _, err := dec.Token(); {
	case err == io.EOF:
		return nil
	case errors.As(err, new(*http.MaxBytesError)):
		return fmt.Errorf("webutil: decode body: %w", err)
	}
	return fmt.Errorf("webutil: trailing data after JSON body")
}

// ReadJSONLoose decodes without rejecting unknown fields (for
// forward-compatible endpoints).
func ReadJSONLoose(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, MaxBodyBytes))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("webutil: decode body: %w", err)
	}
	return nil
}
