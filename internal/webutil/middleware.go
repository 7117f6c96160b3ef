package webutil

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"umac/internal/core"
)

// This file is the shared HTTP middleware stack of the versioned API:
// request-ID injection, panic recovery, and per-route latency/status
// counters. The AM mounts all three around every route; Hosts may reuse
// them for their own surfaces.

// RequestIDHeader carries the request ID on both requests and responses.
// An inbound value is honoured (so callers and proxies can correlate);
// otherwise one is generated.
const RequestIDHeader = "X-Request-Id"

// maxRequestIDLen bounds an inbound request ID; longer (or non-printable)
// values are replaced with a generated one.
const maxRequestIDLen = 64

type ctxKey int

const requestIDKey ctxKey = iota

// RequestID injects a request ID into the context and response header.
func RequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if !validRequestID(id) {
			id = core.NewID("req")
		}
		w.Header().Set(RequestIDHeader, id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey, id)))
	})
}

func validRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return false
		}
	}
	return true
}

// RequestIDFrom returns the request ID injected by RequestID ("" if none).
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// Recover converts handler panics into a structured 500 (code "internal",
// retryable) instead of a severed connection. http.ErrAbortHandler keeps
// its net/http meaning and is re-raised.
func Recover(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			// If the handler already wrote headers this is a best-effort
			// trailer write that net/http discards; nothing better exists.
			WriteAPIError(w, r, core.NewAPIError(core.CodeInternal, "internal error"))
		}()
		next.ServeHTTP(w, r)
	})
}

// Metrics aggregates per-route request counters: hit count, status
// classes, cumulative and maximum latency. Route labels are fixed at
// Instrument time, so the hot path touches only atomics — no map lookups,
// no locks.
type Metrics struct {
	start time.Time

	mu     sync.Mutex
	routes []*routeCounters
}

// routeCounters is one route's live counter set.
type routeCounters struct {
	route       string
	count       atomic.Int64
	status      [6]atomic.Int64 // index status/100: [2]=2xx … [5]=5xx
	totalMicros atomic.Int64
	maxMicros   atomic.Int64
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{start: time.Now()}
}

// Instrument wraps h, accounting its requests under the given route label.
func (m *Metrics) Instrument(route string, h http.Handler) http.Handler {
	rc := &routeCounters{route: route}
	m.mu.Lock()
	m.routes = append(m.routes, rc)
	m.mu.Unlock()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &StatusWriter{ResponseWriter: w}
		begin := time.Now()
		// Record in a defer so a panicking handler is still counted: the
		// Recover middleware sits outside this wrapper and will turn the
		// panic into a 500, so account it as 5xx here before re-raising.
		defer func() {
			status := sw.Status()
			if rec := recover(); rec != nil {
				status = http.StatusInternalServerError
				defer panic(rec)
			}
			micros := time.Since(begin).Microseconds()
			rc.count.Add(1)
			rc.totalMicros.Add(micros)
			for {
				prev := rc.maxMicros.Load()
				if micros <= prev || rc.maxMicros.CompareAndSwap(prev, micros) {
					break
				}
			}
			if cls := status / 100; cls >= 2 && cls <= 5 {
				rc.status[cls].Add(1)
			}
		}()
		h.ServeHTTP(sw, r)
	})
}

// StatusWriter records the status code a handler wrote. Wrap a handler's
// ResponseWriter in one and read Status once the handler returns.
type StatusWriter struct {
	http.ResponseWriter
	code int
}

// WriteHeader implements http.ResponseWriter.
func (w *StatusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// Write implements http.ResponseWriter.
func (w *StatusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush implements http.Flusher when the underlying writer does, so
// streaming handlers (SSE on /v1/events) can push frames through the
// metrics wrapper without buffering until the request ends.
func (w *StatusWriter) Flush() {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Status returns the recorded status (200 when the handler wrote a bare
// body or nothing at all — net/http's implicit default).
func (w *StatusWriter) Status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// RouteSnapshot is one route's counters at snapshot time.
type RouteSnapshot struct {
	Count       int64            `json:"count"`
	Status      map[string]int64 `json:"status"`
	TotalMillis float64          `json:"total_ms"`
	MaxMillis   float64          `json:"max_ms"`
}

// MetricsSnapshot is the GET /v1/metrics response body (minus AM identity).
type MetricsSnapshot struct {
	UptimeSeconds float64                  `json:"uptime_seconds"`
	Requests      int64                    `json:"requests"`
	Routes        map[string]RouteSnapshot `json:"routes"`
}

// Snapshot renders the current counters. Routes never hit are omitted.
func (m *Metrics) Snapshot() MetricsSnapshot {
	m.mu.Lock()
	routes := make([]*routeCounters, len(m.routes))
	copy(routes, m.routes)
	m.mu.Unlock()
	snap := MetricsSnapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Routes:        make(map[string]RouteSnapshot, len(routes)),
	}
	classes := [...]string{2: "2xx", 3: "3xx", 4: "4xx", 5: "5xx"}
	for _, rc := range routes {
		n := rc.count.Load()
		if n == 0 {
			continue
		}
		rs := RouteSnapshot{
			Count:       n,
			Status:      make(map[string]int64, 4),
			TotalMillis: float64(rc.totalMicros.Load()) / 1e3,
			MaxMillis:   float64(rc.maxMicros.Load()) / 1e3,
		}
		for cls := 2; cls <= 5; cls++ {
			if c := rc.status[cls].Load(); c > 0 {
				rs.Status[classes[cls]] = c
			}
		}
		snap.Requests += n
		snap.Routes[rc.route] = rs
	}
	return snap
}
