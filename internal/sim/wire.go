package sim

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"

	"umac/internal/webutil"
)

// AMServerName is the Server that Exchanges received by the world's AM
// carry.
const AMServerName = "am"

// Exchange is one HTTP request a World server received. The paper states
// its protocol as message flows between User, Host, AM and Requester
// (Figs. 3-6); in a World those flows are these requests, so the wire log
// is the protocol's record.
type Exchange struct {
	// Server is AMServerName, a SimpleHost's ID, or the name given to Serve.
	Server string
	Method string
	// Path is the request's URL path, without the query.
	Path string
	// Status is the response status, 0 while the handler is still running
	// (a long-lived event stream).
	Status int
}

// String renders the exchange as "server METHOD path status".
func (e Exchange) String() string {
	return fmt.Sprintf("%s %s %s %d", e.Server, e.Method, e.Path, e.Status)
}

// wireLog records, in arrival order, every request a World's servers
// receive.
type wireLog struct {
	mu      sync.Mutex
	entries []Exchange
	// gen counts resets, so a request still running when the log was reset
	// does not write its status into a later request's entry.
	gen int
}

// wrap logs each request to h under server: the entry is appended on
// arrival and its status filled in when h returns.
func (l *wireLog) wrap(server string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		l.mu.Lock()
		i, gen := len(l.entries), l.gen
		l.entries = append(l.entries, Exchange{Server: server, Method: r.Method, Path: r.URL.Path})
		l.mu.Unlock()
		sw := &webutil.StatusWriter{ResponseWriter: rw}
		defer func() {
			l.mu.Lock()
			if l.gen == gen {
				l.entries[i].Status = sw.Status()
			}
			l.mu.Unlock()
		}()
		h.ServeHTTP(sw, r)
	})
}

// Wire returns a copy of the wire log: every request the world's servers
// received since it started or since ResetWire, in arrival order.
func (w *World) Wire() []Exchange {
	w.wire.mu.Lock()
	defer w.wire.mu.Unlock()
	return append([]Exchange(nil), w.wire.entries...)
}

// ResetWire empties the wire log.
func (w *World) ResetWire() {
	w.wire.mu.Lock()
	defer w.wire.mu.Unlock()
	w.wire.entries = nil
	w.wire.gen++
}

// AMRequests returns the number of HTTP requests that reached the AM since
// the last ResetWire, counted on arrival: the round-trip metric of
// experiments E9/E10.
func (w *World) AMRequests() int64 {
	w.wire.mu.Lock()
	defer w.wire.mu.Unlock()
	var n int64
	for _, e := range w.wire.entries {
		if e.Server == AMServerName {
			n++
		}
	}
	return n
}

// Serve starts a test server for h whose requests enter the wire log under
// name: the way an application Host outside SimpleHost joins the record.
// The caller closes the server.
func (w *World) Serve(name string, h http.Handler) *httptest.Server {
	return httptest.NewServer(w.wire.wrap(name, h))
}
