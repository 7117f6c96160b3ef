package requester

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"umac/internal/amclient"
	"umac/internal/core"
)

// These tests prove the requester's consumer side of the event control
// plane: consent resolution arrives over GET /v1/events/consent with no
// polling loop — only the single post-subscribe status check that closes
// the resolved-before-subscribe race — a resync marker triggers exactly
// one extra status check, an unresolved ticket times out, a rejected
// stream is an error, and Close unblocks a parked consent wait
// immediately.

// sseAM is a fake AM whose consent channel is the event stream.
type sseAM struct {
	srv *httptest.Server
	// serveStream writes SSE frames for one subscription; returning ends
	// the stream (the connection closes).
	serveStream func(w http.ResponseWriter, flush func(), ticket string)

	statusResponse core.ConsentStatus
	// statusResolvedAfter hides statusResponse's resolution from the
	// first N status calls (they answer "still pending").
	statusResolvedAfter int32
	statusCalls         atomic.Int32
	streamCalls         atomic.Int32
}

func newSSEAM(t *testing.T) *sseAM {
	t.Helper()
	f := &sseAM{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/token", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(202)
		json.NewEncoder(w).Encode(core.TokenResponse{PendingConsent: "ticket-1"})
	})
	mux.HandleFunc("GET /v1/token/status", func(w http.ResponseWriter, r *http.Request) {
		n := f.statusCalls.Add(1)
		resp := f.statusResponse
		if n <= f.statusResolvedAfter {
			resp = core.ConsentStatus{Ticket: resp.Ticket}
		}
		json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("GET /v1/events/consent", func(w http.ResponseWriter, r *http.Request) {
		f.streamCalls.Add(1)
		ticket := r.URL.Query().Get(core.ParamTicket)
		if ticket == "" {
			http.Error(w, "missing ticket", 400)
			return
		}
		fl := w.(http.Flusher)
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(200)
		fmt.Fprint(w, ": stream\n\n")
		fl.Flush()
		f.serveStream(w, fl.Flush, ticket)
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

// writeEvent frames one event the way the real AM does.
func writeEvent(w http.ResponseWriter, flush func(), e core.Event) {
	data, _ := json.Marshal(e)
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data)
	flush()
}

func consentEvent(ticket string, approved bool, token string) core.Event {
	return core.Event{
		Seq: 1, Type: core.EventConsent, Ticket: ticket,
		Consent: &core.ConsentStatus{
			Ticket: ticket, Resolved: true, Approved: approved, Token: token,
		},
	}
}

func TestConsentStreamApproved(t *testing.T) {
	am := newSSEAM(t)
	am.serveStream = func(w http.ResponseWriter, flush func(), ticket string) {
		writeEvent(w, flush, consentEvent(ticket, true, "tok-good"))
	}
	host := newFakeHost(t, am.srv.URL, "tok-good")
	c := New(Config{ID: "app-1", Subject: "evelyn", ConsentTimeout: 5 * time.Second})
	body, err := c.Fetch(host.srv.URL+"/res-1", core.ActionRead)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "protected content" {
		t.Fatalf("body = %q", body)
	}
	if am.statusCalls.Load() != 1 {
		t.Fatalf("status calls = %d, want 1 (the subscribe-race check; resolution came over the stream)", am.statusCalls.Load())
	}
	if am.streamCalls.Load() != 1 {
		t.Fatalf("stream subscriptions = %d", am.streamCalls.Load())
	}
}

func TestConsentStreamDenied(t *testing.T) {
	am := newSSEAM(t)
	am.serveStream = func(w http.ResponseWriter, flush func(), ticket string) {
		writeEvent(w, flush, consentEvent(ticket, false, ""))
	}
	host := newFakeHost(t, am.srv.URL, "never")
	c := New(Config{ID: "app-1", ConsentTimeout: 5 * time.Second})
	_, err := c.Fetch(host.srv.URL+"/res-1", core.ActionRead)
	if !errors.Is(err, ErrConsentDenied) {
		t.Fatalf("err = %v", err)
	}
	if am.statusCalls.Load() != 1 {
		t.Fatalf("status calls = %d, want 1 (the subscribe-race check)", am.statusCalls.Load())
	}
}

// TestConsentStreamResyncChecksPollOnce: a resync marker means the
// resolution may be among the lost events — the requester must check the
// status endpoint once, then keep streaming.
func TestConsentStreamResyncChecksPollOnce(t *testing.T) {
	am := newSSEAM(t)
	am.statusResponse = core.ConsentStatus{
		Ticket: "ticket-1", Resolved: true, Approved: true, Token: "tok-good",
	}
	// The first status call is the subscribe-race check — it must still
	// answer "pending" so the resync path is what resolves the wait.
	am.statusResolvedAfter = 1
	am.serveStream = func(w http.ResponseWriter, flush func(), ticket string) {
		writeEvent(w, flush, core.Event{Seq: 9, Type: core.EventResync})
		// Keep the stream open; the poll check must resolve the wait.
		time.Sleep(2 * time.Second)
	}
	host := newFakeHost(t, am.srv.URL, "tok-good")
	c := New(Config{ID: "app-1", ConsentTimeout: 5 * time.Second})
	body, err := c.Fetch(host.srv.URL+"/res-1", core.ActionRead)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "protected content" {
		t.Fatalf("body = %q", body)
	}
	if am.statusCalls.Load() != 2 {
		t.Fatalf("status calls = %d, want exactly 2 (subscribe-race check + resync check)", am.statusCalls.Load())
	}
}

// TestConsentResolvedBeforeSubscribe: the owner resolved the ticket in
// the window between RequestToken handing it out and the consent stream
// registering — the event was published with no subscriber and will never
// replay. The single post-subscribe status check must close that race;
// without it the wait parks until ConsentTimeout.
func TestConsentResolvedBeforeSubscribe(t *testing.T) {
	am := newSSEAM(t)
	am.statusResponse = core.ConsentStatus{
		Ticket: "ticket-1", Resolved: true, Approved: true, Token: "tok-good",
	}
	release := make(chan struct{})
	defer close(release)
	am.serveStream = func(w http.ResponseWriter, flush func(), ticket string) {
		<-release // the resolution event already fired; nothing ever arrives
	}
	host := newFakeHost(t, am.srv.URL, "tok-good")
	c := New(Config{ID: "app-1", Subject: "evelyn", ConsentTimeout: 5 * time.Second})
	start := time.Now()
	body, err := c.Fetch(host.srv.URL+"/res-1", core.ActionRead)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "protected content" {
		t.Fatalf("body = %q", body)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("fetch took %v: the subscribe-race check did not fire", elapsed)
	}
	if am.statusCalls.Load() != 1 {
		t.Fatalf("status calls = %d, want 1", am.statusCalls.Load())
	}
}

// TestConsentStreamTimeout: a ticket the owner never resolves ends the
// wait with ErrConsentTimeout once ConsentTimeout elapses.
func TestConsentStreamTimeout(t *testing.T) {
	am := newSSEAM(t)
	release := make(chan struct{})
	defer close(release)
	am.serveStream = func(w http.ResponseWriter, flush func(), ticket string) {
		<-release // hold the stream open, delivering nothing
	}
	host := newFakeHost(t, am.srv.URL, "never")
	c := New(Config{ID: "app-1", ConsentTimeout: 50 * time.Millisecond})
	_, err := c.Fetch(host.srv.URL+"/res-1", core.ActionRead)
	if !errors.Is(err, ErrConsentTimeout) {
		t.Fatalf("err = %v, want ErrConsentTimeout", err)
	}
}

// TestConsentStreamRejectedIsError: an AM that refuses the consent
// subscription fails the wait at once with the stream error — there is no
// polling fallback, and no waiting out ConsentTimeout.
func TestConsentStreamRejectedIsError(t *testing.T) {
	am := newFakeAM(t) // serves POST /v1/token only: the stream route is a 404
	am.respond = func(core.TokenRequest) (int, core.TokenResponse) {
		return 202, core.TokenResponse{PendingConsent: "ticket-1"}
	}
	host := newFakeHost(t, am.srv.URL, "never")
	c := New(Config{ID: "app-1", ConsentTimeout: time.Minute})
	start := time.Now()
	_, err := c.Fetch(host.srv.URL+"/res-1", core.ActionRead)
	if !errors.Is(err, amclient.ErrStreamFailed) {
		t.Fatalf("err = %v, want ErrStreamFailed", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("rejected stream took %v to surface", elapsed)
	}
}

// TestCloseUnblocksConsentWait: Close severs a parked consent wait
// immediately — no waiting out ConsentTimeout.
func TestCloseUnblocksConsentWait(t *testing.T) {
	am := newSSEAM(t)
	release := make(chan struct{})
	am.serveStream = func(w http.ResponseWriter, flush func(), ticket string) {
		<-release // hold the stream open, delivering nothing
	}
	defer close(release)
	host := newFakeHost(t, am.srv.URL, "never")
	c := New(Config{ID: "app-1", ConsentTimeout: time.Minute})
	errc := make(chan error, 1)
	go func() {
		_, err := c.Fetch(host.srv.URL+"/res-1", core.ActionRead)
		errc <- err
	}()
	// Let the fetch reach the consent wait, then close the client.
	deadline := time.Now().Add(5 * time.Second)
	for am.streamCalls.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	c.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("fetch succeeded after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Fetch still blocked after Close")
	}
}
