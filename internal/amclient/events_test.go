package amclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"umac/internal/core"
)

// These tests prove EventStream's reconnect contract against a scripted
// SSE server: a connection severed mid-stream is redialed with the
// cursor as Last-Event-ID and the subscriber observes every event
// exactly once; Connect returns only once the subscription is
// registered server-side; a permanent rejection fails fast to the
// polling fallback instead of burning the retry budget.

// scriptedSSE serves GET /v1/events, recording each connection's
// Last-Event-ID and delegating the frames to a per-connection script.
type scriptedSSE struct {
	srv *httptest.Server

	mu      sync.Mutex
	cursors []string // Last-Event-ID presented by each connection, in order

	// serve writes frames for the n-th connection (0-based); returning
	// severs the connection.
	serve func(n int, w http.ResponseWriter, flush func())
}

func newScriptedSSE(t *testing.T) *scriptedSSE {
	t.Helper()
	s := &scriptedSSE{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/events", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		n := len(s.cursors)
		s.cursors = append(s.cursors, r.Header.Get("Last-Event-ID"))
		s.mu.Unlock()
		fl := w.(http.Flusher)
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		fmt.Fprint(w, ": stream\n\n")
		fl.Flush()
		s.serve(n, w, fl.Flush)
	})
	s.srv = httptest.NewServer(mux)
	t.Cleanup(s.srv.Close)
	return s
}

func (s *scriptedSSE) cursorOf(conn int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if conn >= len(s.cursors) {
		return "<no such connection>"
	}
	return s.cursors[conn]
}

func (s *scriptedSSE) connections() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cursors)
}

func sseFrame(w http.ResponseWriter, flush func(), seq int64) {
	e := core.Event{Seq: seq, Type: core.EventInvalidation,
		Invalidation: &core.InvalidationPush{Owner: "bob"}}
	data, _ := json.Marshal(e)
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data)
	flush()
}

// TestEventStreamReconnectNoLossNoDup: the server severs the connection
// after three events; the stream must redial presenting the cursor and
// the consumer must see 1..6 exactly once — the client half of the
// resume contract (the server half lives in internal/am's suite).
func TestEventStreamReconnectNoLossNoDup(t *testing.T) {
	s := newScriptedSSE(t)
	s.serve = func(n int, w http.ResponseWriter, flush func()) {
		switch n {
		case 0:
			for seq := int64(1); seq <= 3; seq++ {
				sseFrame(w, flush, seq)
			}
			// return: connection dies mid-stream
		case 1:
			for seq := int64(4); seq <= 6; seq++ {
				sseFrame(w, flush, seq)
			}
		default:
			t.Errorf("unexpected connection #%d", n)
		}
	}
	c := New(Config{BaseURL: s.srv.URL})
	stream := c.Stream(StreamConfig{Backoff: time.Millisecond})
	defer stream.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	var seqs []int64
	for len(seqs) < 6 {
		e, err := stream.Next(ctx)
		if err != nil {
			t.Fatalf("Next after %v: %v", seqs, err)
		}
		seqs = append(seqs, e.Seq)
	}
	for i, seq := range seqs {
		if seq != int64(i+1) {
			t.Fatalf("event sequence %v: missed or duplicated delivery", seqs)
		}
	}
	if got := s.cursorOf(1); got != "3" {
		t.Fatalf("reconnect presented Last-Event-ID %q, want \"3\"", got)
	}
	if stream.Cursor() != 6 {
		t.Fatalf("cursor = %d, want 6", stream.Cursor())
	}
}

// TestEventStreamResyncAdoptsCursor: a resync frame's seq is the next
// valid resume cursor even when it moves BACKWARD — the shape of a server
// restart, where the sequence space reset. Keeping the old, larger cursor
// would re-trigger a resync on every reconnect forever.
func TestEventStreamResyncAdoptsCursor(t *testing.T) {
	s := newScriptedSSE(t)
	park := make(chan struct{})
	defer close(park)
	s.serve = func(n int, w http.ResponseWriter, flush func()) {
		switch n {
		case 0: // pre-restart lifetime: head at 6
			for seq := int64(5); seq <= 6; seq++ {
				sseFrame(w, flush, seq)
			}
		case 1: // restarted server: cursor 6 is ahead of its head (1)
			re := core.Event{Seq: 1, Type: core.EventResync}
			data, _ := json.Marshal(re)
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", re.Seq, re.Type, data)
			flush()
			sseFrame(w, flush, 2)
		case 2: // reconnect after the new lifetime's events
			<-park
		default:
			t.Errorf("unexpected connection #%d", n)
		}
	}
	c := New(Config{BaseURL: s.srv.URL})
	stream := c.Stream(StreamConfig{Backoff: time.Millisecond})
	defer stream.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	var got []core.Event
	for len(got) < 4 {
		e, err := stream.Next(ctx)
		if err != nil {
			t.Fatalf("Next after %d events: %v", len(got), err)
		}
		got = append(got, e)
	}
	if got[2].Type != core.EventResync {
		t.Fatalf("post-restart frame type = %q, want resync", got[2].Type)
	}
	if stream.Cursor() != 2 {
		t.Fatalf("cursor = %d, want 2 (adopted from the new lifetime)", stream.Cursor())
	}
	if cur := s.cursorOf(1); cur != "6" {
		t.Fatalf("restart reconnect presented Last-Event-ID %q, want \"6\"", cur)
	}
	// Drive one more Next so the stream redials connection #2 — the
	// presented cursor must be the adopted one, not the stale 6.
	go stream.Next(ctx) //nolint:errcheck // parked until Close
	deadline := time.Now().Add(10 * time.Second)
	for s.connections() < 3 {
		if time.Now().After(deadline) {
			t.Fatal("stream never redialed after the resync")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if cur := s.cursorOf(2); cur != "2" {
		t.Fatalf("post-resync reconnect presented Last-Event-ID %q, want \"2\"", cur)
	}
}

// TestEventStreamConnectRegistersSubscription: Connect must not return
// before the server has accepted the subscription, so an event published
// right after Connect cannot be missed.
func TestEventStreamConnectRegistersSubscription(t *testing.T) {
	s := newScriptedSSE(t)
	release := make(chan struct{})
	s.serve = func(n int, w http.ResponseWriter, flush func()) { <-release }
	defer close(release)

	c := New(Config{BaseURL: s.srv.URL})
	stream := c.Stream(StreamConfig{})
	defer stream.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := stream.Connect(ctx); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if s.connections() == 0 {
		t.Fatal("Connect returned with no server-side subscription")
	}
	// A second Connect on the live stream is a no-op.
	if err := stream.Connect(ctx); err != nil {
		t.Fatalf("re-Connect: %v", err)
	}
	if s.connections() != 1 {
		t.Fatalf("re-Connect dialed again: %d connections", s.connections())
	}
}

// TestEventStreamPermanentRejectionFailsFast: a non-retryable status
// (here a plain 404, the shape of an AM without the events surface) must
// surface ErrStreamFailed on the first attempt — the caller's signal to
// give up — not burn the whole backoff budget.
func TestEventStreamPermanentRejectionFailsFast(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no such route", http.StatusNotFound)
	}))
	defer srv.Close()
	c := New(Config{BaseURL: srv.URL})
	stream := c.Stream(StreamConfig{Backoff: time.Second})
	defer stream.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if _, err := stream.Next(ctx); !errors.Is(err, ErrStreamFailed) {
		t.Fatalf("err = %v, want ErrStreamFailed", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("rejection took %v; a permanent 4xx must not back off", elapsed)
	}
	if err := stream.Connect(ctx); !errors.Is(err, ErrStreamFailed) {
		t.Fatalf("Connect err = %v, want ErrStreamFailed", err)
	}
}

// TestEventStreamCloseUnblocksNext: Close severs a parked read
// immediately and future calls fail with ErrStreamFailed.
func TestEventStreamCloseUnblocksNext(t *testing.T) {
	s := newScriptedSSE(t)
	release := make(chan struct{})
	s.serve = func(n int, w http.ResponseWriter, flush func()) { <-release }
	defer close(release)

	c := New(Config{BaseURL: s.srv.URL})
	stream := c.Stream(StreamConfig{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := stream.Connect(ctx); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := stream.Next(ctx)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let Next park on the body read
	stream.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Next returned an event after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next still parked after Close")
	}
	if _, err := stream.Next(ctx); !errors.Is(err, ErrStreamFailed) {
		t.Fatalf("post-Close Next err = %v, want ErrStreamFailed", err)
	}
}
