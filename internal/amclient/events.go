package amclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"umac/internal/core"
)

// This file implements EventStream, the reconnecting consumer of the AM's
// /v1/events SSE family: it dials the stream with the client's configured
// credentials, parses frames into core.Event values, tracks the cursor,
// and on any connection loss reconnects with Last-Event-ID and jittered
// exponential backoff. Gaps (slow consumer, rolled replay window) arrive
// in-band as core.EventResync events — the caller decides what re-sync
// means for it. After MaxAttempts consecutive failed connections Next
// returns ErrStreamFailed.

// ErrStreamFailed reports that the event stream could not be (re-)
// established after StreamConfig.MaxAttempts consecutive attempts, or that
// the server rejected the subscription outright. The stream may be retried
// later by calling Next again (the attempt counter restarts).
var ErrStreamFailed = errors.New("amclient: event stream failed")

// Stream tuning defaults.
const (
	// DefaultStreamMaxAttempts is how many consecutive connection failures
	// Next tolerates before returning ErrStreamFailed.
	DefaultStreamMaxAttempts = 5
	// DefaultStreamBackoff is the initial reconnect backoff.
	DefaultStreamBackoff = 100 * time.Millisecond
	// DefaultStreamMaxBackoff caps the reconnect backoff.
	DefaultStreamMaxBackoff = 5 * time.Second
	// DefaultStreamStallTimeout is how long a connection may stay silent
	// (no events, no heartbeats) before it is presumed dead and redialed.
	// It must comfortably exceed the server's heartbeat interval.
	DefaultStreamStallTimeout = 60 * time.Second
)

// StreamConfig configures an EventStream subscription.
type StreamConfig struct {
	// Path is the events route to subscribe to, relative to /v1
	// ("/events", "/events/consent", "/events/invalidation"). Empty means
	// "/events".
	Path string
	// Query carries subscription parameters (ticket, types, owner).
	Query url.Values
	// After is the initial resume cursor: the stream reconnects with
	// Last-Event-ID = cursor, starting at After. 0 or negative means
	// live-only (no initial replay).
	After int64
	// MaxAttempts bounds consecutive failed connections before Next
	// returns ErrStreamFailed; 0 means DefaultStreamMaxAttempts.
	MaxAttempts int
	// Backoff is the initial reconnect delay (doubled per failure, ±50%
	// jitter); 0 means DefaultStreamBackoff.
	Backoff time.Duration
	// MaxBackoff caps the reconnect delay; 0 means DefaultStreamMaxBackoff.
	MaxBackoff time.Duration
	// StallTimeout kills a connection that delivers nothing (not even
	// heartbeats) for this long; 0 means DefaultStreamStallTimeout.
	StallTimeout time.Duration
}

// EventStream is a reconnecting subscription to one /v1/events route.
// Obtain with Client.Stream; call Next in a loop and Close when done. Not
// safe for concurrent Next calls (one consumer per stream).
type EventStream struct {
	c   *Client
	cfg StreamConfig

	mu   sync.Mutex
	resp *http.Response // live connection, nil between dials
	br   *bufio.Reader

	cursor   int64 // last seen event seq (resume cursor)
	attempts int   // consecutive failed connection attempts
	closed   bool
}

// Stream opens a lazy subscription to one of the /v1/events routes: no
// connection is made until the first Next call, and every connection
// carries the client's configured authentication (session header, repl
// bearer, pairing signature) exactly like any other API call.
func (c *Client) Stream(cfg StreamConfig) *EventStream {
	if cfg.Path == "" {
		cfg.Path = "/events"
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultStreamMaxAttempts
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = DefaultStreamBackoff
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = DefaultStreamMaxBackoff
	}
	if cfg.StallTimeout <= 0 {
		cfg.StallTimeout = DefaultStreamStallTimeout
	}
	s := &EventStream{c: c, cfg: cfg, cursor: -1}
	if cfg.After > 0 {
		s.cursor = cfg.After
	}
	return s
}

// Cursor returns the sequence number of the last event Next delivered
// (the Last-Event-ID a reconnect will present), or the configured After
// before any delivery, or -1 for a fresh live-only stream.
func (s *EventStream) Cursor() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cursor
}

// Close tears the stream down: any in-flight Next unblocks with an error
// and future Next calls return ErrStreamFailed.
func (s *EventStream) Close() error {
	s.mu.Lock()
	s.closed = true
	resp := s.resp
	s.resp, s.br = nil, nil
	s.mu.Unlock()
	if resp != nil {
		resp.Body.Close()
	}
	return nil
}

// abort severs the live connection (watchdogs and context cancellation
// use it to unblock a parked read).
func (s *EventStream) abort() {
	s.mu.Lock()
	resp := s.resp
	s.mu.Unlock()
	if resp != nil {
		resp.Body.Close()
	}
}

// Next returns the next event, transparently (re)connecting as needed.
// A returned core.EventResync means events were lost before the next
// frame: the caller must run its re-sync path (drop caches, re-poll)
// before trusting subsequent events. When the stream cannot be
// established after MaxAttempts consecutive tries — or the server rejects
// the subscription outright (4xx) — Next returns an error wrapping
// ErrStreamFailed and the underlying cause. ctx bounds this call AND the
// connection: cancellation severs the stream (the next call redials with
// the cursor).
func (s *EventStream) Next(ctx context.Context) (core.Event, error) {
	// Unblock a parked body read when ctx ends.
	stop := context.AfterFunc(ctx, s.abort)
	defer stop()
	for {
		if err := ctx.Err(); err != nil {
			return core.Event{}, err
		}
		s.mu.Lock()
		closed, connected := s.closed, s.resp != nil
		s.mu.Unlock()
		if closed {
			return core.Event{}, fmt.Errorf("%w: stream closed", ErrStreamFailed)
		}
		if !connected {
			if err := s.connect(ctx); err != nil {
				return core.Event{}, err
			}
			continue
		}
		e, err := s.readEvent()
		if err != nil {
			// Connection lost mid-stream: drop it and redial with the
			// cursor. The error itself is not surfaced — resumption is the
			// whole point — unless the context ended (caller cancellation).
			s.disconnect()
			if ctx.Err() != nil {
				return core.Event{}, ctx.Err()
			}
			continue
		}
		s.mu.Lock()
		if e.Type == core.EventResync {
			// A resync frame's seq IS the next valid resume cursor — adopt
			// it even when it moves backward (the server restarted and its
			// sequence space reset; keeping the old, larger cursor would
			// re-trigger a resync on every reconnect forever).
			s.cursor = e.Seq
		} else if e.Seq > s.cursor {
			s.cursor = e.Seq
		}
		s.mu.Unlock()
		return e, nil
	}
}

// connect dials one attempt, rotating endpoints and sleeping the jittered
// backoff between failures. Returns nil when a connection is live (the
// attempt counter resets only after a frame is actually read, so a server
// that accepts and instantly drops still trips ErrStreamFailed).
func (s *EventStream) connect(ctx context.Context) error {
	s.mu.Lock()
	attempts := s.attempts
	cursor := s.cursor
	s.mu.Unlock()
	if attempts >= s.cfg.MaxAttempts {
		// Reset so a later Next may try the stream again (transient
		// outages should not disable streaming forever).
		s.mu.Lock()
		s.attempts = 0
		s.mu.Unlock()
		return fmt.Errorf("%w: %d consecutive connection attempts failed", ErrStreamFailed, attempts)
	}
	if attempts > 0 {
		if err := sleepCtx(ctx, jitteredBackoff(s.cfg.Backoff, s.cfg.MaxBackoff, attempts)); err != nil {
			return err
		}
	}
	// Rotate through endpoints so a dead node does not absorb the whole
	// attempt budget.
	base := s.c.endpoints[(int(s.c.cur.Load())+attempts)%len(s.c.endpoints)]
	req, err := s.c.newRequest(base, http.MethodGet, s.cfg.Path, s.cfg.Query, nil, "")
	if err != nil {
		return fmt.Errorf("%w: %v", ErrStreamFailed, err)
	}
	if cursor >= 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprint(cursor))
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := s.c.cfg.HTTPClient.Do(req.WithContext(ctx))
	if err != nil {
		s.mu.Lock()
		s.attempts++
		s.mu.Unlock()
		return nil // retry path: Next loops back into connect
	}
	if resp.StatusCode != http.StatusOK {
		err := decodeError(resp)
		status := resp.StatusCode
		resp.Body.Close()
		retryable := status >= 500 || status == http.StatusTooManyRequests
		var ae *core.APIError
		if errors.As(err, &ae) && ae.Code == core.CodeUnavailable {
			retryable = true
		}
		if !retryable {
			// The subscription itself is rejected (bad ticket, bad auth, or
			// an AM without the events surface at all): retrying cannot
			// help, give up now.
			return fmt.Errorf("%w: %v", ErrStreamFailed, err)
		}
		s.mu.Lock()
		s.attempts++
		s.mu.Unlock()
		return nil
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		resp.Body.Close()
		return fmt.Errorf("%w: endpoint answered %q, not an event stream", ErrStreamFailed, ct)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		resp.Body.Close()
		return fmt.Errorf("%w: stream closed", ErrStreamFailed)
	}
	s.resp = resp
	s.br = bufio.NewReader(resp.Body)
	s.mu.Unlock()
	return nil
}

// Connect eagerly establishes the subscription instead of waiting for the
// first Next call. When it returns nil the server has registered the
// subscriber (the AM subscribes to its broker before writing the response
// headers), so events published afterwards will be delivered — the
// ordering guarantee the requester's consent wait, the PEP's invalidation
// stream and any subscribe-then-trigger caller needs. On a rejected
// subscription or an exhausted attempt budget it returns an error wrapping
// ErrStreamFailed.
func (s *EventStream) Connect(ctx context.Context) error {
	stop := context.AfterFunc(ctx, s.abort)
	defer stop()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.mu.Lock()
		closed, connected := s.closed, s.resp != nil
		s.mu.Unlock()
		if closed {
			return fmt.Errorf("%w: stream closed", ErrStreamFailed)
		}
		if connected {
			return nil
		}
		// connect returns nil on a retryable failure (it only counts the
		// attempt), so loop until a connection is live or it gives up.
		if err := s.connect(ctx); err != nil {
			return err
		}
	}
}

// disconnect drops the live connection (if any), keeping the cursor.
func (s *EventStream) disconnect() {
	s.mu.Lock()
	resp := s.resp
	s.resp, s.br = nil, nil
	s.mu.Unlock()
	if resp != nil {
		resp.Body.Close()
	}
}

// readEvent parses frames off the live connection until one complete
// event arrives. Comment lines (heartbeats) reset the stall watchdog and
// confirm liveness: the first frame of any kind marks the connection good
// and clears the attempt counter.
func (s *EventStream) readEvent() (core.Event, error) {
	s.mu.Lock()
	br := s.br
	s.mu.Unlock()
	if br == nil {
		return core.Event{}, errors.New("amclient: stream not connected")
	}
	// The stall watchdog severs a silent connection: heartbeats arrive
	// every server-side interval, so silence beyond StallTimeout means a
	// half-open TCP connection (or a proxy buffering the stream).
	watchdog := time.AfterFunc(s.cfg.StallTimeout, s.abort)
	defer watchdog.Stop()
	var data []byte
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return core.Event{}, err
		}
		watchdog.Reset(s.cfg.StallTimeout)
		s.mu.Lock()
		s.attempts = 0 // bytes flowed: the connection is real
		s.mu.Unlock()
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case len(line) == 0:
			// Frame boundary: dispatch when a data line was seen.
			if len(data) > 0 {
				var e core.Event
				if err := json.Unmarshal(data, &e); err != nil {
					return core.Event{}, fmt.Errorf("amclient: decode event: %w", err)
				}
				return e, nil
			}
		case line[0] == ':':
			// Heartbeat / comment; nothing to do beyond the watchdog reset.
		case bytes.HasPrefix(line, []byte("data:")):
			data = append(data, bytes.TrimSpace(line[len("data:"):])...)
		default:
			// id: and event: fields duplicate what the data JSON carries;
			// unknown fields are ignored per the SSE contract.
		}
	}
}

// jitteredBackoff is the reconnect delay after `attempts` consecutive
// failures: exponential, capped, with ±50% jitter so a fleet of
// subscribers does not redial a recovering AM in lockstep.
func jitteredBackoff(base, max time.Duration, attempts int) time.Duration {
	d := base << (attempts - 1)
	if d > max || d <= 0 {
		d = max
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// sleepCtx sleeps d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
