package am

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"umac/internal/core"
	"umac/internal/events"
	"umac/internal/webutil"
)

// This file serves the streaming event control plane: the GET /v1/events
// SSE family over which the AM pushes typed control signals — scoped
// decision-cache invalidation, consent resolution, replication state — to
// subscribed PEPs, Requesters and operators, replacing their polling
// loops. The broker itself lives in internal/events; this file is the
// HTTP skin: authentication per audience, filter construction,
// Last-Event-ID resume, heartbeats, and the gap→resync framing.
//
// Wire format is standard server-sent events. Every event is framed as
//
//	id: <seq>
//	event: <type>
//	data: <core.Event JSON>
//
// with `: hb` comment lines as heartbeats. A resync frame (event type
// "resync") means events were lost before the next frame — the subscriber
// must rebuild state out of band (drop caches, re-poll tickets) before
// trusting the stream again.

// DefaultEventHeartbeat is the SSE heartbeat interval used when
// EventsConfig.Heartbeat is zero: frequent enough that idle connections
// survey typical proxy idle timeouts (30–60s), rare enough to be noise.
const DefaultEventHeartbeat = 15 * time.Second

// EventsConfig sizes the event control plane.
type EventsConfig struct {
	// SubscriberBuffer caps each subscriber's ring buffer; 0 means
	// events.DefaultSubscriberBuffer.
	SubscriberBuffer int
	// ReplayWindow caps the Last-Event-ID resume window; 0 means
	// events.DefaultReplayWindow.
	ReplayWindow int
	// Heartbeat is the SSE comment-frame interval; 0 means
	// DefaultEventHeartbeat.
	Heartbeat time.Duration
}

// withDefaults fills zero fields (buffer sizes stay zero: the broker
// applies its own defaults, keeping one source of truth).
func (c EventsConfig) withDefaults() EventsConfig {
	if c.Heartbeat <= 0 {
		c.Heartbeat = DefaultEventHeartbeat
	}
	return c
}

// replBearerOK reports whether the request carries the shared replication
// secret — the operator credential for the unfiltered event stream.
func (a *AM) replBearerOK(r *http.Request) bool {
	if a.replCfg.Secret == "" {
		return false
	}
	got := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
	return subtle.ConstantTimeCompare([]byte(got), []byte(a.replCfg.Secret)) == 1
}

// parseLastEventID resolves the resume cursor: the Last-Event-ID header
// (set by reconnecting EventSource/amclient streams), falling back to the
// ?last_event_id= query parameter. Absent means live-only (-1).
func parseLastEventID(r *http.Request) (int64, error) {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get(core.ParamLastEventID)
	}
	if raw == "" {
		return -1, nil
	}
	id, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || id < 0 {
		return 0, core.APIErrorf(core.CodeBadRequest,
			"am: Last-Event-ID must be a non-negative integer")
	}
	return id, nil
}

// parseEventTypes resolves the ?types= filter (comma-separated). Empty
// means all types; unknown names are rejected so a typo cannot silently
// subscribe to nothing.
func parseEventTypes(r *http.Request) ([]core.EventType, error) {
	raw := r.URL.Query().Get(core.ParamTypes)
	if raw == "" {
		return nil, nil
	}
	var out []core.EventType
	for _, part := range strings.Split(raw, ",") {
		switch t := core.EventType(strings.TrimSpace(part)); t {
		case core.EventInvalidation, core.EventConsent, core.EventReplication:
			out = append(out, t)
		default:
			return nil, core.APIErrorf(core.CodeBadRequest, "am: unknown event type %q", part)
		}
	}
	return out, nil
}

// handleEvents serves GET /v1/events: the general subscription surface.
// Two credentials are accepted: the replication secret as a bearer token
// grants the unfiltered node-wide stream (operators, dashboards), and a
// browser session restricts owner-scoped events to owners the actor may
// manage (?owner= defaults to the actor). Node-wide replication signals
// reach both audiences.
func (a *AM) handleEvents(w http.ResponseWriter, r *http.Request) {
	types, err := parseEventTypes(r)
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	f := events.Filter{Types: types}
	if !a.replBearerOK(r) {
		actor, ok := a.auth.Authenticate(r)
		if !ok {
			webutil.FailCode(w, r, core.CodeUnauthenticated, "am: authentication required")
			return
		}
		owner, err := a.ownerParam(r, actor)
		if err != nil {
			webutil.Fail(w, r, err)
			return
		}
		f.Owner = owner
	}
	a.serveSSE(w, r, f)
}

// handleEventsConsent serves GET /v1/events/consent?ticket=…: the
// requester-facing consent stream. Like GET /v1/token/status, possession
// of the unguessable ticket ID is the capability — no further
// authentication — and the stream delivers exactly that ticket's
// resolution (token included on approval) the moment the owner acts.
func (a *AM) handleEventsConsent(w http.ResponseWriter, r *http.Request) {
	ticket := r.URL.Query().Get(core.ParamTicket)
	if ticket == "" {
		webutil.FailCode(w, r, core.CodeBadRequest, "am: ?ticket= is required")
		return
	}
	a.serveSSE(w, r, events.Filter{
		Types:  []core.EventType{core.EventConsent},
		Ticket: ticket,
	})
}

// handleEventsInvalidation serves GET /v1/events/invalidation: the
// PEP-facing invalidation stream, authenticated by the pairing's HMAC
// channel like every Host API. The subscription is scoped to the
// pairing's owner (application-scoped pairings see every owner, matching
// their delegation).
func (a *AM) handleEventsInvalidation(w http.ResponseWriter, r *http.Request, p Pairing, _ []byte) {
	f := events.Filter{Types: []core.EventType{core.EventInvalidation}}
	if p.Scope != core.PairingScopeApplication {
		f.Owner = p.User
	}
	a.serveSSE(w, r, f)
}

// serveSSE runs one subscriber's event loop until the client disconnects
// or the AM closes: subscribe (with resume), frame events as SSE,
// heartbeat while idle, surface gaps as resync frames.
func (a *AM) serveSSE(w http.ResponseWriter, r *http.Request, f events.Filter) {
	after, err := parseLastEventID(r)
	if err != nil {
		webutil.Fail(w, r, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		webutil.FailCode(w, r, core.CodeInternal, "am: response writer cannot stream")
		return
	}
	sub, gap := a.broker.Subscribe(f, after)
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	// Tell buffering reverse proxies (nginx) to pass frames through.
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	// An opening comment flushes headers through intermediaries before the
	// first real event, so clients observe the connection promptly.
	fmt.Fprintf(w, ": stream am=%s\n\n", a.name)
	if gap {
		// The resume cursor predates the replay window: events were lost
		// before this subscription even started. The marker carries the
		// current head so the client's next resume cursor is valid.
		if writeSSEEvent(w, resyncEvent(a.broker.LastSeq())) != nil {
			return
		}
	}
	fl.Flush()

	hb := a.eventsCfg.Heartbeat
	ctx := r.Context()
	for {
		// Bound each wait by the heartbeat interval: on timeout we emit a
		// comment frame (which also detects dead client connections), on
		// parent cancellation we exit.
		waitCtx, cancel := context.WithTimeout(ctx, hb)
		e, gapped, err := sub.Next(waitCtx)
		cancel()
		switch {
		case err == nil:
			if gapped {
				if writeSSEEvent(w, resyncEvent(e.Seq-1)) != nil {
					return
				}
			}
			if writeSSEEvent(w, e) != nil {
				return
			}
			fl.Flush()
		case ctx.Err() != nil:
			return // client disconnected
		case waitCtx.Err() != nil:
			if _, err := io.WriteString(w, ": hb\n\n"); err != nil {
				return
			}
			fl.Flush()
		default:
			return // broker closed (AM shutting down)
		}
	}
}

// resyncEvent builds the in-band gap marker. seq is the last sequence
// number the hole extends to, so a client that reconnects with it as the
// cursor resumes cleanly after its re-sync.
func resyncEvent(seq int64) core.Event {
	return core.Event{Seq: seq, Type: core.EventResync, Time: time.Now()}
}

// writeSSEEvent frames one event; a write error means the client is gone.
func writeSSEEvent(w io.Writer, e core.Event) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data)
	return err
}
