package core

import "time"

// This file defines the typed event envelopes of the streaming event
// control plane (GET /v1/events): the one server-push surface carrying
// decision-cache invalidation, consent resolution and replication signals
// to subscribed PEPs, Requesters and operators. The broker lives in
// internal/events; these are the wire types every subscriber decodes.

// EventType classifies a control-plane event.
type EventType string

// Event types carried on the /v1/events stream.
const (
	// EventInvalidation: a PAP mutation invalidated cached decisions; the
	// payload names the owner and the realms/resources to evict.
	EventInvalidation EventType = "invalidation"
	// EventConsent: an owner resolved a pending consent ticket; the
	// payload carries the outcome (and the minted token on approval).
	EventConsent EventType = "consent"
	// EventReplication: the node's replication state changed (connected,
	// disconnected, lag, promoted); the payload is the node's health.
	EventReplication EventType = "replication"
	// EventResync is the in-band gap marker: events were lost between the
	// subscriber's cursor and the stream's present (slow consumer, or a
	// resume cursor older than the replay window). The subscriber must
	// re-establish state out of band (drop caches, re-poll tickets) —
	// everything after the resync event is gapless again.
	EventResync EventType = "resync"
)

// Replication signal names carried in Event.Signal on EventReplication.
const (
	// SignalConnected: a follower (re-)established sync with its primary.
	SignalConnected = "connected"
	// SignalDisconnected: a follower lost its primary.
	SignalDisconnected = "disconnected"
	// SignalLag: a follower applied a page but is still behind the
	// primary (Replication.LagRecords says by how much).
	SignalLag = "lag"
	// SignalPromoted: this node was promoted from follower to primary.
	SignalPromoted = "promoted"
)

// Rebalance signal names carried in Event.Signal on EventReplication.
// Rebalancing is bulk topology-driven replication, so its lifecycle rides
// the replication event type: existing ?types=replication subscriptions
// see a rebalance live without a new stream.
const (
	// SignalRebalanceStarted: a coordinator began (or resumed) executing a
	// plan; Event.Rebalance carries the plan's progress.
	SignalRebalanceStarted = "rebalance-started"
	// SignalRebalanceMove: one owner finished moving; Event.Owner names it
	// and Event.Rebalance carries the updated progress.
	SignalRebalanceMove = "rebalance-move"
	// SignalRebalanceDone: every planned move completed.
	SignalRebalanceDone = "rebalance-done"
	// SignalRebalanceAborted: the coordinator stopped cleanly mid-plan.
	SignalRebalanceAborted = "rebalance-aborted"
	// SignalRebalanceFailed: a move exhausted its retries; the plan is
	// resumable.
	SignalRebalanceFailed = "rebalance-failed"
)

// Event is the envelope every /v1/events subscriber receives: one
// sequence-numbered, typed, owner-scoped control-plane signal. Exactly
// one payload pointer is set, matching Type (none for EventResync).
type Event struct {
	// Seq is the broker-assigned sequence number, strictly increasing per
	// node. Subscribers resume with it via the Last-Event-ID header.
	Seq int64 `json:"seq"`
	// Type classifies the payload.
	Type EventType `json:"type"`
	// Time is when the event was published (informational; ordering is
	// defined by Seq alone).
	Time time.Time `json:"time"`
	// Owner scopes the event to one resource owner's state. Empty on
	// node-wide events (replication signals, resync markers).
	Owner UserID `json:"owner,omitempty"`
	// Ticket names the consent ticket a consent event resolves.
	Ticket string `json:"ticket,omitempty"`
	// Signal is the replication sub-kind (SignalConnected et al.).
	Signal string `json:"signal,omitempty"`
	// Invalidation is the eviction scope of an invalidation event.
	Invalidation *InvalidationPush `json:"invalidation,omitempty"`
	// Consent is the resolved ticket state of a consent event.
	Consent *ConsentStatus `json:"consent,omitempty"`
	// Replication is the node's health at a replication event.
	Replication *ReplicationHealth `json:"replication,omitempty"`
	// Rebalance is the coordinator's progress at a rebalance signal
	// (SignalRebalanceStarted et al.; Type is EventReplication).
	Rebalance *RebalanceStatus `json:"rebalance,omitempty"`
}

// EventsHealth is the event-plane gauge set on GET /v1/metrics: live
// subscriber counts per stream type, publish/drop counters and the worst
// subscriber lag, so an operator can spot a stalled consumer before its
// ring buffer rolls.
type EventsHealth struct {
	// Subscribers counts active subscribers per event type they receive
	// (a subscriber to several types is counted under each).
	Subscribers map[EventType]int `json:"subscribers"`
	// Published counts events accepted by the broker since start.
	Published int64 `json:"published"`
	// Dropped counts events discarded from slow subscribers' ring
	// buffers (each drop leaves a gap marker, never a blocked publisher).
	Dropped int64 `json:"dropped"`
	// MaxLag is the largest (newest seq − last delivered seq) across
	// subscribers: how far the slowest live consumer trails the stream.
	MaxLag int64 `json:"max_lag"`
	// LastSeq is the newest sequence number assigned.
	LastSeq int64 `json:"last_seq"`
}

// ParamLastEventID is the query-parameter fallback for the Last-Event-ID
// resume header on GET /v1/events (EventSource implementations that
// cannot set headers).
const ParamLastEventID = "last_event_id"

// ParamTypes selects event types on GET /v1/events (comma-separated).
const ParamTypes = "types"
