package pep

import (
	"errors"
	"fmt"
	"log"
	"time"

	"umac/internal/amclient"
	"umac/internal/core"
)

// This file is the PEP's consumer of the AM's event control plane: a
// subscription to GET /v1/events/invalidation (signed with the pairing
// channel, like every Host→AM call) that applies scoped decision-cache
// evictions the moment a policy changes — the AM never dials the Host. The
// cache TTL remains the correctness backstop throughout: losing the stream
// can only delay freshness, never grant stale access beyond the TTL.

// DefaultStreamRetry is how long an invalidation subscription waits after
// the stream failed persistently (ErrStreamFailed) before resubscribing.
const DefaultStreamRetry = 15 * time.Second

// StartInvalidationStream subscribes the enforcer to owner's AM
// invalidation events and applies them to the decision cache until Close.
// It returns once the AM has registered the subscription, so every event
// published after a nil return is applied (or, if lost, answered with a
// resync that drops the cache); an error means no subscription was made.
// On a later persistent stream failure the whole cache is dropped once
// (fail-safe: evictions may have been missed) and the subscription
// retries after Config.StreamRetry — the TTL carries freshness in the
// meantime. Call once per paired owner.
func (e *Enforcer) StartInvalidationStream(owner core.UserID) error {
	p, ok := e.PairingFor(owner)
	if !ok {
		return core.ErrNotPaired
	}
	stream := e.amFor(p).Stream(amclient.StreamConfig{Path: "/events/invalidation"})
	if err := stream.Connect(e.streamCtx); err != nil {
		stream.Close()
		return fmt.Errorf("pep: invalidation stream: %w", err)
	}
	e.streamWG.Add(1)
	go func() {
		defer e.streamWG.Done()
		defer stream.Close()
		for {
			ev, err := stream.Next(e.streamCtx)
			switch {
			case e.streamCtx.Err() != nil:
				return
			case errors.Is(err, amclient.ErrStreamFailed):
				// Events may have been missed while disconnected; drop the
				// cache once rather than serve decisions the AM already
				// revoked, then wait out the retry pause.
				log.Printf("pep: invalidation stream for %s at %s failed, cache dropped, retrying in %s: %v",
					owner, p.AMURL, e.streamRetry, err)
				e.cache.Invalidate()
				t := time.NewTimer(e.streamRetry)
				select {
				case <-e.streamCtx.Done():
					t.Stop()
					return
				case <-t.C:
				}
			case err != nil:
				// Transient (context deadline etc.): the stream resumes by
				// cursor on the next call.
			default:
				e.applyEvent(ev)
			}
		}
	}()
	return nil
}

// SubscribeAll subscribes the invalidation stream of every owner the
// enforcer holds a default pairing for — after a restart, the pairings
// rehydrated from Config.Store — and returns the owners it could not
// subscribe, with why. Those keep the cache TTL as their freshness bound.
func (e *Enforcer) SubscribeAll() map[core.UserID]error {
	e.mu.RLock()
	owners := make([]core.UserID, 0, len(e.pairings))
	for owner := range e.pairings {
		owners = append(owners, owner)
	}
	e.mu.RUnlock()
	failed := make(map[core.UserID]error)
	for _, owner := range owners {
		if err := e.StartInvalidationStream(owner); err != nil {
			failed[owner] = err
		}
	}
	return failed
}

// applyEvent applies one stream event to the decision cache: scoped
// eviction when the event names an owner, full drop on anything doubtful
// (resync markers, unscoped payloads) — when in doubt, never leave a stale
// permit behind.
func (e *Enforcer) applyEvent(ev core.Event) {
	switch ev.Type {
	case core.EventResync:
		// Events were lost between our cursor and the stream head: any of
		// them could have been an eviction we needed.
		e.cache.Invalidate()
	case core.EventInvalidation:
		push := ev.Invalidation
		if push == nil || push.Owner == "" {
			e.cache.Invalidate()
			return
		}
		e.cache.InvalidateScope(Scope{
			Owner:     push.Owner,
			Realms:    push.Realms,
			Resources: push.Resources,
		})
	}
}
