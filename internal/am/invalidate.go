package am

import "umac/internal/core"

// This file implements decision-cache invalidation, realising the Section
// V.B.5 requirement that "the AM may provide a User with mechanisms to
// control caching of access control decisions" beyond passive TTLs: when a
// user edits policies, groups or links, the AM publishes the affected scope
// on its event control plane, and every Host subscribed to the owner's
// GET /v1/events/invalidation stream drops the matching cached decisions,
// so revocations take effect immediately rather than at TTL expiry. The
// event names the realms/resources the change affects, so Hosts evict only
// the matching entries and unrelated cached decisions keep serving locally.
//
// Delivery is best-effort — a Host that is not subscribed (or whose stream
// is down) still converges at TTL expiry, so the TTL remains the
// correctness bound and the event is a freshness optimisation.

// pushInvalidation drops the compiled decision index entries a PAP
// mutation can have affected and publishes the scoped invalidation event.
// Call sites are the PAP mutations (policy update/delete, link changes,
// group changes). realms and resources scope the event to the cache
// entries the mutation can have affected — a Host evicts only those, so a
// policy edit on one realm does not stampede the AM with re-queries for
// every other cached decision. Both empty means "evict everything of
// owner's" (used for group changes, which may affect any policy).
func (a *AM) pushInvalidation(owner core.UserID, realms []core.RealmID, resources []core.ResourceID) {
	// The compiled decision index keys its entries by the same scope, and
	// unlike Host caches it has no TTL backstop — drop its entries first.
	a.index.invalidate(owner, realms, resources)
	a.broker.Publish(core.Event{
		Type:  core.EventInvalidation,
		Owner: owner,
		Invalidation: &core.InvalidationPush{
			Owner:     owner,
			Realms:    realms,
			Resources: resources,
		},
	})
}
