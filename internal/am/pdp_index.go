package am

import (
	"encoding/json"
	"strings"
	"sync"

	"umac/internal/core"
	"umac/internal/policy"
)

// This file is the AM's compiled decision index: a cache from link keys
// (the same owner/realm and owner/host/resource keys the PAP stores link
// records under) to compiled policies, consulted by the decision path
// before any store scan. Entries are filled lazily on first use and
// dropped by exactly the scoped-invalidation events the PAP already
// computes for Host cache pushes — a policy edit on one realm recompiles
// that realm's entry and nothing else. Negative results (no policy linked,
// or a dangling link) are cached too, except for the common case of a
// resource with no specific link at all: that is answered by a store
// existence check each time, so the index holds one entry per link, never
// one per resource a Host has ever asked about.
//
// Staleness discipline: unlike Host decision caches there is no TTL
// backstop here, so every mutation that can change what a link key
// resolves to MUST reach invalidate/applyRecord/reset. The hooks are:
// pushInvalidation (every PAP mutation), the follower replication apply
// (syncOnce), bootstrap/snapshot install (reset), and the cluster
// migration import (applyImported).

// decisionIndex caches compiled policies by link key.
type decisionIndex struct {
	mu sync.RWMutex
	// gen maps linkGenKey(owner, realm) to the realm's compiled general
	// policy; spec maps linkSpecKey(owner, host, resource) likewise. A
	// present nil value is a negative entry: the lookup ran and found no
	// (resolvable) policy.
	gen  map[string]*policy.CompiledPolicy
	spec map[string]*policy.CompiledPolicy
	// ver counts invalidations. Lazy fills capture it before resolving
	// from the store and only insert if it is unchanged, so a fill racing
	// an invalidation can never install a stale entry over the drop.
	ver uint64
}

func newDecisionIndex() *decisionIndex {
	return &decisionIndex{
		gen:  make(map[string]*policy.CompiledPolicy),
		spec: make(map[string]*policy.CompiledPolicy),
	}
}

// lookup returns the cached entry (which may be a negative nil), whether
// one was present, and the version to pass back to store on a miss.
func (ix *decisionIndex) lookup(m map[string]*policy.CompiledPolicy, key string) (*policy.CompiledPolicy, bool, uint64) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	c, ok := m[key]
	return c, ok, ix.ver
}

// store installs a freshly resolved entry unless an invalidation ran since
// the version was captured (the resolve may then have read stale state).
func (ix *decisionIndex) store(m map[string]*policy.CompiledPolicy, key string, c *policy.CompiledPolicy, ver uint64) {
	ix.mu.Lock()
	if ix.ver == ver {
		m[key] = c
	}
	ix.mu.Unlock()
}

func (ix *decisionIndex) lookupGeneral(key string) (*policy.CompiledPolicy, bool, uint64) {
	return ix.lookup(ix.gen, key)
}

func (ix *decisionIndex) lookupSpecific(key string) (*policy.CompiledPolicy, bool, uint64) {
	return ix.lookup(ix.spec, key)
}

func (ix *decisionIndex) storeGeneral(key string, c *policy.CompiledPolicy, ver uint64) {
	ix.store(ix.gen, key, c, ver)
}

func (ix *decisionIndex) storeSpecific(key string, c *policy.CompiledPolicy, ver uint64) {
	ix.store(ix.spec, key, c, ver)
}

// invalidate drops the entries a PAP mutation can have affected, mirroring
// the scope contract of pushInvalidation: realms name general entries,
// resources name specific entries (across all hosts — the push does not
// carry the host), and an empty scope means everything of owner's.
func (ix *decisionIndex) invalidate(owner core.UserID, realms []core.RealmID, resources []core.ResourceID) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.ver++
	if len(realms) == 0 && len(resources) == 0 {
		ix.dropOwnerLocked(owner)
		return
	}
	for _, realm := range realms {
		delete(ix.gen, linkGenKey(owner, realm))
	}
	if len(resources) == 0 {
		return
	}
	// Specific keys are owner/host/resource and the resource itself may
	// contain '/', so match by prefix and suffix rather than splitting.
	prefix := string(owner) + "/"
	for _, res := range resources {
		suffix := "/" + string(res)
		for key := range ix.spec {
			if strings.HasPrefix(key, prefix) && strings.HasSuffix(key, suffix) {
				delete(ix.spec, key)
			}
		}
	}
}

func (ix *decisionIndex) dropOwnerLocked(owner core.UserID) {
	prefix := string(owner) + "/"
	for key := range ix.gen {
		if strings.HasPrefix(key, prefix) {
			delete(ix.gen, key)
		}
	}
	for key := range ix.spec {
		if strings.HasPrefix(key, prefix) {
			delete(ix.spec, key)
		}
	}
}

// reset drops everything — the bootstrap path, where the whole store was
// just replaced underneath the index. It empties the maps in place: gen
// and spec are never reassigned, so lookup and store may read them
// without the lock and touch only their contents under it.
func (ix *decisionIndex) reset() {
	ix.mu.Lock()
	ix.ver++
	clear(ix.gen)
	clear(ix.spec)
	ix.mu.Unlock()
}

// applyRecord is the invalidation hook for records that arrive from
// outside the local PAP path (follower replication apply, cluster
// migration import): it drops whatever the record can have changed. Group
// records are ignored on purpose — membership is resolved live through
// the GroupResolver, so they never affect compiled structure.
func (ix *decisionIndex) applyRecord(rec core.ReplRecord) {
	switch rec.Kind {
	case kindLinkGen:
		ix.mu.Lock()
		ix.ver++
		delete(ix.gen, rec.Key)
		ix.mu.Unlock()
	case kindLinkSpec:
		ix.mu.Lock()
		ix.ver++
		delete(ix.spec, rec.Key)
		ix.mu.Unlock()
	case kindPolicy:
		// The record key is the policy ID, not a link key; without the
		// reverse link mapping the safe scope is the owner. A delete (or
		// an undecodable payload) does not name the owner at all, so it
		// falls back to a full reset.
		if rec.Op == core.ReplOpPut {
			var p policy.Policy
			if json.Unmarshal(rec.Data, &p) == nil && p.Owner != "" {
				ix.mu.Lock()
				ix.ver++
				ix.dropOwnerLocked(p.Owner)
				ix.mu.Unlock()
				return
			}
		}
		ix.reset()
	}
}

// compiledGeneral resolves the realm's compiled general policy through the
// index, filling it on miss.
func (a *AM) compiledGeneral(owner core.UserID, realm core.RealmID) *policy.CompiledPolicy {
	key := linkGenKey(owner, realm)
	c, ok, ver := a.index.lookupGeneral(key)
	if ok {
		return c
	}
	c = policy.Compile(a.generalPolicyFor(owner, realm))
	a.index.storeGeneral(key, c, ver)
	return c
}

// compiledSpecific resolves a resource's compiled specific policy through
// the index, filling it on miss.
func (a *AM) compiledSpecific(owner core.UserID, host core.HostID, res core.ResourceID) *policy.CompiledPolicy {
	key := linkSpecKey(owner, host, res)
	c, ok, ver := a.index.lookupSpecific(key)
	if ok {
		return c
	}
	if !a.store.Exists(kindLinkSpec, key) {
		return nil
	}
	c = policy.Compile(a.specificPolicyFor(owner, host, res))
	a.index.storeSpecific(key, c, ver)
	return c
}
