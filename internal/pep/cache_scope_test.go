package pep

import (
	"fmt"
	"testing"
	"time"

	"umac/internal/core"
)

func scopedKey(i int) (string, EntryScope) {
	res := core.ResourceID(fmt.Sprintf("res-%04d", i))
	return strKey("tok", res, core.ActionRead), EntryScope{Owner: "bob", Realm: "travel", Resource: res}
}

// TestDecisionCacheCapacityEviction: the cache is bounded — under capacity
// pressure it evicts rather than grows, preferring the least recently used
// entries, and fresh inserts always land.
func TestDecisionCacheCapacityEviction(t *testing.T) {
	const capacity = cacheShards * 4
	c := NewDecisionCacheCap(capacity)
	for i := 0; i < capacity*4; i++ {
		key, sc := scopedKey(i)
		c.PutScoped(key, sc, true, 600)
	}
	if n := c.Len(); n > capacity {
		t.Fatalf("len = %d after overfill, want <= %d", n, capacity)
	}
	if c.Evictions() == 0 {
		t.Fatal("no evictions recorded under capacity pressure")
	}
	// The most recent insert must still be resident.
	key, _ := scopedKey(capacity*4 - 1)
	if _, ok := c.Get(key); !ok {
		t.Fatal("most recent entry was evicted")
	}
}

// TestDecisionCacheLRUOrder: within one shard, touching an entry protects
// it from the next eviction.
func TestDecisionCacheLRUOrder(t *testing.T) {
	c := NewDecisionCacheCap(cacheShards) // one entry per shard
	keyA, scA := scopedKey(1)
	c.PutScoped(keyA, scA, true, 600)
	if _, ok := c.Get(keyA); !ok {
		t.Fatal("A missing immediately after put")
	}
	// Find a key landing in A's shard; inserting it must evict A (cap 1).
	shardA := c.shardFor(stringKey(keyA))
	for i := 2; ; i++ {
		keyB, scB := scopedKey(i)
		if c.shardFor(stringKey(keyB)) != shardA {
			continue
		}
		c.PutScoped(keyB, scB, true, 600)
		if _, ok := c.Get(keyA); ok {
			t.Fatal("LRU entry survived over-capacity insert into its shard")
		}
		if _, ok := c.Get(keyB); !ok {
			t.Fatal("new entry not resident after eviction")
		}
		return
	}
}

// TestDecisionCacheExpiredDeletedOnRead: reading an expired entry removes
// it immediately (no accumulation until the next full invalidation), and
// Len never counts stale entries.
func TestDecisionCacheExpiredDeletedOnRead(t *testing.T) {
	c := NewDecisionCache()
	base := time.Now()
	now := base
	c.SetClock(func() time.Time { return now })
	key, sc := scopedKey(1)
	c.PutScoped(key, sc, true, 10)
	keep, sc2 := scopedKey(2)
	c.PutScoped(keep, sc2, true, 3600)

	now = base.Add(11 * time.Second)
	if n := c.Len(); n != 1 {
		t.Fatalf("Len = %d with one stale entry, want 1 (fresh only)", n)
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("stale entry served")
	}
	// The read reaped it: resetting the clock does not resurrect it.
	now = base
	if _, ok := c.Get(key); ok {
		t.Fatal("expired entry not deleted on read")
	}
	if _, ok := c.Get(keep); !ok {
		t.Fatal("fresh entry lost")
	}
}

// TestDecisionCacheSweep: Sweep reaps every expired entry in one pass.
func TestDecisionCacheSweep(t *testing.T) {
	c := NewDecisionCache()
	base := time.Now()
	now := base
	c.SetClock(func() time.Time { return now })
	for i := 0; i < 100; i++ {
		key, sc := scopedKey(i)
		ttl := 10
		if i%2 == 0 {
			ttl = 3600
		}
		c.PutScoped(key, sc, true, ttl)
	}
	now = base.Add(time.Minute)
	if removed := c.Sweep(); removed != 50 {
		t.Fatalf("Sweep removed %d, want 50", removed)
	}
	if n := c.Len(); n != 50 {
		t.Fatalf("Len after sweep = %d, want 50", n)
	}
}

// TestDecisionCacheScopedInvalidation: scoped eviction matches by owner +
// realm/resource and leaves everything else resident.
func TestDecisionCacheScopedInvalidation(t *testing.T) {
	c := NewDecisionCache()
	put := func(owner core.UserID, realm core.RealmID, res core.ResourceID) string {
		key := strKey("tok", res, core.ActionRead)
		c.PutScoped(key, EntryScope{Owner: owner, Realm: realm, Resource: res}, true, 600)
		return key
	}
	bobTravel := put("bob", "travel", "photo-1")
	bobWork := put("bob", "work", "doc-1")
	bobShared := put("bob", "misc", "shared-res")
	carol := put("carol", "travel", "photo-9")

	// Realm-scoped: only bob's travel entry goes.
	if n := c.InvalidateScope(Scope{Owner: "bob", Realms: []core.RealmID{"travel"}}); n != 1 {
		t.Fatalf("realm-scoped evicted %d, want 1", n)
	}
	for key, want := range map[string]bool{bobTravel: false, bobWork: true, bobShared: true, carol: true} {
		if _, ok := c.Get(key); ok != want {
			t.Fatalf("entry %q resident=%v, want %v", key[:8], ok, want)
		}
	}

	// Resource-scoped: only the named resource goes.
	if n := c.InvalidateScope(Scope{Owner: "bob", Resources: []core.ResourceID{"shared-res"}}); n != 1 {
		t.Fatalf("resource-scoped evicted %d, want 1", n)
	}
	if _, ok := c.Get(bobShared); ok {
		t.Fatal("resource-scoped entry survived")
	}
	if _, ok := c.Get(bobWork); !ok {
		t.Fatal("unrelated entry evicted by resource scope")
	}

	// Owner-wide (empty scope lists): all of bob's go, carol's stays.
	if n := c.InvalidateScope(Scope{Owner: "bob"}); n != 1 {
		t.Fatalf("owner-wide evicted %d, want 1 (only bobWork left)", n)
	}
	if _, ok := c.Get(carol); !ok {
		t.Fatal("other owner's entry evicted")
	}
}

// TestPutScopedAtDroppedAfterInvalidation: a decision-query response that
// was in flight when an invalidation ran must not be written back — the
// write is dropped when the captured generation is stale, whichever
// invalidation flavour bumped it.
func TestPutScopedAtDroppedAfterInvalidation(t *testing.T) {
	c := NewDecisionCache()
	key, sc := scopedKey(1)

	gen := c.Gen()
	c.InvalidateScope(Scope{Owner: "someone-else"})
	c.PutScopedAt(gen, key, sc, true, 600)
	if _, ok := c.Get(key); ok {
		t.Fatal("stale fill survived a scoped invalidation")
	}

	gen = c.Gen()
	c.Invalidate()
	c.PutScopedAt(gen, key, sc, true, 600)
	if _, ok := c.Get(key); ok {
		t.Fatal("stale fill survived a full invalidation")
	}

	// A fill with a current generation lands normally.
	c.PutScopedAt(c.Gen(), key, sc, true, 600)
	if _, ok := c.Get(key); !ok {
		t.Fatal("fresh fill dropped")
	}
}
