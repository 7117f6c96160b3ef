package pep

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"umac/internal/core"
)

// DecisionCache caches AM decisions at the Host so "each subsequent request
// to a resource does not have to follow the entire protocol ... a Host does
// not have to issue an access control decision query to an Authorization
// Manager" (Section V.B.6). TTLs come from the AM per decision, giving the
// user control over caching (Section V.B.5).
//
// The cache is a bounded, shard-striped LRU:
//
//   - entries hash onto lock-striped shards, so concurrent enforcement
//     checks on different keys never contend;
//   - each shard holds at most its share of the configured capacity and
//     evicts its least-recently-used entry when full, so a busy Host's
//     cache cannot grow without bound;
//   - every entry is tagged with the (owner, realm, resource) scope it
//     decides for, so an AM invalidation push naming the realms/resources a
//     policy change affected evicts exactly those entries — unrelated
//     cached decisions keep serving locally (see InvalidateScope);
//   - expired entries are deleted when a Get trips over them, and each
//     shard opportunistically sweeps itself every sweepEvery writes, so
//     stale entries cannot accumulate between full invalidations. Sweep
//     runs the same pass on demand.
type DecisionCache struct {
	shards   [cacheShards]cacheShard
	perShard int
	now      func() time.Time

	// gen counts invalidations. A decision-query response that was in
	// flight when an invalidation landed must not be written back (it was
	// evaluated under the old policy); fills capture Gen() before querying
	// and PutScopedAt drops the write if it moved. Incremented BEFORE the
	// eviction walk, so a fill that read the old value has its entry
	// inserted before the walk reaches its shard — and thus evicted.
	gen atomic.Uint64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// cacheShards is the number of lock stripes. Power of two so the shard
// index is a mask.
const cacheShards = 16

// DefaultCacheCapacity bounds the total entry count of NewDecisionCache.
const DefaultCacheCapacity = 65536

// sweepEvery is how many writes a shard accepts between opportunistic
// expiry sweeps.
const sweepEvery = 256

type cacheShard struct {
	mu    sync.Mutex
	byKey map[string]*list.Element
	lru   *list.List // front = most recently used
	puts  int        // writes since the last opportunistic sweep
}

// EntryScope names what a cached decision is about, so invalidation pushes
// can be applied to exactly the entries a policy change affected.
type EntryScope struct {
	Owner    core.UserID
	Realm    core.RealmID
	Resource core.ResourceID
}

// Scope selects cache entries for InvalidateScope. An entry matches when
// its owner equals Owner and — unless both lists are empty, which means
// "everything of the owner's" — its realm appears in Realms or its resource
// appears in Resources.
type Scope struct {
	Owner     core.UserID
	Realms    []core.RealmID
	Resources []core.ResourceID
}

func (s Scope) matches(e EntryScope) bool {
	if e.Owner != s.Owner {
		return false
	}
	if len(s.Realms) == 0 && len(s.Resources) == 0 {
		return true
	}
	for _, r := range s.Realms {
		if e.Realm == r {
			return true
		}
	}
	for _, r := range s.Resources {
		if e.Resource == r {
			return true
		}
	}
	return false
}

type cacheEntry struct {
	key     string
	permit  bool
	expires time.Time
	scope   EntryScope
}

// NewDecisionCache returns an empty cache with DefaultCacheCapacity.
func NewDecisionCache() *DecisionCache {
	return NewDecisionCacheCap(DefaultCacheCapacity)
}

// NewDecisionCacheCap returns an empty cache bounded to roughly capacity
// entries (rounded up to a multiple of the shard count).
func NewDecisionCacheCap(capacity int) *DecisionCache {
	perShard := capacity / cacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &DecisionCache{perShard: perShard, now: time.Now}
	for i := range c.shards {
		c.shards[i].byKey = make(map[string]*list.Element)
		c.shards[i].lru = list.New()
	}
	return c
}

// SetClock overrides the cache's time source for tests. Call before the
// cache is shared between goroutines.
func (c *DecisionCache) SetClock(now func() time.Time) { c.now = now }

// cacheKey derives the cache key. The token identifies the (requester,
// realm) grant; resource and action narrow it to the exact decision the AM
// issued ("whether an access control decision has been already obtained
// from AM for this Requester to access this particular resource").
func cacheKey(token string, res core.ResourceID, action core.Action) string {
	h := sha256.New()
	h.Write([]byte(token))
	h.Write([]byte{0})
	h.Write([]byte(res))
	h.Write([]byte{0})
	h.Write([]byte(action))
	return hex.EncodeToString(h.Sum(nil))
}

func (c *DecisionCache) shardFor(key string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return &c.shards[h.Sum32()&(cacheShards-1)]
}

// Get returns the cached decision if present and fresh. An expired entry is
// deleted on the spot rather than left to linger until the next sweep.
func (c *DecisionCache) Get(key string) (permit, ok bool) {
	s := c.shardFor(key)
	now := c.now()
	s.mu.Lock()
	el, present := s.byKey[key]
	if !present {
		s.mu.Unlock()
		c.misses.Add(1)
		return false, false
	}
	e := el.Value.(*cacheEntry)
	if now.After(e.expires) {
		s.removeLocked(el)
		s.mu.Unlock()
		c.misses.Add(1)
		return false, false
	}
	s.lru.MoveToFront(el)
	permit = e.permit
	s.mu.Unlock()
	c.hits.Add(1)
	return permit, true
}

// Put stores an unscoped decision for ttlSeconds. Unscoped entries are
// only removed by key expiry, capacity eviction or a full Invalidate;
// enforcement paths use PutScoped so invalidation pushes can reach them.
func (c *DecisionCache) Put(key string, permit bool, ttlSeconds int) {
	c.PutScoped(key, EntryScope{}, permit, ttlSeconds)
}

// Gen returns the invalidation generation. Capture it before issuing a
// decision query and pass it to PutScopedAt so a response that raced an
// invalidation push is not written back as a fresh entry.
func (c *DecisionCache) Gen() uint64 { return c.gen.Load() }

// PutScoped stores a decision for ttlSeconds, tagged with the (owner,
// realm, resource) it was issued for.
func (c *DecisionCache) PutScoped(key string, scope EntryScope, permit bool, ttlSeconds int) {
	c.putScoped(key, scope, permit, ttlSeconds, 0, false)
}

// PutScopedAt is PutScoped guarded by the invalidation generation: if any
// invalidation has run since gen was observed, the decision may predate a
// policy change and the write is silently dropped — the next access simply
// re-queries. Checked under the shard lock, so a concurrent invalidation
// either sees the entry (and evicts it) or has already bumped the
// generation (and the write is dropped); a stale permit can never survive.
func (c *DecisionCache) PutScopedAt(gen uint64, key string, scope EntryScope, permit bool, ttlSeconds int) {
	c.putScoped(key, scope, permit, ttlSeconds, gen, true)
}

func (c *DecisionCache) putScoped(key string, scope EntryScope, permit bool, ttlSeconds int, gen uint64, checkGen bool) {
	if ttlSeconds <= 0 {
		return
	}
	now := c.now()
	expires := now.Add(time.Duration(ttlSeconds) * time.Second)
	s := c.shardFor(key)
	s.mu.Lock()
	if checkGen && c.gen.Load() != gen {
		s.mu.Unlock()
		return
	}
	if el, ok := s.byKey[key]; ok {
		e := el.Value.(*cacheEntry)
		e.permit, e.expires, e.scope = permit, expires, scope
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	if s.lru.Len() >= c.perShard {
		// Full shard: evict the least recently used entry.
		if back := s.lru.Back(); back != nil {
			s.removeLocked(back)
			c.evictions.Add(1)
		}
	}
	s.byKey[key] = s.lru.PushFront(&cacheEntry{key: key, permit: permit, expires: expires, scope: scope})
	s.puts++
	if s.puts >= sweepEvery {
		s.puts = 0
		s.sweepLocked(now)
	}
	s.mu.Unlock()
}

// removeLocked drops an element from the shard; the shard lock is held.
func (s *cacheShard) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	delete(s.byKey, e.key)
	s.lru.Remove(el)
}

// sweepLocked removes every expired entry from the shard; the shard lock is
// held. Returns how many were removed.
func (s *cacheShard) sweepLocked(now time.Time) int {
	var removed int
	for el := s.lru.Front(); el != nil; {
		next := el.Next()
		if now.After(el.Value.(*cacheEntry).expires) {
			s.removeLocked(el)
			removed++
		}
		el = next
	}
	return removed
}

// Sweep removes every expired entry and reports how many it dropped. The
// cache also sweeps opportunistically as it is written, so calling Sweep is
// optional hygiene for long-idle Hosts.
func (c *DecisionCache) Sweep() int {
	now := c.now()
	var removed int
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		removed += s.sweepLocked(now)
		s.mu.Unlock()
	}
	return removed
}

// Invalidate drops every cached decision (e.g. after an invalidation push
// that does not name an owner, or on operator request).
func (c *DecisionCache) Invalidate() {
	c.gen.Add(1)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.byKey = make(map[string]*list.Element)
		s.lru.Init()
		s.mu.Unlock()
	}
}

// InvalidateScope drops the cached decisions a policy change can have
// affected — entries whose owner matches and whose realm or resource is
// named by the scope (or all of the owner's entries when the scope names
// none). Unrelated entries survive and keep serving locally, so one policy
// edit does not force the Host to re-query every cached decision. Returns
// how many entries were evicted.
func (c *DecisionCache) InvalidateScope(scope Scope) int {
	c.gen.Add(1)
	var removed int
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.lru.Front(); el != nil; {
			next := el.Next()
			if scope.matches(el.Value.(*cacheEntry).scope) {
				s.removeLocked(el)
				removed++
			}
			el = next
		}
		s.mu.Unlock()
	}
	return removed
}

// Len returns the number of fresh cached entries; expired entries that have
// not been reaped yet are not counted.
func (c *DecisionCache) Len() int {
	now := c.now()
	var n int
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.lru.Front(); el != nil; el = el.Next() {
			if !now.After(el.Value.(*cacheEntry).expires) {
				n++
			}
		}
		s.mu.Unlock()
	}
	return n
}

// Stats returns cumulative hit/miss counts.
func (c *DecisionCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Evictions returns how many entries capacity pressure has pushed out.
func (c *DecisionCache) Evictions() int64 { return c.evictions.Load() }
