package pep

import (
	"crypto/sha256"
	"encoding/binary"
	"hash/maphash"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"umac/internal/core"
	"umac/internal/memo"
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
//   - expired entries are deleted when a Get trips over them and by Sweep;
//     until then they occupy a slot of the bounded arena like any other
//     entry, and Len does not count them.
//
// No per-entry storage holds a pointer, so the garbage collector never
// scans the cache however full it is. Each shard keeps its entries in one
// slice of fixed-size slots, linked into LRU order by int32 indexes, and
// indexes them by a fixed-size key (see entryKey). Scope strings are
// stored as 64-bit hashes under a per-cache seed; equal strings always
// hash equal, so an invalidation can never miss an entry it names, and a
// collision can only evict an unrelated entry too — a revoked grant still
// stops permitting.
//
// Beside the entries the cache keeps a small memo from recently presented
// tokens to their SHA-256 (see digest), so a cache hit does not
// re-hash a token of several hundred bytes. It is the only part of the
// cache that holds pointers, and it is bounded to memo.Size tokens.
// It is purely a compute cache: a token it does not hold is hashed again,
// giving the same digest and so the same entry key, so neither the hit
// ratio nor any decision depends on what it holds. The saving therefore
// holds while a Host's traffic reuses at most memo.Size (1 024)
// tokens at a time; beyond that a hit hashes its token as it would
// without the memo, plus one failed memo lookup.
type DecisionCache struct {
	shards   [cacheShards]cacheShard
	perShard int
	// now is a test clock set by SetClock; nil reads the monotonic clock.
	now func() time.Time
	// epoch anchors slot expiry times, stored as nanoseconds since it, so
	// expiry follows the monotonic clock like the time.Time values it came
	// from.
	epoch time.Time
	seed  maphash.Seed
	memo  memo.Memo[tokenDigest]
	seen  [memo.Size]atomic.Uint64

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

// nilSlot ends an LRU or free list.
const nilSlot = -1

type cacheShard struct {
	mu    sync.Mutex
	index map[entryKey]int32
	slots []slot // arena; never longer than perShard
	head  int32  // most recently used slot
	tail  int32  // least recently used slot
	free  int32  // first unused slot, chained through next
}

// entryKey is a cache key in fixed-size form. It comes in two kinds, which
// never equal each other:
//
//   - a string key, from the exported string API (Get, Put, PutScoped*):
//     tok is zero and b holds the caller's key;
//   - a Check key, from the enforcement paths: tok is the SHA-256 of the
//     bearer token and b holds resource‖0‖action.
//
// Either way b holds its bytes verbatim, with their length in n, when they
// fit, and their SHA-256 otherwise, with n = hashedKey. Two distinct keys
// therefore share a slot only on a SHA-256 collision. A Check key keeps
// the digest beside resource‖0‖action, rather than one hash of both, so
// a hit with a short resource runs no SHA-256 block at all.
type entryKey struct {
	tok  tokenDigest
	b    [sha256.Size]byte
	n    uint8 // length of b's bytes stored verbatim, or hashedKey
	kind uint8 // stringKind or checkKind
}

// tokenDigest is the SHA-256 of a bearer token.
type tokenDigest = [sha256.Size]byte

// hashedKey marks an entryKey holding the SHA-256 of bytes longer than
// sha256.Size, so it never equals a verbatim key.
const hashedKey = sha256.Size + 1

// The kinds of entryKey.
const (
	stringKind uint8 = iota
	checkKind
)

// stringKey converts a caller's string key.
func stringKey(key string) entryKey {
	var k entryKey
	if len(key) <= len(k.b) {
		k.n = uint8(copy(k.b[:], key))
		return k
	}
	k.b, k.n = sha256.Sum256([]byte(key)), hashedKey
	return k
}

// scopeTags is an EntryScope in hashed form.
type scopeTags struct{ owner, realm, resource uint64 }

type slot struct {
	expires    int64 // nanoseconds since the cache's epoch
	tags       scopeTags
	prev, next int32
	key        entryKey
	permit     bool
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

// scopeMatcher is a Scope in hashed form.
type scopeMatcher struct {
	owner             uint64
	realms, resources []uint64
}

func (m *scopeMatcher) matches(t scopeTags) bool {
	if t.owner != m.owner {
		return false
	}
	if len(m.realms) == 0 && len(m.resources) == 0 {
		return true
	}
	for _, r := range m.realms {
		if t.realm == r {
			return true
		}
	}
	for _, r := range m.resources {
		if t.resource == r {
			return true
		}
	}
	return false
}

// NewDecisionCache returns an empty cache with DefaultCacheCapacity.
func NewDecisionCache() *DecisionCache {
	return NewDecisionCacheCap(DefaultCacheCapacity)
}

// NewDecisionCacheCap returns an empty cache bounded to roughly capacity
// entries: each shard holds capacity/16 of them (rounded down, at least
// one).
func NewDecisionCacheCap(capacity int) *DecisionCache {
	perShard := capacity / cacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &DecisionCache{perShard: perShard, epoch: time.Now(), seed: maphash.MakeSeed()}
	for i := range c.shards {
		s := &c.shards[i]
		s.index = make(map[entryKey]int32)
		s.head, s.tail, s.free = nilSlot, nilSlot, nilSlot
	}
	return c
}

// SetClock overrides the cache's time source for tests. Call before the
// cache is shared between goroutines.
func (c *DecisionCache) SetClock(now func() time.Time) { c.now = now }

// cacheKey derives the Check key of (token, resource, action) from the
// token's digest: the token identifies the (requester, realm) grant;
// resource and action narrow it to the exact decision the AM issued
// ("whether an access control decision has been already obtained from AM
// for this Requester to access this particular resource"). The token is
// not hashed again, so the key costs the same whatever the token's length.
func cacheKey(tok tokenDigest, res core.ResourceID, action core.Action) entryKey {
	k := entryKey{tok: tok, kind: checkKind}
	if n := len(res) + 1 + len(action); n <= len(k.b) {
		i := copy(k.b[:], res)
		copy(k.b[i+1:], action)
		k.n = uint8(n)
		return k
	}
	var buf [512]byte
	b := append(buf[:0], res...)
	b = append(b, 0)
	b = append(b, action...)
	k.b, k.n = sha256.Sum256(b), hashedKey
	return k
}

// maxMemoToken caps the tokens the digest memo takes: longer ones are
// hashed every time, so the memo holds at most memo.Size*maxMemoToken
// bytes of tokens however large a token a Requester sends.
const maxMemoToken = 2048

// digest returns the SHA-256 of tok, from the memo when it holds tok and
// otherwise computed. A token is memoised on its second miss while seen,
// which holds the digests of tokens that recently missed once, folded to
// 64 bits and direct-mapped, still remembers the first. So a Host
// presented with more distinct tokens than the memo holds pays, for each
// one it lacks, the hash and one atomic swap: no lock, copy or eviction.
func (c *DecisionCache) digest(tok string) tokenDigest {
	if len(tok) > maxMemoToken {
		return sha256.Sum256([]byte(tok))
	}
	if d, ok := c.memo.Get(tok); ok {
		return d
	}
	var buf [512]byte
	d := sha256.Sum256(append(buf[:0], tok...))
	x := binary.LittleEndian.Uint64(d[:8])
	if c.seen[x%uint64(len(c.seen))].Swap(x) == x {
		// A copy, so the memo never pins the larger string a token was
		// sliced from.
		c.memo.Add(strings.Clone(tok), d)
	}
	return d
}

// shardFor picks k's lock stripe. Mixing in the first bytes of a Check
// key's token digest spreads one resource's entries, under many tokens,
// over every stripe; a string key's tok is zero and changes nothing.
func (c *DecisionCache) shardFor(k entryKey) *cacheShard {
	h := maphash.Bytes(c.seed, k.b[:]) ^ binary.LittleEndian.Uint64(k.tok[:8])
	return &c.shards[h&(cacheShards-1)]
}

// clock reads the cache's time as nanoseconds since its epoch. Without a
// test clock it reads only the monotonic clock.
func (c *DecisionCache) clock() int64 {
	if c.now == nil {
		return int64(time.Since(c.epoch))
	}
	return int64(c.now().Sub(c.epoch))
}

func (c *DecisionCache) tag(s string) uint64 { return maphash.String(c.seed, s) }

// Get returns the cached decision if present and fresh. An expired entry is
// deleted on the spot rather than left to linger until the next sweep.
func (c *DecisionCache) Get(key string) (permit, ok bool) {
	return c.get(stringKey(key))
}

func (c *DecisionCache) get(k entryKey) (permit, ok bool) {
	s := c.shardFor(k)
	now := c.clock()
	s.mu.Lock()
	i, present := s.index[k]
	if !present {
		s.mu.Unlock()
		c.misses.Add(1)
		return false, false
	}
	if now > s.slots[i].expires {
		s.removeLocked(i)
		s.mu.Unlock()
		c.misses.Add(1)
		return false, false
	}
	s.touchLocked(i)
	permit = s.slots[i].permit
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
	c.put(stringKey(key), scope, permit, ttlSeconds, 0, false)
}

// PutScopedAt is PutScoped guarded by the invalidation generation: if any
// invalidation has run since gen was observed, the decision may predate a
// policy change and the write is silently dropped — the next access simply
// re-queries. Checked under the shard lock, so a concurrent invalidation
// either sees the entry (and evicts it) or has already bumped the
// generation (and the write is dropped); a stale permit can never survive.
func (c *DecisionCache) PutScopedAt(gen uint64, key string, scope EntryScope, permit bool, ttlSeconds int) {
	c.put(stringKey(key), scope, permit, ttlSeconds, gen, true)
}

func (c *DecisionCache) put(k entryKey, scope EntryScope, permit bool, ttlSeconds int, gen uint64, checkGen bool) {
	if ttlSeconds <= 0 {
		return
	}
	expires := c.clock() + int64(time.Duration(ttlSeconds)*time.Second)
	tags := scopeTags{c.tag(string(scope.Owner)), c.tag(string(scope.Realm)), c.tag(string(scope.Resource))}
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if checkGen && c.gen.Load() != gen {
		return
	}
	if i, ok := s.index[k]; ok {
		sl := &s.slots[i]
		sl.permit, sl.expires, sl.tags = permit, expires, tags
		s.touchLocked(i)
		return
	}
	if len(s.index) >= c.perShard {
		// Full shard: evict the least recently used entry.
		s.removeLocked(s.tail)
		c.evictions.Add(1)
	}
	i := s.free
	if i != nilSlot {
		s.free = s.slots[i].next
	} else {
		if len(s.slots) == cap(s.slots) {
			grown := make([]slot, len(s.slots), min(max(2*cap(s.slots), 8), c.perShard))
			copy(grown, s.slots)
			s.slots = grown
		}
		i = int32(len(s.slots))
		s.slots = append(s.slots, slot{})
	}
	s.slots[i] = slot{expires: expires, tags: tags, key: k, permit: permit}
	s.pushFrontLocked(i)
	s.index[k] = i
}

// pushFrontLocked links slot i in as the most recently used.
func (s *cacheShard) pushFrontLocked(i int32) {
	s.slots[i].prev, s.slots[i].next = nilSlot, s.head
	if s.head != nilSlot {
		s.slots[s.head].prev = i
	} else {
		s.tail = i
	}
	s.head = i
}

// unlinkLocked takes slot i out of the LRU order.
func (s *cacheShard) unlinkLocked(i int32) {
	sl := &s.slots[i]
	if sl.prev != nilSlot {
		s.slots[sl.prev].next = sl.next
	} else {
		s.head = sl.next
	}
	if sl.next != nilSlot {
		s.slots[sl.next].prev = sl.prev
	} else {
		s.tail = sl.prev
	}
}

// touchLocked marks slot i most recently used.
func (s *cacheShard) touchLocked(i int32) {
	if s.head != i {
		s.unlinkLocked(i)
		s.pushFrontLocked(i)
	}
}

// removeLocked drops slot i's entry and puts the slot on the free list.
func (s *cacheShard) removeLocked(i int32) {
	s.unlinkLocked(i)
	delete(s.index, s.slots[i].key)
	s.slots[i].next = s.free
	s.free = i
}

// removeIfLocked removes every entry drop selects and returns how many.
func (s *cacheShard) removeIfLocked(drop func(*slot) bool) int {
	var removed int
	for i := s.head; i != nilSlot; {
		next := s.slots[i].next
		if drop(&s.slots[i]) {
			s.removeLocked(i)
			removed++
		}
		i = next
	}
	return removed
}

// Sweep removes every expired entry and reports how many it dropped. Get
// already reaps the expired entries it meets and the arena bounds what the
// rest can hold, so calling Sweep is optional hygiene for long-idle Hosts.
func (c *DecisionCache) Sweep() int {
	now := c.clock()
	var removed int
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		removed += s.removeIfLocked(func(sl *slot) bool { return now > sl.expires })
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
		clear(s.index)
		s.slots = s.slots[:0]
		s.head, s.tail, s.free = nilSlot, nilSlot, nilSlot
		s.mu.Unlock()
	}
}

// InvalidateScope drops the cached decisions a policy change can have
// affected — entries whose owner matches and whose realm or resource is
// named by the scope (or all of the owner's entries when the scope names
// none). Unrelated entries survive and keep serving locally, so one policy
// edit does not force the Host to re-query every cached decision. Matching
// compares hashes, so it can evict more than the scope names but never
// less. Returns how many entries were evicted.
func (c *DecisionCache) InvalidateScope(scope Scope) int {
	c.gen.Add(1)
	m := scopeMatcher{owner: c.tag(string(scope.Owner))}
	for _, r := range scope.Realms {
		m.realms = append(m.realms, c.tag(string(r)))
	}
	for _, r := range scope.Resources {
		m.resources = append(m.resources, c.tag(string(r)))
	}
	var removed int
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		removed += s.removeIfLocked(func(sl *slot) bool { return m.matches(sl.tags) })
		s.mu.Unlock()
	}
	return removed
}

// Len returns the number of fresh cached entries; expired entries that have
// not been reaped yet are not counted.
func (c *DecisionCache) Len() int {
	now := c.clock()
	var n int
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for j := s.head; j != nilSlot; j = s.slots[j].next {
			if now <= s.slots[j].expires {
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
