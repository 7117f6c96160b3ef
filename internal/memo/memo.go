// Package memo is a bounded memo from strings to values, for keys whose
// last bytes are uniform: the MAC tail of a bearer token. The AM's token
// service keeps verified tokens' claims in one, and the Host's decision
// cache keeps presented tokens' digests.
//
// A Memo holds at most Size keys, split into Shards lock stripes so that
// concurrent misses on different keys rarely wait for each other. A key's
// stripe comes from its last four bytes, which costs the same whatever the
// key's length; each stripe keeps the Size/Shards keys most recently added
// to it, evicting its oldest. The zero Memo is empty and ready to use.
package memo

import "sync"

// Size bounds a Memo; Shards is its number of lock stripes.
const (
	Size   = 1024
	Shards = 16
)

// Memo maps recently added keys to their values. It keeps each key it is
// given, not a copy: a caller whose keys are sliced from larger strings
// clones them first, or the memo pins those strings.
type Memo[V any] struct {
	shards [Shards]shard[V]
}

// shard is one stripe. keys holds its keys in insertion order as a ring;
// next is the oldest, which a full stripe evicts. The padding keeps each
// stripe's lock, which every Get writes, off its neighbours' cache lines.
type shard[V any] struct {
	mu   sync.RWMutex
	m    map[string]V
	keys []string
	next int
	_    [64]byte
}

func (m *Memo[V]) shard(k string) *shard[V] {
	var h uint32
	for i := max(0, len(k)-4); i < len(k); i++ {
		h = h*31 + uint32(k[i])
	}
	return &m.shards[h%Shards]
}

// Get returns k's value and whether the memo holds k.
func (m *Memo[V]) Get(k string) (V, bool) {
	s := m.shard(k)
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	return v, ok
}

// Add memoises v under k, evicting the oldest key of k's stripe when the
// stripe is full. Adding a key the memo holds changes nothing: concurrent
// misses on one key compute the same value.
func (m *Memo[V]) Add(k string, v V) {
	s := m.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[k]; ok {
		return
	}
	if s.m == nil {
		s.m = make(map[string]V, Size/Shards)
	}
	if len(s.keys) < Size/Shards {
		s.keys = append(s.keys, k)
	} else {
		delete(s.m, s.keys[s.next])
		s.keys[s.next] = k
		s.next = (s.next + 1) % len(s.keys)
	}
	s.m[k] = v
}
