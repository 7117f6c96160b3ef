package pep

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"umac/internal/core"
)

// strKey names the decision on (tok, res, action) in the string form the
// exported methods take: the 32-byte SHA-256 of the three, NUL-separated.
func strKey(tok string, res core.ResourceID, action core.Action) string {
	k := sha256.Sum256([]byte(tok + "\x00" + string(res) + "\x00" + string(action)))
	return string(k[:])
}

// cacheModel is the reference the cache is checked against: the same
// shard-striped LRU written the obvious way, with a map and a
// container/list per shard and scopes kept as strings.
type cacheModel struct {
	perShard int
	shards   [cacheShards]struct {
		byKey map[string]*list.Element
		lru   list.List
	}
	evictions int64
}

type modelEntry struct {
	key     string
	permit  bool
	expires time.Time
	scope   EntryScope
}

func (m *cacheModel) remove(sh int, el *list.Element) {
	delete(m.shards[sh].byKey, el.Value.(*modelEntry).key)
	m.shards[sh].lru.Remove(el)
}

func (m *cacheModel) get(sh int, key string, now time.Time) (permit, ok bool) {
	el, ok := m.shards[sh].byKey[key]
	if !ok {
		return false, false
	}
	if e := el.Value.(*modelEntry); !now.After(e.expires) {
		m.shards[sh].lru.MoveToFront(el)
		return e.permit, true
	}
	m.remove(sh, el)
	return false, false
}

func (m *cacheModel) put(sh int, e *modelEntry) {
	s := &m.shards[sh]
	if el, ok := s.byKey[e.key]; ok {
		el.Value = e
		s.lru.MoveToFront(el)
		return
	}
	if s.lru.Len() >= m.perShard {
		m.remove(sh, s.lru.Back())
		m.evictions++
	}
	s.byKey[e.key] = s.lru.PushFront(e)
}

// removeIf drops every entry drop selects and returns how many.
func (m *cacheModel) removeIf(drop func(*modelEntry) bool) int {
	var n int
	for sh := range m.shards {
		for el := m.shards[sh].lru.Front(); el != nil; {
			next := el.Next()
			if drop(el.Value.(*modelEntry)) {
				m.remove(sh, el)
				n++
			}
			el = next
		}
	}
	return n
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

// checkInvariants verifies a shard's arena bookkeeping: the LRU list and
// the free list partition the arena, the index names exactly the listed
// slots, and no shard exceeds its capacity.
func (c *DecisionCache) checkInvariants() error {
	for si := range c.shards {
		s := &c.shards[si]
		s.mu.Lock()
		seen := make(map[int32]bool)
		prev := int32(nilSlot)
		for i := s.head; i != nilSlot; i = s.slots[i].next {
			if seen[i] || s.slots[i].prev != prev {
				s.mu.Unlock()
				return fmt.Errorf("shard %d: LRU list broken at slot %d", si, i)
			}
			if j, ok := s.index[s.slots[i].key]; !ok || j != i {
				s.mu.Unlock()
				return fmt.Errorf("shard %d: slot %d not indexed", si, i)
			}
			seen[i], prev = true, i
		}
		live := len(seen)
		for i := s.free; i != nilSlot; i = s.slots[i].next {
			if seen[i] {
				s.mu.Unlock()
				return fmt.Errorf("shard %d: slot %d both free and in use", si, i)
			}
			seen[i] = true
		}
		err := error(nil)
		switch {
		case s.tail != prev:
			err = fmt.Errorf("shard %d: tail %d, list ends at %d", si, s.tail, prev)
		case live != len(s.index):
			err = fmt.Errorf("shard %d: %d listed, %d indexed", si, live, len(s.index))
		case len(seen) != len(s.slots):
			err = fmt.Errorf("shard %d: %d of %d slots accounted for", si, len(seen), len(s.slots))
		case live > c.perShard || cap(s.slots) > c.perShard:
			err = fmt.Errorf("shard %d: %d entries, arena cap %d, over %d", si, live, cap(s.slots), c.perShard)
		}
		s.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// modelKeys mixes keys short enough to be stored verbatim, keys of exactly
// the verbatim limit and longer keys stored as their hash.
var modelKeys = func() []string {
	var keys []string
	for i := 0; i < 24; i++ {
		keys = append(keys, "k"+strconv.Itoa(i), fmt.Sprintf("%032d", i), fmt.Sprintf("long-key-%040d", i))
	}
	return append(keys, "", "k1\x00")
}()

var (
	modelOwners    = []core.UserID{"", "bob", "carol"}
	modelRealms    = []core.RealmID{"", "travel", "work"}
	modelResources = []core.ResourceID{"", "r1", "r2", "r3"}
)

// Model operations. modelOps weights them: fills and reads dominate so
// shards stay full and eviction fires, a full Invalidate is rare.
const (
	opPut = iota
	opPutScoped
	opPutAtFresh
	opPutAtCaptured
	opGet
	opInvalidateScope
	opInvalidate
	opSweep
	opTick
)

var modelOps = []int{
	opPut, opPut, opPutScoped, opPutScoped, opPutScoped, opPutAtFresh, opPutAtFresh, opPutAtCaptured,
	opGet, opGet, opGet, opGet, opGet, opInvalidateScope, opSweep, opTick, opTick, opInvalidate,
}

// modelCoverage counts the events a sequence produced, so the seeded test
// can show each kind of operation had an effect.
type modelCoverage struct{ hits, evictions, staleFills, scoped, swept int }

// runCacheModel decodes ops into a sequence of cache operations, applies
// each to a DecisionCache and to the model, and fails on the first answer
// that differs.
func runCacheModel(t testing.TB, ops []byte) modelCoverage {
	pos := 0
	next := func() int {
		if pos >= len(ops) {
			return 0
		}
		pos++
		return int(ops[pos-1])
	}
	capacity := cacheShards * (1 + next()%3)
	c := NewDecisionCacheCap(capacity)
	now := time.Now()
	c.SetClock(func() time.Time { return now })
	m := &cacheModel{perShard: capacity / cacheShards}
	for i := range m.shards {
		m.shards[i].byKey = make(map[string]*list.Element)
	}
	shardOf := func(key string) int {
		s := c.shardFor(stringKey(key))
		for i := range c.shards {
			if &c.shards[i] == s {
				return i
			}
		}
		panic("key maps to no shard")
	}
	var cov modelCoverage
	captured, modelGen := c.Gen(), uint64(0)
	for step := 0; pos < len(ops); step++ {
		op := modelOps[next()%len(modelOps)]
		key := modelKeys[next()%len(modelKeys)]
		sh := shardOf(key)
		desc := fmt.Sprintf("step %d op %d key %q", step, op, key)
		switch op {
		case opPut, opPutScoped, opPutAtFresh, opPutAtCaptured:
			permit, ttl := next()%2 == 1, next()%40-1
			var sc EntryScope
			if op != opPut {
				sc = EntryScope{modelOwners[next()%len(modelOwners)], modelRealms[next()%len(modelRealms)], modelResources[next()%len(modelResources)]}
			}
			gen := captured
			switch op {
			case opPut:
				c.Put(key, permit, ttl)
			case opPutScoped:
				c.PutScoped(key, sc, permit, ttl)
			case opPutAtFresh:
				gen = c.Gen()
				c.PutScopedAt(gen, key, sc, permit, ttl)
			case opPutAtCaptured:
				c.PutScopedAt(gen, key, sc, permit, ttl)
			}
			switch {
			case ttl <= 0:
			case op >= opPutAtFresh && gen != modelGen:
				cov.staleFills++
			default:
				m.put(sh, &modelEntry{key: key, permit: permit, expires: now.Add(time.Duration(ttl) * time.Second), scope: sc})
			}
		case opGet:
			gp, gok := c.Get(key)
			wp, wok := m.get(sh, key, now)
			if gp != wp || gok != wok {
				t.Fatalf("%s: Get = (%v, %v), model (%v, %v)", desc, gp, gok, wp, wok)
			}
			if gok {
				cov.hits++
			}
		case opInvalidateScope:
			sc := Scope{Owner: modelOwners[next()%len(modelOwners)]}
			for n := next() % 3; n > 0; n-- {
				sc.Realms = append(sc.Realms, modelRealms[next()%len(modelRealms)])
			}
			for n := next() % 3; n > 0; n-- {
				sc.Resources = append(sc.Resources, modelResources[next()%len(modelResources)])
			}
			got := c.InvalidateScope(sc)
			modelGen++
			want := m.removeIf(func(e *modelEntry) bool { return sc.matches(e.scope) })
			if got != want {
				t.Fatalf("%s: InvalidateScope(%+v) removed %d, model %d", desc, sc, got, want)
			}
			cov.scoped += got
		case opInvalidate:
			c.Invalidate()
			modelGen++
			m.removeIf(func(*modelEntry) bool { return true })
		case opSweep:
			got := c.Sweep()
			want := m.removeIf(func(e *modelEntry) bool { return now.After(e.expires) })
			if got != want {
				t.Fatalf("%s: Sweep removed %d, model %d", desc, got, want)
			}
			cov.swept += got
		case opTick:
			if next()%2 == 0 {
				captured = c.Gen()
			}
			now = now.Add(time.Duration(next()%4) * time.Second)
		}
		var fresh int
		for i := range m.shards {
			for el := m.shards[i].lru.Front(); el != nil; el = el.Next() {
				if !now.After(el.Value.(*modelEntry).expires) {
					fresh++
				}
			}
		}
		if got := c.Len(); got != fresh {
			t.Fatalf("%s: Len = %d, model %d", desc, got, fresh)
		}
		if got := c.Evictions(); got != m.evictions {
			t.Fatalf("%s: Evictions = %d, model %d", desc, got, m.evictions)
		}
		if err := c.checkInvariants(); err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
	}
	cov.evictions = int(m.evictions)
	return cov
}

// TestDecisionCacheMatchesModel runs seeded random operation sequences at
// capacities small enough that eviction fires constantly.
func TestDecisionCacheMatchesModel(t *testing.T) {
	var total modelCoverage
	for seed := int64(1); seed <= 40; seed++ {
		ops := make([]byte, 6000)
		rand.New(rand.NewSource(seed)).Read(ops)
		t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			cov := runCacheModel(t, ops)
			total.hits += cov.hits
			total.evictions += cov.evictions
			total.staleFills += cov.staleFills
			total.scoped += cov.scoped
			total.swept += cov.swept
		})
	}
	if total.hits == 0 || total.evictions == 0 || total.staleFills == 0 || total.scoped == 0 || total.swept == 0 {
		t.Fatalf("the sequences left an operation without effect: %+v", total)
	}
	t.Logf("coverage over all sequences: %+v", total)
}

func FuzzDecisionCacheModel(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		ops := make([]byte, 512)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runCacheModel(t, ops) })
}

// TestDecisionCacheStorageHasNoPointers: the per-entry storage — arena
// slots and the index's keys and values — holds no pointer, so the garbage
// collector never scans it.
func TestDecisionCacheStorageHasNoPointers(t *testing.T) {
	var check func(typ reflect.Type, path string)
	check = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		case reflect.Array:
			check(typ.Elem(), path+"[i]")
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				check(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		default:
			t.Errorf("%s is a %s, which holds a pointer", path, typ.Kind())
		}
	}
	shard := reflect.TypeOf((*cacheShard)(nil)).Elem()
	slots, _ := shard.FieldByName("slots")
	index, _ := shard.FieldByName("index")
	check(slots.Type.Elem(), "slot")
	check(index.Type.Key(), "index key")
	check(index.Type.Elem(), "index value")
}

// TestDecisionCacheZeroAllocs: a hit and a put that evicts from a full
// shard allocate nothing.
func TestDecisionCacheZeroAllocs(t *testing.T) {
	const capacity = cacheShards * 64
	c := NewDecisionCacheCap(capacity)
	keys := make([]string, 4*capacity)
	for i := range keys {
		keys[i] = strKey("tok", core.ResourceID(strconv.Itoa(i)), core.ActionRead)
		c.Put(keys[i], true, 60)
	}
	hit := keys[len(keys)-1]
	if n := testing.AllocsPerRun(1000, func() { c.Get(hit) }); n != 0 {
		t.Errorf("Get hit: %v allocs, want 0", n)
	}
	i := 0
	evictions := c.Evictions()
	if n := testing.AllocsPerRun(1000, func() { c.Put(keys[i%len(keys)], true, 60); i++ }); n != 0 {
		t.Errorf("Put into a full shard: %v allocs, want 0", n)
	}
	if c.Evictions()-evictions < 1000 {
		t.Fatalf("%d evictions over 1001 puts: the shards were not full", c.Evictions()-evictions)
	}
}

// TestDecisionCacheConcurrentInvalidation drives gets, generation-guarded
// fills, scoped invalidations and sweeps from several goroutines at once;
// run it under -race. The arena bookkeeping must hold afterwards, and an
// owner-wide invalidation made once the writers stop leaves none of that
// owner's entries.
func TestDecisionCacheConcurrentInvalidation(t *testing.T) {
	c := NewDecisionCacheCap(cacheShards * 8)
	owners := []core.UserID{"bob", "carol", "dave"}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 3000; i++ {
				owner := owners[rng.Intn(len(owners))]
				res := core.ResourceID("r" + strconv.Itoa(rng.Intn(64)))
				key := strKey("tok", res, core.ActionRead)
				switch rng.Intn(8) {
				case 0:
					c.InvalidateScope(Scope{Owner: owner, Resources: []core.ResourceID{res}})
				case 1:
					c.Sweep()
				case 2, 3, 4:
					c.Get(key)
				default:
					c.PutScopedAt(c.Gen(), key, EntryScope{Owner: owner, Realm: "travel", Resource: res}, true, 60)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := c.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	n := c.Len()
	removed := c.InvalidateScope(Scope{Owner: "bob"})
	if c.Len() != n-removed {
		t.Fatalf("Len %d after evicting %d of %d", c.Len(), removed, n)
	}
	if c.InvalidateScope(Scope{Owner: "bob"}) != 0 {
		t.Fatal("an owner-wide invalidation left some of the owner's entries")
	}
}

// BenchmarkDecisionCacheFull times a DefaultCacheCapacity cache whose
// every shard is full: a put of a new key (which evicts), a hit, and one
// garbage collection with the full cache live.
func BenchmarkDecisionCacheFull(b *testing.B) {
	c := NewDecisionCache()
	keys := make([]string, 4*DefaultCacheCapacity)
	for i := range keys {
		keys[i] = strKey("tok", core.ResourceID("r"+strconv.Itoa(i)), core.ActionRead)
	}
	for _, k := range keys[:2*DefaultCacheCapacity] {
		c.Put(k, true, 3600)
	}
	b.Run("put-evict", func(b *testing.B) {
		b.ReportAllocs()
		i := 2 * DefaultCacheCapacity
		for b.Loop() {
			c.Put(keys[i%len(keys)], true, 3600)
			i++
		}
	})
	// The most recent half-capacity of puts is resident in every shard.
	hits := keys[len(keys)-DefaultCacheCapacity/2:]
	for _, k := range hits {
		c.Put(k, true, 3600)
	}
	b.Run("get-hit", func(b *testing.B) {
		b.ReportAllocs()
		i := 0
		for b.Loop() {
			if _, ok := c.Get(hits[(i*7919)%len(hits)]); !ok {
				b.Fatal("miss on a resident key")
			}
			i++
		}
	})
	b.Run("gc", func(b *testing.B) {
		for b.Loop() {
			runtime.GC()
		}
		runtime.KeepAlive(c)
	})
}
