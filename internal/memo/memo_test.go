package memo

import (
	"crypto/sha256"
	"encoding/base64"
	"strconv"
	"sync"
	"testing"
)

// macKey is a key shaped like a bearer token: its tail is a MAC, so its
// last bytes are uniform.
func macKey(i int) string {
	sum := sha256.Sum256([]byte(strconv.Itoa(i)))
	return "payload-" + strconv.Itoa(i) + "." + base64.RawURLEncoding.EncodeToString(sum[:])
}

// TestMemoIsBounded: each stripe holds the keys most recently added to
// it, at most Size/Shards of them, keys spread over every stripe, and
// re-adding an evicted key evicts its stripe's oldest.
func TestMemoIsBounded(t *testing.T) {
	var m Memo[int]
	perShard := map[*shard[int]][]string{}
	for i := range 4 * Size {
		k := macKey(i)
		m.Add(k, i)
		perShard[m.shard(k)] = append(perShard[m.shard(k)], k)
	}
	if len(perShard) != Shards {
		t.Fatalf("keys spread over %d stripes, want %d", len(perShard), Shards)
	}
	const keep = Size / Shards
	for s, keys := range perShard {
		if len(s.m) != min(len(keys), keep) {
			t.Fatalf("stripe holds %d of its %d keys, bound %d", len(s.m), len(keys), keep)
		}
		for i, k := range keys {
			if _, held := m.Get(k); held != (i >= len(keys)-keep) {
				t.Fatalf("key %d of the %d in its stripe: memoised = %v", i, len(keys), held)
			}
		}
	}
	for s, keys := range perShard {
		if len(keys) <= keep {
			continue
		}
		m.Add(keys[0], 0)
		if _, held := s.m[keys[len(keys)-keep]]; held {
			t.Fatal("re-adding an evicted key did not evict its stripe's oldest")
		}
		break
	}
}

// TestMemoAddKeepsFirstValue: adding a key the memo holds changes
// neither its value nor the stripe's eviction order.
func TestMemoAddKeepsFirstValue(t *testing.T) {
	var m Memo[string]
	m.Add("k", "first")
	m.Add("k", "second")
	if v, ok := m.Get("k"); !ok || v != "first" {
		t.Fatalf("Get = %q, %v; want first, true", v, ok)
	}
	if s := m.shard("k"); len(s.keys) != 1 {
		t.Fatalf("stripe ring holds %d keys, want 1", len(s.keys))
	}
	if _, ok := m.Get("absent"); ok {
		t.Fatal("Get found a key never added")
	}
}

// TestMemoConcurrent: goroutines adding and reading overlapping keys, so
// hits, misses, double adds and evictions race on the same stripes (run
// under -race); every hit returns its key's own value.
func TestMemoConcurrent(t *testing.T) {
	var m Memo[int]
	keys := make([]string, 2*Size)
	for i := range keys {
		keys[i] = macKey(i)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 4 * len(keys) {
				j := (i*7 + g*131) % len(keys)
				if v, ok := m.Get(keys[j]); ok && v != j {
					t.Errorf("key %d holds %d", j, v)
					return
				}
				m.Add(keys[j], j)
			}
		}()
	}
	wg.Wait()
}
