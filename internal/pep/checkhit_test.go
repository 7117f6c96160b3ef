package pep

import (
	"crypto/sha256"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"umac/internal/core"
	"umac/internal/memo"
	"umac/internal/token"
)

// permitAM is a fake AM that permits every decision query, cacheable for
// ten minutes, and counts the queries.
func permitAM(t testing.TB) (*httptest.Server, *atomic.Int64) {
	var queries atomic.Int64
	am := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		queries.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"decision":"permit","cache_ttl_seconds":600}`))
	}))
	t.Cleanup(am.Close)
	return am, &queries
}

// hostFixture is a Host paired for owners o0…o<owners-1> with the given
// AM, and one request per owner carrying a token the AM's token service
// minted for that owner's realm.
type hostFixture struct {
	e      *Enforcer
	owners []core.UserID
	reqs   []*http.Request
}

func newHostFixture(t testing.TB, amURL string, owners int) *hostFixture {
	f := &hostFixture{e: New(Config{Host: "webpics"})}
	t.Cleanup(func() { f.e.Close() })
	svc := token.NewService([]byte("bench-key"), 0)
	for i := range owners {
		owner := core.UserID("o" + strconv.Itoa(i))
		f.e.SetRealmPairing(owner, "photos", Pairing{AMURL: amURL, PairingID: "pair-" + string(owner), Secret: "s", User: owner})
		tok, _, err := svc.Mint("requester-alice-browser-0001", "alice-subject-0001", "webpics", "photos")
		if err != nil {
			t.Fatal(err)
		}
		r, _ := http.NewRequest(http.MethodGet, "http://pics/"+string(owner), nil)
		r.Header.Set("Authorization", "UMAC "+tok)
		f.owners = append(f.owners, owner)
		f.reqs = append(f.reqs, r)
	}
	return f
}

func (f *hostFixture) check(t testing.TB, i int, res core.ResourceID) CheckResult {
	r, err := f.e.Check(f.reqs[i], f.owners[i], "photos", res, core.ActionRead)
	if err != nil || r.Verdict != VerdictAllow {
		t.Fatalf("Check(%s, %s) = %+v, %v; want an allow", f.owners[i], res, r, err)
	}
	return r
}

// TestCacheHitsOutliveTheDigestMemo: the token-digest memo holds
// memo.Size tokens, but a decision cached under a token it has
// evicted is still found, because the digest is recomputed exactly. Twice
// as many tokens as the memo holds are checked once each (every Check a
// miss), then all again (every Check a hit).
func TestCacheHitsOutliveTheDigestMemo(t *testing.T) {
	am, queries := permitAM(t)
	f := newHostFixture(t, am.URL, 2*memo.Size)
	for pass, wantHit := range []bool{false, true} {
		for i := range f.reqs {
			if r := f.check(t, i, "photo"); r.CacheHit != wantHit {
				t.Fatalf("pass %d, token %d: CacheHit = %v, want %v", pass, i, r.CacheHit, wantHit)
			}
		}
	}
	if n := queries.Load(); n != int64(len(f.reqs)) {
		t.Fatalf("%d decision queries for %d tokens", n, len(f.reqs))
	}
	if hits, misses := f.e.Cache().Stats(); hits != int64(len(f.reqs)) || misses != int64(len(f.reqs)) {
		t.Fatalf("hits, misses = %d, %d; want %d each", hits, misses, len(f.reqs))
	}
	var held int
	for _, r := range f.reqs {
		if _, ok := f.e.cache.memo.Get(strings.TrimPrefix(r.Header.Get("Authorization"), "UMAC ")); ok {
			held++
		}
	}
	if held > memo.Size {
		t.Fatalf("the memo holds %d tokens, more than its bound %d", held, memo.Size)
	}
}

// TestTokenDigestIsExact: the digest is the token's SHA-256 whether the
// memo computes it, holds it, or (for a token over maxMemoToken) skips it.
func TestTokenDigestIsExact(t *testing.T) {
	c := NewDecisionCache()
	for _, tok := range []string{"", "a", "tok123", strings.Repeat("t", maxMemoToken), strings.Repeat("t", maxMemoToken+1)} {
		want := sha256.Sum256([]byte(tok))
		for pass := range 2 {
			if got := c.digest(tok); got != want {
				t.Fatalf("%d-byte token, pass %d: digest %x, want %x", len(tok), pass, got, want)
			}
		}
	}
	if _, ok := c.memo.Get(strings.Repeat("t", maxMemoToken+1)); ok {
		t.Fatalf("the memo holds a %d-byte token", maxMemoToken+1)
	}
}

// TestDigestMemoConcurrent: goroutines digesting overlapping tokens, so
// memo hits, first and second misses, double adds and evictions race on
// the same stripes (run under -race), all get each token's SHA-256.
func TestDigestMemoConcurrent(t *testing.T) {
	c := NewDecisionCache()
	toks := make([]string, 2*memo.Size)
	for i := range toks {
		toks[i] = "tok-" + strconv.Itoa(i)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 4 * len(toks) {
				tok := toks[(i*7+g*131)%len(toks)]
				if c.digest(tok) != sha256.Sum256([]byte(tok)) {
					t.Errorf("digest of %q is not its SHA-256", tok)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestDigestMemoAdmitsOnSecondMiss: a token's digest is memoised on its
// second miss, not its first, so tokens presented once are never copied
// into the memo.
func TestDigestMemoAdmitsOnSecondMiss(t *testing.T) {
	c := NewDecisionCache()
	held := func(tok string) bool {
		_, ok := c.memo.Get(tok)
		return ok
	}
	for _, want := range []bool{false, true, true} {
		c.digest("tok123")
		if got := held("tok123"); got != want {
			t.Fatalf("memo holds the token: %v, want %v", got, want)
		}
	}
}

// BenchmarkCheckHit is the Host's budget line for the Section V.B.6 fast
// path: a Check answered from the decision cache. Every Check is a cache
// hit; the cache is filled through Check against a fake AM beforehand.
//
//   - tokens=64 has the shape of the benchmark's host_mix reads: 64
//     owners, each presenting one token the AM minted, over 2 048
//     resources visited in a fixed random order, so every token's digest
//     is memoised.
//   - tokens=4096 cycles through four memos' worth of tokens, one resource
//     each, so each token's digest has been evicted, or was never added,
//     before it comes round again: every Check hashes its token.
func BenchmarkCheckHit(b *testing.B) {
	am, _ := permitAM(b)
	for _, tc := range []struct{ owners, resources int }{
		{64, 2048},
		{4 * memo.Size, 4 * memo.Size},
	} {
		b.Run("tokens="+strconv.Itoa(tc.owners), func(b *testing.B) {
			f := newHostFixture(b, am.URL, tc.owners)
			res := make([]core.ResourceID, tc.resources)
			for i := range res {
				res[i] = core.ResourceID("z" + strconv.Itoa(i))
				f.check(b, i%tc.owners, res[i])
			}
			order := rand.New(rand.NewSource(1)).Perm(tc.resources)
			b.ReportAllocs()
			b.ResetTimer()
			for n := range b.N {
				i := order[n%tc.resources]
				o := i % tc.owners
				r, err := f.e.Check(f.reqs[o], f.owners[o], "photos", res[i], core.ActionRead)
				if err != nil || !r.CacheHit {
					b.Fatalf("Check = %+v, %v; want a cache hit", r, err)
				}
			}
		})
	}
}
