package pep

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"umac/internal/core"
)

func TestDecisionCacheBasics(t *testing.T) {
	c := NewDecisionCache()
	key := strKey("tok", "photo-1", core.ActionRead)
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key, true, 60)
	permit, ok := c.Get(key)
	if !ok || !permit {
		t.Fatalf("permit=%v ok=%v", permit, ok)
	}
	// Deny decisions cache too.
	key2 := strKey("tok", "photo-1", core.ActionWrite)
	c.Put(key2, false, 60)
	permit, ok = c.Get(key2)
	if !ok || permit {
		t.Fatalf("permit=%v ok=%v", permit, ok)
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestDecisionCacheTTL(t *testing.T) {
	c := NewDecisionCache()
	base := time.Now()
	now := base
	c.SetClock(func() time.Time { return now })
	key := strKey("tok", "r", core.ActionRead)
	c.Put(key, true, 10)
	if _, ok := c.Get(key); !ok {
		t.Fatal("fresh entry missed")
	}
	now = base.Add(11 * time.Second)
	if _, ok := c.Get(key); ok {
		t.Fatal("stale entry served")
	}
}

func TestDecisionCacheZeroTTLNotStored(t *testing.T) {
	c := NewDecisionCache()
	key := strKey("tok", "r", core.ActionRead)
	c.Put(key, true, 0)
	c.Put(key, true, -5)
	if c.Len() != 0 {
		t.Fatal("non-positive TTL entries stored")
	}
}

func TestDecisionCacheInvalidate(t *testing.T) {
	c := NewDecisionCache()
	c.Put(strKey("t", "a", core.ActionRead), true, 60)
	c.Put(strKey("t", "b", core.ActionRead), true, 60)
	c.Invalidate()
	if c.Len() != 0 {
		t.Fatal("entries survived invalidate")
	}
}

func TestCacheKeyDistinguishesDimensions(t *testing.T) {
	base := cacheKey("tok", "res", core.ActionRead)
	if cacheKey("tok2", "res", core.ActionRead) == base {
		t.Fatal("token not in key")
	}
	if cacheKey("tok", "res2", core.ActionRead) == base {
		t.Fatal("resource not in key")
	}
	if cacheKey("tok", "res", core.ActionWrite) == base {
		t.Fatal("action not in key")
	}
	// Concatenation ambiguity: ("ab","c") vs ("a","bc") must differ.
	if cacheKey("ab", "c", core.ActionRead) == cacheKey("a", "bc", core.ActionRead) {
		t.Fatal("ambiguous key construction")
	}
}

func TestDecisionCacheConcurrent(t *testing.T) {
	c := NewDecisionCache()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				key := strKey("tok", core.ResourceID(rune('a'+n)), core.ActionRead)
				c.Put(key, true, 60)
				c.Get(key)
			}
		}(i)
	}
	wg.Wait()
}

func TestExtractToken(t *testing.T) {
	mk := func(auth, query string) *http.Request {
		r, _ := http.NewRequest(http.MethodGet, "http://h/res/x"+query, nil)
		if auth != "" {
			r.Header.Set("Authorization", auth)
		}
		return r
	}
	for name, tt := range map[string]struct {
		req  *http.Request
		want string
		ok   bool
	}{
		"umac scheme":    {mk("UMAC tok123", ""), "tok123", true},
		"lowercase":      {mk("umac tok123", ""), "tok123", true},
		"bearer":         {mk("Bearer tok456", ""), "tok456", true},
		"query param":    {mk("", "?token=tok789"), "tok789", true},
		"none":           {mk("", ""), "", false},
		"wrong scheme":   {mk("Basic dXNlcg==", ""), "", false},
		"empty token":    {mk("UMAC ", ""), "", false},
		"header beats q": {mk("UMAC tokH", "?token=tokQ"), "tokH", true},
	} {
		got, ok := ExtractToken(tt.req)
		if ok != tt.ok || (ok && got != tt.want) {
			t.Errorf("%s: got (%q, %v), want (%q, %v)", name, got, ok, tt.want, tt.ok)
		}
	}
}

func TestCheckWithoutPairing(t *testing.T) {
	e := New(Config{Host: "webpics"})
	r, _ := http.NewRequest(http.MethodGet, "http://h/res/x", nil)
	_, err := e.Check(r, "bob", "travel", "x", core.ActionRead)
	if !errors.Is(err, core.ErrNotPaired) {
		t.Fatalf("err = %v", err)
	}
}

// TestCachedCheckAllocatesNothing: the Section V.B.6 fast path — a Check
// answered from the decision cache — allocates nothing.
func TestCachedCheckAllocatesNothing(t *testing.T) {
	e := New(Config{Host: "webpics"})
	e.SetRealmPairing("bob", "travel", Pairing{AMURL: "http://am.example", PairingID: "pair-1", Secret: "s"})
	r, _ := http.NewRequest(http.MethodGet, "http://h/res/x", nil)
	r.Header.Set("Authorization", "UMAC tok123")
	e.cache.put(cacheKey("tok123", "x", core.ActionRead), EntryScope{Owner: "bob", Realm: "travel", Resource: "x"},
		true, 60, e.cache.Gen(), true)
	check := func() {
		res, err := e.Check(r, "bob", "travel", "x", core.ActionRead)
		if err != nil || res.Verdict != VerdictAllow || !res.CacheHit {
			t.Fatalf("Check = %+v, %v; want a cached allow", res, err)
		}
	}
	if n := testing.AllocsPerRun(100, check); n != 0 {
		t.Fatalf("cached Check: %v allocs, want 0", n)
	}
}

func TestBeginPairingURL(t *testing.T) {
	e := New(Config{Host: "webpics", Name: "WebPics", BaseURL: "http://pics.example"})
	u := e.BeginPairing("http://am.example/", "bob")
	if !strings.HasPrefix(u, "http://am.example/v1/pair/confirm?") {
		t.Fatalf("url = %s", u)
	}
	for _, want := range []string{"host=webpics", "host_name=WebPics", "return_to="} {
		if !strings.Contains(u, want) {
			t.Fatalf("url missing %q: %s", want, u)
		}
	}
}

func TestCompletePairingAgainstFakeAM(t *testing.T) {
	// A minimal fake AM exchange endpoint.
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/api/pair/exchange" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"pairing_id":"pair-1","secret":"s3cret","am":"` + "http://fake" + `","user":"bob"}`))
	}))
	defer fake.Close()

	e := New(Config{Host: "webpics", BaseURL: "http://pics.example"})
	p, err := e.CompletePairing(fake.URL, "bob", "code-1")
	if err != nil {
		t.Fatal(err)
	}
	if p.PairingID != "pair-1" || p.Secret != "s3cret" {
		t.Fatalf("pairing = %+v", p)
	}
	if !e.Delegated("bob") {
		t.Fatal("not delegated after pairing")
	}
	got, ok := e.PairingFor("bob")
	if !ok || got.PairingID != "pair-1" {
		t.Fatalf("PairingFor = %+v %v", got, ok)
	}
	e.Unpair("bob")
	if e.Delegated("bob") {
		t.Fatal("still delegated after unpair")
	}
}

func TestCompletePairingErrorPropagates(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"unknown code"}`, http.StatusForbidden)
	}))
	defer fake.Close()
	e := New(Config{Host: "webpics"})
	if _, err := e.CompletePairing(fake.URL, "bob", "bad-code"); err == nil {
		t.Fatal("error not propagated")
	}
}

func TestHandlePairCallbackValidation(t *testing.T) {
	e := New(Config{Host: "webpics"})
	rec := httptest.NewRecorder()
	r, _ := http.NewRequest(http.MethodGet, "http://pics/umac/pair/callback", nil)
	e.HandlePairCallback(rec, r)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d", rec.Code)
	}
}

func TestWriteReferralShape(t *testing.T) {
	e := New(Config{Host: "webpics"})
	rec := httptest.NewRecorder()
	e.WriteReferral(rec, "http://am.example", "travel", "photo-1", core.ActionRead)
	if rec.Code != http.StatusUnauthorized {
		t.Fatalf("status = %d", rec.Code)
	}
	h := rec.Header()
	if h.Get(HeaderAM) != "http://am.example" || h.Get(HeaderRealm) != "travel" ||
		h.Get(HeaderResource) != "photo-1" || h.Get(HeaderAction) != "read" ||
		h.Get(HeaderHost) != "webpics" {
		t.Fatalf("headers = %v", h)
	}
	if !strings.Contains(h.Get("Www-Authenticate"), "UMAC") {
		t.Fatalf("www-authenticate = %q", h.Get("Www-Authenticate"))
	}
	if !strings.Contains(rec.Body.String(), "authorization token required") {
		t.Fatalf("body = %s", rec.Body.String())
	}
}

func TestComposeURLRequiresPairing(t *testing.T) {
	e := New(Config{Host: "webpics", BaseURL: "http://pics.example"})
	if _, err := e.ComposeURL("bob", "travel"); !errors.Is(err, core.ErrNotPaired) {
		t.Fatalf("err = %v", err)
	}
}

func TestProtectRequiresPairing(t *testing.T) {
	e := New(Config{Host: "webpics"})
	if err := e.Protect("bob", "travel", nil, ""); !errors.Is(err, core.ErrNotPaired) {
		t.Fatalf("err = %v", err)
	}
}

func TestVerdictString(t *testing.T) {
	if VerdictAllow.String() != "allow" || VerdictDeny.String() != "deny" ||
		VerdictNeedToken.String() != "need-token" {
		t.Fatal("verdict names wrong")
	}
	if !strings.HasPrefix(Verdict(9).String(), "verdict(") {
		t.Fatal("unknown verdict format")
	}
}
