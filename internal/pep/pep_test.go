package pep

import (
	"crypto/sha256"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"umac/internal/core"
	"umac/internal/token"
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

// checkKey is the Check key of (tok, res, action), with the token's
// digest computed directly rather than through a cache's memo.
func checkKey(tok string, res core.ResourceID, action core.Action) entryKey {
	return cacheKey(sha256.Sum256([]byte(tok)), res, action)
}

func TestCacheKeyDistinguishesDimensions(t *testing.T) {
	// Each dimension, with resource‖0‖action stored verbatim and hashed.
	for _, res := range []core.ResourceID{"res", core.ResourceID(strings.Repeat("r", 40))} {
		base := checkKey("tok", res, core.ActionRead)
		if checkKey("tok2", res, core.ActionRead) == base {
			t.Fatalf("%d-byte resource: token not in key", len(res))
		}
		if checkKey("tok", res+"2", core.ActionRead) == base {
			t.Fatalf("%d-byte resource: resource not in key", len(res))
		}
		if checkKey("tok", res, core.ActionWrite) == base {
			t.Fatalf("%d-byte resource: action not in key", len(res))
		}
	}
	// resource‖0‖action of 31 and 32 bytes is stored verbatim, 33 hashed;
	// ("…ab","c") and ("…a","bc") differ on both sides of that boundary.
	for _, n := range []int{31, 32, 33} {
		pad := strings.Repeat("p", n-4)
		k := checkKey("tok", core.ResourceID(pad+"ab"), "c")
		want := uint8(n)
		if n > sha256.Size {
			want = hashedKey
		}
		if k.n != want {
			t.Fatalf("%d bytes: n = %d, want %d", n, k.n, want)
		}
		if k == checkKey("tok", core.ResourceID(pad+"a"), "bc") {
			t.Fatalf("%d bytes: ambiguous key construction", n)
		}
		if k == checkKey("tok", core.ResourceID(pad+"ac"), "c") {
			t.Fatalf("%d bytes: resource not in key", n)
		}
	}
	// The kind marker keeps a Check key apart from every string key, even
	// one whose bytes match it field for field.
	k := cacheKey(tokenDigest{}, "res", core.ActionRead)
	if s := stringKey("res\x00" + string(core.ActionRead)); s.b != k.b || s.n != k.n || s == k {
		t.Fatalf("string key %+v vs Check key %+v: only the kind may tell them apart", s, k)
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
// answered from the decision cache — allocates nothing, with a token the
// size the AM mints.
func TestCachedCheckAllocatesNothing(t *testing.T) {
	e := New(Config{Host: "webpics"})
	e.SetRealmPairing("bob", "travel", Pairing{AMURL: "http://am.example", PairingID: "pair-1", Secret: "s"})
	tok, _, err := token.NewService([]byte("k"), 0).Mint("requester-alice-browser-0001", "alice-subject-0001", "webpics", "travel-album-0001")
	if err != nil {
		t.Fatal(err)
	}
	if len(tok) < 350 {
		t.Fatalf("minted token is %d bytes; the test wants a full-size one", len(tok))
	}
	r, _ := http.NewRequest(http.MethodGet, "http://h/res/x", nil)
	r.Header.Set("Authorization", "UMAC "+tok)
	e.cache.put(checkKey(tok, "x", core.ActionRead), EntryScope{Owner: "bob", Realm: "travel", Resource: "x"},
		true, 60, e.cache.Gen(), true)
	check := func() {
		res, err := e.Check(r, "bob", "travel", "x", core.ActionRead)
		if err != nil || res.Verdict != VerdictAllow || !res.CacheHit {
			t.Fatalf("Check = %+v, %v; want a cached allow", res, err)
		}
	}
	// The memo takes a token on its second miss; the hits measured below
	// find its digest there.
	check()
	check()
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
