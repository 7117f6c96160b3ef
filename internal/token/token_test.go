package token

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"umac/internal/core"
	"umac/internal/memo"
)

func newTestService() *Service {
	return NewService([]byte("test-master-key-0123456789abcdef"), time.Minute)
}

func TestMintValidateRoundTrip(t *testing.T) {
	s := newTestService()
	tok, claims, err := s.Mint("gallery", "alice", "webpics", "travel")
	if err != nil {
		t.Fatal(err)
	}
	if claims.ID == "" || claims.ExpiresAt.Before(claims.IssuedAt) {
		t.Fatalf("bad claims: %+v", claims)
	}
	got, err := s.Validate(tok)
	if err != nil {
		t.Fatal(err)
	}
	if got.Requester != "gallery" || got.Subject != "alice" ||
		got.Host != "webpics" || got.Realm != "travel" || got.ID != claims.ID {
		t.Fatalf("claims mismatch: %+v", got)
	}
}

func TestMintRequiresBinding(t *testing.T) {
	s := newTestService()
	if _, _, err := s.Mint("", "alice", "h", "r"); err == nil {
		t.Fatal("minted without requester")
	}
	if _, _, err := s.Mint("req", "alice", "", "r"); err == nil {
		t.Fatal("minted without host")
	}
	if _, _, err := s.Mint("req", "alice", "h", ""); err == nil {
		t.Fatal("minted without realm")
	}
	// Subject may be empty (autonomous service requesters).
	if _, _, err := s.Mint("req", "", "h", "r"); err != nil {
		t.Fatalf("empty subject rejected: %v", err)
	}
}

func TestValidateRejectsTampering(t *testing.T) {
	s := newTestService()
	tok, _, err := s.Mint("gallery", "alice", "webpics", "travel")
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"empty":             "",
		"no dot":            strings.ReplaceAll(tok, ".", ""),
		"two dots":          tok + ".extra",
		"bad payload b64":   "!!!." + strings.Split(tok, ".")[1],
		"bad signature b64": strings.Split(tok, ".")[0] + ".!!!",
		"flipped byte":      flipLastPayloadByte(tok),
		"truncated sig":     tok[:len(tok)-4],
	}
	for name, bad := range cases {
		if _, err := s.Validate(bad); !errors.Is(err, core.ErrTokenInvalid) {
			t.Errorf("%s: err = %v, want ErrTokenInvalid", name, err)
		}
	}
}

// TestValidateRejectsRewrittenGrantContext: the grant context is signed
// with the binding, so a payload re-encoded to claim consent or an extra
// term fails verification under the original signature.
func TestValidateRejectsRewrittenGrantContext(t *testing.T) {
	s := newTestService()
	tok, _, err := s.MintClaims(Claims{Requester: "printshop", Subject: "alice",
		Host: "webpics", Realm: "shop", Terms: map[string]string{"tier": "basic"}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Validate(tok)
	if err != nil || got.Terms["tier"] != "basic" || got.Consent {
		t.Fatalf("round trip: claims=%+v err=%v", got, err)
	}
	payload, sig, _ := strings.Cut(tok, ".")
	raw, err := base64.RawURLEncoding.DecodeString(payload)
	if err != nil {
		t.Fatal(err)
	}
	for name, rewrite := range map[string]func(map[string]any){
		"consent":    func(m map[string]any) { m["consent"] = true },
		"added term": func(m map[string]any) { m["terms"].(map[string]any)["payment"] = "rcpt-1" },
	} {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		rewrite(m)
		forged, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		bad := base64.RawURLEncoding.EncodeToString(forged) + "." + sig
		if _, err := s.Validate(bad); !errors.Is(err, core.ErrTokenInvalid) {
			t.Errorf("%s: err = %v, want ErrTokenInvalid", name, err)
		}
	}
}

func flipLastPayloadByte(tok string) string {
	dot := strings.IndexByte(tok, '.')
	b := []byte(tok)
	// Flip a base64 character inside the payload to another valid one.
	if b[dot-1] == 'A' {
		b[dot-1] = 'B'
	} else {
		b[dot-1] = 'A'
	}
	return string(b)
}

func TestValidateRejectsWrongKey(t *testing.T) {
	s1 := NewService([]byte("key-one"), time.Minute)
	s2 := NewService([]byte("key-two"), time.Minute)
	tok, _, err := s1.Mint("gallery", "alice", "webpics", "travel")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Validate(tok); !errors.Is(err, core.ErrTokenInvalid) {
		t.Fatalf("cross-AM token accepted: %v", err)
	}
}

func TestValidateRejectsExpired(t *testing.T) {
	s := newTestService()
	base := time.Date(2026, 6, 11, 12, 0, 0, 0, time.UTC)
	now := base
	s.SetClock(func() time.Time { return now })
	tok, _, err := s.Mint("gallery", "alice", "webpics", "travel")
	if err != nil {
		t.Fatal(err)
	}
	now = base.Add(30 * time.Second)
	if _, err := s.Validate(tok); err != nil {
		t.Fatalf("valid token rejected: %v", err)
	}
	// The token is memoised now; the hit must still check expiry.
	now = base.Add(2 * time.Minute)
	if _, err := s.Validate(tok); !errors.Is(err, core.ErrTokenInvalid) {
		t.Fatalf("expired token accepted: %v", err)
	}
}

// TestValidateMemoIsBounded: validating more tokens than the memo holds
// leaves it holding at most memo.Size of them, the latest among them, and
// a token evicted from it still validates (by the full check). The
// per-stripe eviction order is internal/memo's TestMemoIsBounded.
func TestValidateMemoIsBounded(t *testing.T) {
	s := newTestService()
	toks := make([]string, 4*memo.Size)
	for i := range toks {
		tok, _, err := s.Mint("gallery", "alice", "webpics", "travel")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Validate(tok); err != nil {
			t.Fatal(err)
		}
		toks[i] = tok
	}
	held, evicted := 0, ""
	for _, tok := range toks {
		if _, ok := s.memo.Get(tok); ok {
			held++
		} else if evicted == "" {
			evicted = tok
		}
	}
	if held > memo.Size {
		t.Fatalf("the memo holds %d tokens, more than its bound %d", held, memo.Size)
	}
	if _, ok := s.memo.Get(toks[len(toks)-1]); !ok {
		t.Fatal("the token validated last is not memoised")
	}
	if evicted == "" {
		t.Fatal("no token was evicted")
	}
	if _, err := s.Validate(evicted); err != nil {
		t.Fatalf("evicted token rejected: %v", err)
	}
	if _, ok := s.memo.Get(evicted); !ok {
		t.Fatal("an evicted token's full check did not memoise it again")
	}
}

// TestValidateMemoConcurrent: goroutines validating overlapping tokens,
// so hits, misses, double inserts and evictions race on the same stripes
// (run under -race), all get each token's own claims.
func TestValidateMemoConcurrent(t *testing.T) {
	s := newTestService()
	toks := make([]string, 2*memo.Size)
	ids := make([]string, len(toks))
	for i := range toks {
		tok, c, err := s.Mint("gallery", "alice", "webpics", "travel")
		if err != nil {
			t.Fatal(err)
		}
		toks[i], ids[i] = tok, c.ID
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 4 * len(toks) {
				k := (i*7 + g*131) % len(toks)
				c, err := s.Validate(toks[k])
				if err != nil || c.ID != ids[k] {
					t.Errorf("token %d: claims %s, %v; want %s", k, c.ID, err, ids[k])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestRandomKeyServicesDiffer(t *testing.T) {
	s1 := NewService(nil, 0)
	s2 := NewService(nil, 0)
	tok, _, err := s1.Mint("r", "s", "h", "realm")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Validate(tok); err == nil {
		t.Fatal("random-key services share a key")
	}
	if s1.TTL() != DefaultTTL {
		t.Fatalf("default ttl = %v", s1.TTL())
	}
}

func TestKeyCopiedAtBoundary(t *testing.T) {
	key := []byte("mutable-key-material-0123456789a")
	s := NewService(key, time.Minute)
	tok, _, err := s.Mint("r", "s", "h", "realm")
	if err != nil {
		t.Fatal(err)
	}
	for i := range key {
		key[i] = 0
	}
	if _, err := s.Validate(tok); err != nil {
		t.Fatalf("service affected by caller mutating key: %v", err)
	}
}

func TestCheckScope(t *testing.T) {
	c := Claims{Requester: "gallery", Host: "webpics", Realm: "travel"}
	if err := CheckScope(c, "gallery", "webpics", "travel"); err != nil {
		t.Fatalf("exact scope rejected: %v", err)
	}
	// Empty requester skips the requester comparison (Host-side check).
	if err := CheckScope(c, "", "webpics", "travel"); err != nil {
		t.Fatalf("host-side check rejected: %v", err)
	}
	for name, args := range map[string][3]string{
		"wrong requester": {"storage", "webpics", "travel"},
		"wrong host":      {"gallery", "webdocs", "travel"},
		"wrong realm":     {"gallery", "webpics", "work"},
	} {
		err := CheckScope(c, core.RequesterID(args[0]), core.HostID(args[1]), core.RealmID(args[2]))
		if !errors.Is(err, core.ErrTokenScope) {
			t.Errorf("%s: err = %v, want ErrTokenScope", name, err)
		}
	}
}

func TestTokenIsURLSafe(t *testing.T) {
	s := newTestService()
	tok, _, err := s.Mint("gallery", "alice", "webpics", "travel")
	if err != nil {
		t.Fatal(err)
	}
	if strings.ContainsAny(tok, "+/= \n&?") {
		t.Fatalf("token not URL-safe: %q", tok)
	}
}

func TestMintValidateProperty(t *testing.T) {
	// Property: any minted token validates and returns the exact binding.
	s := newTestService()
	f := func(req, sub, host, realm string) bool {
		if req == "" || host == "" || realm == "" {
			return true
		}
		tok, _, err := s.Mint(core.RequesterID(req), core.UserID(sub), core.HostID(host), core.RealmID(realm))
		if err != nil {
			return false
		}
		c, err := s.Validate(tok)
		if err != nil {
			return false
		}
		return string(c.Requester) == req && string(c.Subject) == sub &&
			string(c.Host) == host && string(c.Realm) == realm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTokensUniquePerMint(t *testing.T) {
	s := newTestService()
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		tok, _, err := s.Mint("r", "s", "h", "realm")
		if err != nil {
			t.Fatal(err)
		}
		if seen[tok] {
			t.Fatal("duplicate token minted")
		}
		seen[tok] = true
	}
}
