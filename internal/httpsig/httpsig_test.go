package httpsig

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"
)

const (
	testPairing = "pair-1"
	testSecret  = "sekrit-0123456789"
)

func signedRequest(t *testing.T, method, path, body string) *http.Request {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, "http://am.example"+path, rdr)
	if err != nil {
		t.Fatal(err)
	}
	if err := Sign(req, testPairing, testSecret); err != nil {
		t.Fatal(err)
	}
	return req
}

func testVerifier() *Verifier {
	return NewVerifier(SecretSourceFunc(func(id string) (string, bool) {
		if id == testPairing {
			return testSecret, true
		}
		return "", false
	}))
}

func TestSignVerifyRoundTrip(t *testing.T) {
	v := testVerifier()
	req := signedRequest(t, http.MethodPost, "/api/decision", `{"realm":"travel"}`)
	got, err := v.Verify(req)
	if err != nil {
		t.Fatal(err)
	}
	if got != testPairing {
		t.Fatalf("pairing = %q", got)
	}
	// Body must be restored for the handler.
	b, _ := io.ReadAll(req.Body)
	if string(b) != `{"realm":"travel"}` {
		t.Fatalf("body consumed: %q", b)
	}
}

func TestVerifyEmptyBody(t *testing.T) {
	v := testVerifier()
	req := signedRequest(t, http.MethodGet, "/api/policies", "")
	if _, err := v.Verify(req); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejectsUnsigned(t *testing.T) {
	v := testVerifier()
	req, _ := http.NewRequest(http.MethodGet, "http://am.example/api/x", nil)
	if _, err := v.Verify(req); !errors.Is(err, ErrUnsigned) {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyRejectsUnknownPairing(t *testing.T) {
	v := testVerifier()
	req, _ := http.NewRequest(http.MethodGet, "http://am.example/api/x", nil)
	if err := Sign(req, "pair-unknown", testSecret); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Verify(req); !errors.Is(err, ErrUnknownPairing) {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyRejectsWrongSecret(t *testing.T) {
	v := testVerifier()
	req, _ := http.NewRequest(http.MethodGet, "http://am.example/api/x", nil)
	if err := Sign(req, testPairing, "wrong-secret"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Verify(req); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v", err)
	}
}

func TestVerifyRejectsBodyTampering(t *testing.T) {
	v := testVerifier()
	req := signedRequest(t, http.MethodPost, "/api/decision", `{"decision":"deny"}`)
	req.Body = io.NopCloser(strings.NewReader(`{"decision":"permit"}`))
	if _, err := v.Verify(req); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered body accepted: %v", err)
	}
}

func TestVerifyRejectsPathTampering(t *testing.T) {
	v := testVerifier()
	req := signedRequest(t, http.MethodPost, "/api/decision", "x")
	req.URL.Path = "/api/pairings"
	if _, err := v.Verify(req); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered path accepted: %v", err)
	}
}

func TestVerifyRejectsMethodTampering(t *testing.T) {
	v := testVerifier()
	req := signedRequest(t, http.MethodGet, "/api/policies", "")
	req.Method = http.MethodDelete
	if _, err := v.Verify(req); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("tampered method accepted: %v", err)
	}
}

func TestVerifyRejectsReplay(t *testing.T) {
	v := testVerifier()
	req := signedRequest(t, http.MethodPost, "/api/decision", "x")
	if _, err := v.Verify(req); err != nil {
		t.Fatal(err)
	}
	// Replaying the identical signed request (fresh body reader) fails.
	req.Body = io.NopCloser(strings.NewReader("x"))
	if _, err := v.Verify(req); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay accepted: %v", err)
	}
}

func TestVerifyRejectsSkew(t *testing.T) {
	v := testVerifier()
	req := signedRequest(t, http.MethodPost, "/api/decision", "x")
	v.SetClock(func() time.Time { return time.Now().Add(MaxSkew + time.Minute) })
	if _, err := v.Verify(req); !errors.Is(err, ErrSkew) {
		t.Fatalf("stale timestamp accepted: %v", err)
	}
	v.SetClock(func() time.Time { return time.Now().Add(-(MaxSkew + time.Minute)) })
	if _, err := v.Verify(req); !errors.Is(err, ErrSkew) {
		t.Fatalf("future timestamp accepted: %v", err)
	}
}

func TestVerifyRejectsBadTimestampHeader(t *testing.T) {
	v := testVerifier()
	req := signedRequest(t, http.MethodPost, "/api/decision", "x")
	req.Header.Set(HeaderTimestamp, "not-a-number")
	if _, err := v.Verify(req); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("err = %v", err)
	}
}

// TestNonceSweep: a remembered nonce is refused while its timestamp can
// still be accepted, and its bucket is dropped whole — no sweep — when a
// timestamp one full ring newer needs the slot.
func TestNonceSweep(t *testing.T) {
	v := testVerifier()
	ts := time.Now().Unix()
	if err := v.replays.admit("p", ts, "n1"); err != nil {
		t.Fatal(err)
	}
	if err := v.replays.admit("p", ts, "n1"); !errors.Is(err, ErrReplay) {
		t.Fatalf("err = %v", err)
	}
	// The same nonce under another pairing or timestamp is a new triple.
	if err := v.replays.admit("q", ts, "n1"); err != nil {
		t.Fatal(err)
	}
	if err := v.replays.admit("p", ts+1, "n1"); err != nil {
		t.Fatal(err)
	}
	newer := ts + replayBuckets*bucketSeconds
	if err := v.replays.admit("p", newer, "n2"); err != nil {
		t.Fatal(err)
	}
	held := 0
	for _, b := range v.replays.buckets {
		held += len(b.keys)
	}
	if held != 1 {
		t.Fatalf("old bucket not dropped: %d keys held", held)
	}
	// By then ts is far outside the window; the filter says so rather
	// than admitting what it can no longer check.
	if err := v.replays.admit("p", ts, "n1"); !errors.Is(err, ErrSkew) {
		t.Fatalf("err = %v", err)
	}
}

// TestReplayAheadOfClock: a request signed by a Host whose clock runs four
// minutes fast is accepted, and must still be refused as a replay 5m1s
// later — its timestamp is then only 1m1s behind the verifier's clock. A
// filter that forgets a nonce MaxSkew after it arrived admits it.
func TestReplayAheadOfClock(t *testing.T) {
	v := testVerifier()
	arrival := time.Now().Add(-4 * time.Minute)
	v.SetClock(func() time.Time { return arrival })
	req := signedRequest(t, http.MethodPost, "/api/decision", "x")
	if _, err := v.Verify(req); err != nil {
		t.Fatal(err)
	}
	v.SetClock(func() time.Time { return arrival.Add(MaxSkew + time.Second) })
	req.Body = io.NopCloser(strings.NewReader("x"))
	if _, err := v.Verify(req); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay 5m1s after arrival: err = %v, want ErrReplay", err)
	}
}

// TestReplayFilterHoldsNoPointers: the filter's entries are pointer-free,
// so the garbage collector never scans the millions a busy window holds.
func TestReplayFilterHoldsNoPointers(t *testing.T) {
	m := reflect.TypeOf(replayBucket{}.keys)
	for _, typ := range []reflect.Type{m.Key(), m.Elem()} {
		if hasPointers(typ) {
			t.Errorf("replay filter entry type %v holds a pointer", typ)
		}
	}
}

func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	}
	return true
}

// TestVerifyFreshNonceAllocates: verifying a fresh request — the MAC, the
// canonical string, the filter's key and entry — allocates nothing beyond
// the filter's amortised map growth.
func TestVerifyFreshNonceAllocates(t *testing.T) {
	v := testVerifier()
	const runs = 1000
	reqs := make([]*http.Request, runs+1)
	body := []byte(`{"realm":"travel"}`)
	for i := range reqs {
		reqs[i] = signedRequest(t, http.MethodPost, "/api/decision", string(body))
	}
	i := 0
	if n := testing.AllocsPerRun(runs, func() {
		if err := v.VerifyBody(reqs[i], testSecret, body); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Fatalf("VerifyBody: %v allocs per fresh request, want 0", n)
	}
}

// TestSignBodyAllocations: signing allocates the header values (two
// allocations) and nothing else; the race detector adds one for the random
// bytes.
func TestSignBodyAllocations(t *testing.T) {
	req, _ := http.NewRequest(http.MethodPost, "http://am.example/api/decision", nil)
	body := []byte(`{"realm":"travel"}`)
	if n := testing.AllocsPerRun(100, func() { SignBody(req, testPairing, testSecret, body) }); n > 3 {
		t.Fatalf("SignBody: %v allocs, want <= 3", n)
	}
}

// TestMACIsHMACSHA256: the stack-built MAC is crypto/hmac's, for secrets
// shorter and longer than a block.
func TestMACIsHMACSHA256(t *testing.T) {
	for _, secret := range []string{"", "k", testSecret, strings.Repeat("s", 64), strings.Repeat("long", 40)} {
		for _, path := range []string{"/v1/api/decision", "/" + strings.Repeat("p", 300)} {
			body := []byte("body")
			ts := int64(1700000000)
			h := sha256.Sum256(body)
			m := hmac.New(sha256.New, []byte(secret))
			m.Write(appendCanonical(nil, http.MethodPost, path, h[:], ts, "n-1"))
			got := mac(secret, http.MethodPost, path, body, ts, "n-1")
			if !hmac.Equal(got[:], m.Sum(nil)) {
				t.Fatalf("secret %q path len %d: mac differs from crypto/hmac", secret, len(path))
			}
		}
	}
}

func TestIsSignedAndStrip(t *testing.T) {
	req := signedRequest(t, http.MethodGet, "/api/x", "")
	if !IsSigned(req) {
		t.Fatal("IsSigned = false for signed request")
	}
	StripSignature(req)
	if IsSigned(req) {
		t.Fatal("IsSigned = true after strip")
	}
	plain, _ := http.NewRequest(http.MethodGet, "http://x/", nil)
	if IsSigned(plain) {
		t.Fatal("IsSigned = true for plain request")
	}
}

func TestSignedPath(t *testing.T) {
	if !SignedPath("/api/decision", "/api/") {
		t.Fatal("api path not matched")
	}
	if SignedPath("/login", "/api/") {
		t.Fatal("login matched")
	}
}

func TestSignPreservesBodyForTransport(t *testing.T) {
	req, _ := http.NewRequest(http.MethodPost, "http://x/api", bytes.NewReader([]byte("payload")))
	if err := Sign(req, testPairing, testSecret); err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(req.Body)
	if string(b) != "payload" {
		t.Fatalf("body = %q", b)
	}
}

func TestDistinctNoncesPerSign(t *testing.T) {
	r1 := signedRequest(t, http.MethodGet, "/api/x", "")
	r2 := signedRequest(t, http.MethodGet, "/api/x", "")
	if r1.Header.Get(HeaderNonce) == r2.Header.Get(HeaderNonce) {
		t.Fatal("nonces repeat")
	}
}
