package pep

import (
	"bytes"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"umac/internal/core"
)

// fakePairingAM is an AM that pairs every exchanged code to user and
// answers every decision query with decision, counting both.
type fakePairingAM struct {
	*httptest.Server
	exchanges, decisions atomic.Int32
}

func newFakePairingAM(t *testing.T, user core.UserID, decision string) *fakePairingAM {
	f := &fakePairingAM{}
	f.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Path {
		case "/v1/api/pair/exchange":
			fmt.Fprintf(w, `{"pairing_id":"pair-%d","secret":"s3cret","user":%q}`, f.exchanges.Add(1), user)
		case "/v1/api/decision":
			f.decisions.Add(1)
			fmt.Fprintf(w, `{"decision":%q,"cache_ttl_seconds":0,"reason":"fake"}`, decision)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(f.Close)
	return f
}

// callback runs the Host's pairing callback on query and returns the
// recorded response.
func callback(e *Enforcer, query url.Values) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodGet, "http://pics/umac/pair/callback?"+query.Encode(), nil)
	e.HandlePairCallback(rec, r)
	return rec
}

// stateOf extracts the one-time state from a BeginPairing URL's return_to.
func stateOf(t *testing.T, confirmURL string) string {
	t.Helper()
	u, err := url.Parse(confirmURL)
	if err != nil {
		t.Fatal(err)
	}
	back, err := url.Parse(u.Query().Get(core.ParamReturnTo))
	if err != nil {
		t.Fatal(err)
	}
	if back.Query().Has(core.ParamAM) || back.Query().Has("user") {
		t.Fatalf("return_to names the AM or user: %s", back)
	}
	state := back.Query().Get(core.ParamState)
	if state == "" {
		t.Fatalf("return_to carries no state: %s", back)
	}
	return state
}

// logBuffer collects the standard logger's output for one test.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

func captureLog(t *testing.T) *logBuffer {
	lb := &logBuffer{}
	prev := log.Writer()
	log.SetOutput(lb)
	t.Cleanup(func() { log.SetOutput(prev) })
	return lb
}

// TestPairCallbackIgnoresForgedAM: anyone can reach the callback, so a
// request naming its own AM and a victim user must install nothing, and
// the victim's decisions must keep going to the AM they paired with.
func TestPairCallbackIgnoresForgedAM(t *testing.T) {
	captureLog(t)
	real := newFakePairingAM(t, "alice", "deny")
	evil := newFakePairingAM(t, "alice", "permit")
	e := New(Config{Host: "webpics", BaseURL: "http://pics"})

	if rec := callback(e, url.Values{
		core.ParamState: {stateOf(t, e.BeginPairing(real.URL, "alice"))},
		"code":          {"c1"},
	}); rec.Code != http.StatusOK {
		t.Fatalf("legitimate callback: %d %s", rec.Code, rec.Body)
	}

	// The forged callback of the pre-state protocol: am and user in the
	// query, no state.
	if rec := callback(e, url.Values{
		core.ParamAM: {evil.URL}, "user": {"alice"}, "code": {"x"},
	}); rec.Code != http.StatusBadRequest {
		t.Fatalf("forged callback: status %d, want 400", rec.Code)
	}
	// A state the attacker legitimately opened for themself, at their AM,
	// which then names alice in the exchange.
	if rec := callback(e, url.Values{
		core.ParamState: {stateOf(t, e.BeginPairing(evil.URL, "mallory"))},
		"code":          {"x"},
	}); rec.Code != http.StatusBadGateway {
		t.Fatalf("exchange naming another user: status %d, want 502", rec.Code)
	}
	if e.Delegated("mallory") {
		t.Fatal("a pairing the AM issued to alice was installed for mallory")
	}
	if p, _ := e.PairingFor("alice"); p.AMURL != real.URL {
		t.Fatalf("alice's pairing points at %s, want %s", p.AMURL, real.URL)
	}

	r := httptest.NewRequest(http.MethodGet, "http://pics/res/x", nil)
	r.Header.Set("Authorization", TokenScheme+" tok")
	res, err := e.Check(r, "alice", "travel", "x", core.ActionRead)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != VerdictDeny || real.decisions.Load() != 1 || evil.decisions.Load() != 0 {
		t.Fatalf("verdict %v, decisions real=%d evil=%d; want deny from alice's AM only",
			res.Verdict, real.decisions.Load(), evil.decisions.Load())
	}
}

// TestPairCallbackStateIsOneTime: a replayed or expired state is refused
// before any exchange.
func TestPairCallbackStateIsOneTime(t *testing.T) {
	captureLog(t)
	am := newFakePairingAM(t, "bob", "permit")
	e := New(Config{Host: "webpics", BaseURL: "http://pics"})

	q := url.Values{core.ParamState: {stateOf(t, e.BeginPairing(am.URL, "bob"))}, "code": {"c1"}}
	if rec := callback(e, q); rec.Code != http.StatusOK {
		t.Fatalf("first callback: %d %s", rec.Code, rec.Body)
	}
	if rec := callback(e, q); rec.Code != http.StatusBadRequest {
		t.Fatalf("replayed callback: status %d, want 400", rec.Code)
	}

	expired := stateOf(t, e.BeginPairing(am.URL, "carol"))
	e.mu.Lock()
	p := e.pending[expired]
	p.expires = time.Now().Add(-time.Second)
	e.pending[expired] = p
	e.mu.Unlock()
	if rec := callback(e, url.Values{core.ParamState: {expired}, "code": {"c2"}}); rec.Code != http.StatusBadRequest {
		t.Fatalf("expired callback: status %d, want 400", rec.Code)
	}
	if n := am.exchanges.Load(); n != 1 {
		t.Fatalf("%d exchanges, want 1: a refused state must not reach the AM", n)
	}
	if e.Delegated("carol") {
		t.Fatal("expired state installed a pairing")
	}

	// Opening a pairing sweeps the expired entry away.
	e.BeginPairing(am.URL, "dave")
	e.mu.RLock()
	_, kept := e.pending[expired]
	e.mu.RUnlock()
	if kept {
		t.Fatal("expired pending pairing was not swept")
	}
}

// TestPairCallbackAMFailureYields502: a failed exchange answers a fixed
// 502 whose body carries neither the AM's address nor the transport
// error; the log line names the user and the AM.
func TestPairCallbackAMFailureYields502(t *testing.T) {
	logs := captureLog(t)
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "internal", http.StatusInternalServerError)
	}))
	defer broken.Close()
	e := New(Config{Host: "webpics", BaseURL: "http://pics"})

	rec := callback(e, url.Values{core.ParamState: {stateOf(t, e.BeginPairing(broken.URL, "bob"))}, "code": {"c1"}})
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502", rec.Code)
	}
	if strings.Contains(rec.Body.String(), broken.URL) {
		t.Fatalf("502 body leaks the AM's address: %q", rec.Body)
	}
	if out := logs.String(); !strings.Contains(out, broken.URL) || !strings.Contains(out, "bob") {
		t.Fatalf("log does not name the AM and user: %q", out)
	}
	if e.Delegated("bob") {
		t.Fatal("failed exchange installed a pairing")
	}
}

// TestPairCallbackLogsStreamFailure: a pairing whose invalidation stream
// cannot be opened stands, and the failure is logged with owner and AM.
func TestPairCallbackLogsStreamFailure(t *testing.T) {
	logs := captureLog(t)
	am := newFakePairingAM(t, "bob", "permit") // serves no event stream
	e := New(Config{Host: "webpics", BaseURL: "http://pics"})
	defer e.Close()

	if rec := callback(e, url.Values{core.ParamState: {stateOf(t, e.BeginPairing(am.URL, "bob"))}, "code": {"c1"}}); rec.Code != http.StatusOK {
		t.Fatalf("callback: %d %s", rec.Code, rec.Body)
	}
	if !e.Delegated("bob") {
		t.Fatal("pairing not installed")
	}
	out := logs.String()
	if !strings.Contains(out, "invalidation stream for bob at "+am.URL) {
		t.Fatalf("stream failure not logged with owner and AM: %q", out)
	}
}
