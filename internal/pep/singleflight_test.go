package pep

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"umac/internal/core"
)

// TestSingleflightCollapsesConcurrentMisses: concurrent Checks for the same
// uncached key must collapse into (nearly) one AM decision query — the
// leader asks, followers share the answer.
func TestSingleflightCollapsesConcurrentMisses(t *testing.T) {
	var decisions atomic.Int64
	am := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/api/decision" {
			http.NotFound(w, r)
			return
		}
		decisions.Add(1)
		// Hold the decision open long enough for every goroutine to join
		// the in-flight call.
		time.Sleep(100 * time.Millisecond)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"decision":"permit","cache_ttl_seconds":600}`))
	}))
	defer am.Close()

	e := New(Config{Host: "webpics"})
	e.mu.Lock()
	e.pairings["bob"] = Pairing{AMURL: am.URL, PairingID: "p", Secret: "s", User: "bob"}
	e.mu.Unlock()

	const goroutines = 16
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, goroutines)
	var shared atomic.Int64
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodGet, "http://pics/res/x", nil)
			req.Header.Set("Authorization", "UMAC tok")
			<-start
			res, err := e.Check(req, "bob", "travel", "x", core.ActionRead)
			if err != nil {
				errs <- err
				return
			}
			if res.Verdict != VerdictAllow {
				errs <- err
			}
			if res.CacheHit {
				shared.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Strictly one query barring extreme scheduling (a goroutine arriving
	// after the leader already finished starts a fresh flight, legally).
	if n := decisions.Load(); n > 2 {
		t.Fatalf("%d goroutines issued %d AM queries, want collapse to ~1", goroutines, n)
	}
	if shared.Load() == 0 {
		t.Fatal("no caller reported a shared/cached result")
	}
	// The flight's leader filled the cache for everyone after it.
	req, _ := http.NewRequest(http.MethodGet, "http://pics/res/x", nil)
	req.Header.Set("Authorization", "UMAC tok")
	res, err := e.Check(req, "bob", "travel", "x", core.ActionRead)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("cache cold after collapsed flight")
	}
}

// TestSingleflightDistinctKeysDoNotCollapse: different (resource, action)
// pairs fly independently.
func TestSingleflightDistinctKeysDoNotCollapse(t *testing.T) {
	var g flightGroup
	var calls atomic.Int64
	var wg sync.WaitGroup
	for _, res := range []core.ResourceID{"a", "b", "c"} {
		wg.Add(1)
		go func(key entryKey) {
			defer wg.Done()
			g.do(key, func() (core.DecisionResponse, error) {
				calls.Add(1)
				time.Sleep(20 * time.Millisecond)
				return core.DecisionResponse{Decision: "permit"}, nil
			})
		}(checkKey("tok", res, core.ActionRead))
	}
	wg.Wait()
	if n := calls.Load(); n != 3 {
		t.Fatalf("calls = %d, want 3 (one per key)", n)
	}
}

// TestSingleflightErrorShared: a failing flight propagates its error to
// every waiter and the next call retries fresh.
func TestSingleflightErrorShared(t *testing.T) {
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer broken.Close()
	e := New(Config{Host: "webpics"})
	e.mu.Lock()
	e.pairings["bob"] = Pairing{AMURL: broken.URL, PairingID: "p", Secret: "s", User: "bob"}
	e.mu.Unlock()
	req, _ := http.NewRequest(http.MethodGet, "http://pics/res/x", nil)
	req.Header.Set("Authorization", "UMAC tok")
	if _, err := e.Check(req, "bob", "travel", "x", core.ActionRead); err == nil {
		t.Fatal("broken AM produced no error")
	}
	// Nothing was cached from the failure.
	if e.Cache().Len() != 0 {
		t.Fatal("error result cached")
	}
}
