package sim

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"umac/internal/identity"
)

// TestWireLogConcurrent fires concurrent requests at the AM and two Hosts
// while an event stream stays open: every request must enter the wire log
// exactly once with the status its client saw, and AMRequests must count
// the AM's entries, the open stream included (run with -race).
func TestWireLogConcurrent(t *testing.T) {
	w := NewWorld()
	t.Cleanup(w.Close)
	hosts := []*SimpleHost{w.AddHost("h1"), w.AddHost("h2")}

	// A long-lived event stream: counted on arrival, still running.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, w.AMServer.URL+"/v1/events", nil)
	req.Header.Set(identity.DefaultUserHeader, "bob")
	stream, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("event stream status = %d", stream.StatusCode)
	}
	if _, err := bufio.NewReader(stream.Body).ReadString('\n'); err != nil {
		t.Fatalf("event stream sent nothing: %v", err)
	}

	const workers, perWorker = 8, 20
	var (
		mu   sync.Mutex
		seen []string // "server METHOD path status" as each client saw it
		wg   sync.WaitGroup
	)
	get := func(server, base, path string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		mu.Lock()
		seen = append(seen, fmt.Sprintf("%s GET %s %d", server, path, resp.StatusCode))
		mu.Unlock()
	}
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if i%2 == 0 {
					get(AMServerName, w.AMServer.URL, "/v1/healthz")
				} else {
					get(AMServerName, w.AMServer.URL, fmt.Sprintf("/v1/nowhere-%d-%d", g, i))
				}
				for _, h := range hosts {
					get(string(h.ID), h.Server.URL, fmt.Sprintf("/res/missing-%d-%d", g, i))
				}
			}
		}()
	}
	wg.Wait()

	var logged []string
	amEntries, open := 0, 0
	for _, e := range w.Wire() {
		if e.Server == AMServerName {
			amEntries++
		}
		if e.Path == "/v1/events" {
			open++
			if e.Status != 0 {
				t.Fatalf("open event stream logged with status %d", e.Status)
			}
			continue
		}
		logged = append(logged, e.String())
	}
	if open != 1 {
		t.Fatalf("event stream logged %d times, want once", open)
	}
	sort.Strings(seen)
	sort.Strings(logged)
	if want := workers * perWorker * 3; len(seen) != want {
		t.Fatalf("clients completed %d requests, want %d", len(seen), want)
	}
	if strings.Join(logged, "\n") != strings.Join(seen, "\n") {
		t.Fatalf("wire log holds %d exchanges that differ from the %d the clients saw", len(logged), len(seen))
	}
	if got := w.AMRequests(); got != int64(amEntries) {
		t.Fatalf("AMRequests = %d, wire log holds %d AM entries", got, amEntries)
	}
	if want := int64(workers*perWorker + 1); w.AMRequests() != want {
		t.Fatalf("AMRequests = %d, want %d", w.AMRequests(), want)
	}

	// Once the stream ends, its entry carries the status it was served with.
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var status int
		for _, e := range w.Wire() {
			if e.Path == "/v1/events" {
				status = e.Status
			}
		}
		if status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("closed event stream logged with status %d, want 200", status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWireLogResetWhileRunning: a request still running when the log is
// reset must not write its status into the entry that took its place.
func TestWireLogResetWhileRunning(t *testing.T) {
	var w World
	release, done := make(chan struct{}), make(chan struct{})
	slow := w.wire.wrap(AMServerName, http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		<-release
		rw.WriteHeader(http.StatusNoContent)
	}))
	go func() {
		defer close(done)
		slow.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/slow", nil))
	}()
	for w.AMRequests() == 0 {
		time.Sleep(time.Millisecond)
	}
	w.ResetWire()
	w.wire.wrap("h1", http.NotFoundHandler()).ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/fast", nil))
	close(release)
	<-done
	if got := fmt.Sprint(w.Wire()); got != "[h1 GET /fast 404]" {
		t.Fatalf("wire log = %s, want [h1 GET /fast 404]", got)
	}
}
