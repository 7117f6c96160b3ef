package am

import (
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestRouteDrift fails when docs/PROTOCOL.md and the mux disagree, keeping
// the documented surface in lockstep with the real one. Every registered
// route must appear as an inline-code literal ("METHOD /v1/path") and live
// under the /v1 prefix; every route the doc names in a "### METHOD /v1/…"
// heading or a reference-table row must be registered (prose may still
// mention retired routes); and the retired routes must answer 404.
func TestRouteDrift(t *testing.T) {
	doc, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatalf("read protocol doc: %v", err)
	}
	text := string(doc)

	a := New(Config{Name: "am"})
	defer a.Close()
	h := a.Handler()
	routes := a.Routes()
	if len(routes) == 0 {
		t.Fatal("no routes registered")
	}
	registered := make(map[string]bool, len(routes))
	for _, rt := range routes {
		if !strings.HasPrefix(rt.Path, APIVersionPrefix+"/") {
			t.Errorf("route %s %s is mounted outside %s", rt.Method, rt.Path, APIVersionPrefix)
		}
		needle := rt.Method + " " + rt.Path
		registered[needle] = true
		if !strings.Contains(text, needle) {
			t.Errorf("docs/PROTOCOL.md is missing route %q — document it (and its error codes) before adding the endpoint", needle)
		}
	}

	documented := regexp.MustCompile("(?m)^(?:#{3,4} |\\| `)(GET|POST|PUT|PATCH|DELETE) (/v1/[^\\s`?]*)")
	matches := documented.FindAllStringSubmatch(text, -1)
	if len(matches) == 0 {
		t.Fatal("docs/PROTOCOL.md names no route in a heading or table row")
	}
	for _, m := range matches {
		if route := m[1] + " " + m[2]; !registered[route] {
			t.Errorf("docs/PROTOCOL.md documents %q, which no handler registers — drop it from the doc", route)
		}
	}

	// A handler can answer 404 too (POST /v1/state did, for an unknown
	// realm), so a retired route must also be absent from the mux.
	for _, path := range []string{"/api/decision", "/v1/state", "/v1/api/decision/pull", "/v1/api/decision/state"} {
		if registered["POST "+path] {
			t.Errorf("retired route POST %s is registered", path)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader("{}")))
		if rec.Code != http.StatusNotFound {
			t.Errorf("retired POST %s = %d, want 404", path, rec.Code)
		}
	}
}
