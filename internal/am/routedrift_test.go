package am

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// TestRouteDrift fails when a mux-registered route is missing from
// docs/PROTOCOL.md, keeping the documented surface in lockstep with the
// real one. Every route must appear as an inline-code literal
// ("METHOD /v1/path") and live under the /v1 prefix; the retired pre-v1
// paths must answer 404.
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
	for _, rt := range routes {
		if !strings.HasPrefix(rt.Path, APIVersionPrefix+"/") {
			t.Errorf("route %s %s is mounted outside %s", rt.Method, rt.Path, APIVersionPrefix)
		}
		needle := rt.Method + " " + rt.Path
		if !strings.Contains(text, needle) {
			t.Errorf("docs/PROTOCOL.md is missing route %q — document it (and its error codes) before adding the endpoint", needle)
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/decision", strings.NewReader("{}")))
	if rec.Code != http.StatusNotFound {
		t.Errorf("pre-v1 POST /api/decision = %d, want 404", rec.Code)
	}
}
