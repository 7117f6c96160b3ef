package amclient

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"umac/internal/core"
	"umac/internal/policy"
)

// TestCallsReuseOneConnection: every kind of reply leaves the connection
// reusable, so 20 sequential calls open exactly one TCP connection. A body
// closed before EOF — a reply the method ignores, or the chunk terminator
// a json.Decoder never reads — makes the Transport drop the connection
// and dial again on the next call.
func TestCallsReuseOneConnection(t *testing.T) {
	pol := policy.Policy{ID: "pol-1", Owner: "bob", Name: "p", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{Effect: policy.EffectPermit, Subjects: []policy.Subject{{Type: policy.SubjectEveryone}}}}}
	many := make([]policy.Policy, 200)
	for i := range many {
		many[i] = pol
		many[i].ID = core.PolicyID(fmt.Sprintf("pol-%03d", i))
	}
	writeJSON := func(w http.ResponseWriter, status int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(v)
	}
	cases := []struct {
		name    string
		handler func(w http.ResponseWriter, r *http.Request, n int)
		call    func(c *Client) error
	}{
		{"ignored reply (UpdatePolicy)",
			func(w http.ResponseWriter, r *http.Request, _ int) { writeJSON(w, http.StatusOK, pol) },
			func(c *Client) error { return c.UpdatePolicy(pol) }},
		{"ignored reply (LinkGeneral)",
			func(w http.ResponseWriter, r *http.Request, _ int) {
				writeJSON(w, http.StatusOK, map[string]string{"status": "linked"})
			},
			func(c *Client) error { return c.LinkGeneral("bob", "travel", "pol-1") }},
		{"decoded 201 (CreatePolicy)",
			func(w http.ResponseWriter, r *http.Request, _ int) { writeJSON(w, http.StatusCreated, pol) },
			func(c *Client) error { _, err := c.CreatePolicy(pol); return err }},
		{"chunked list (ListPolicies)",
			func(w http.ResponseWriter, r *http.Request, _ int) { writeJSON(w, http.StatusOK, many) },
			func(c *Client) error {
				got, err := c.ListPolicies("bob", Page{})
				if err == nil && len(got) != len(many) {
					err = fmt.Errorf("listed %d policies, want %d", len(got), len(many))
				}
				return err
			}},
		{"204 (DeletePolicy)",
			func(w http.ResponseWriter, r *http.Request, _ int) { w.WriteHeader(http.StatusNoContent) },
			func(c *Client) error { return c.DeletePolicy("pol-1") }},
		{"4xx envelope",
			func(w http.ResponseWriter, r *http.Request, _ int) {
				writeJSON(w, http.StatusNotFound, core.APIError{Code: core.CodeNotFound, Status: http.StatusNotFound, Message: "no such policy"})
			},
			func(c *Client) error {
				_, err := c.GetPolicy("missing")
				var ae *core.APIError
				if !errors.As(err, &ae) || ae.Code != core.CodeNotFound {
					return fmt.Errorf("GetPolicy(missing) = %v, want not_found", err)
				}
				return nil
			}},
		{"429 retry",
			func(w http.ResponseWriter, r *http.Request, n int) {
				if n%2 == 1 {
					rateLimitedAnswer(w, 1)
					return
				}
				writeJSON(w, http.StatusOK, pol)
			},
			func(c *Client) error { _, err := c.GetPolicy("pol-1"); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var conns, reqs atomic.Int32
			srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				tc.handler(w, r, int(reqs.Add(1)))
			}))
			srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
				if s == http.StateNew {
					conns.Add(1)
				}
			}
			srv.Start()
			defer srv.Close()
			tr := &http.Transport{}
			defer tr.CloseIdleConnections()
			c := New(Config{BaseURL: srv.URL, User: "bob", HTTPClient: &http.Client{Transport: tr}})
			c.sleep = func(time.Duration) {}
			for i := 0; i < 20; i++ {
				if err := tc.call(c); err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
			}
			if n := conns.Load(); n != 1 {
				t.Fatalf("20 calls opened %d connections, want 1", n)
			}
		})
	}
}
