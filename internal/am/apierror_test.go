package am

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"umac/internal/core"
	"umac/internal/httpsig"
	"umac/internal/identity"
	"umac/internal/policy"
	"umac/internal/webutil"
)

// envelope mirrors the wire form of the structured error body.
type envelope struct {
	Code      string `json:"code"`
	Status    int    `json:"status"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
	RequestID string `json:"request_id"`
}

// TestErrorEnvelopeByClass drives one representative endpoint per error
// class and asserts the full core.APIError shape: stable code, matching
// status, non-empty message, request ID, problem content type — and no
// member beyond the core.APIError fields.
func TestErrorEnvelopeByClass(t *testing.T) {
	f := newHTTPFixture(t)

	// Fixture state: bob's pairing + policy for the denied/forbidden rows.
	code, _ := f.am.ApprovePairing(core.PairingRequest{Host: "webpics", User: "bob"})
	pr, err := f.am.ExchangeCode(code, "webpics")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.am.RegisterRealm(pr.PairingID, core.ProtectRequest{Realm: "travel"}); err != nil {
		t.Fatal(err)
	}
	pol, _ := f.am.CreatePolicy("bob", simplePolicy("bob"))
	if err := f.am.LinkGeneral("bob", "travel", pol.ID); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		user       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"unauth session route", "", "GET", "/v1/policies", "", 401, core.CodeUnauthenticated},
		{"unsigned host route", "", "POST", "/v1/api/decision", "{}", 401, core.CodeSignatureInvalid},
		{"bad json", "", "POST", "/v1/token", "{nope", 400, core.CodeBadRequest},
		{"policy not found", "bob", "GET", "/v1/policies/pol-none", "", 404, core.CodeNotFound},
		{"ticket not found", "", "GET", "/v1/token/status?ticket=ticket-none", "", 404, core.CodeNotFound},
		{"pairing not found", "bob", "DELETE", "/v1/pairings/pair-none", "", 404, core.CodeNotPaired},
		{"unknown realm", "", "POST", "/v1/token",
			`{"requester":"r","subject":"x","host":"webpics","realm":"ghosts","resource":"p","action":"read"}`,
			404, core.CodeUnknownRealm},
		{"policy deny", "", "POST", "/v1/token",
			`{"requester":"r","subject":"x","host":"webpics","realm":"travel","resource":"p","action":"write"}`,
			403, core.CodeAccessDenied},
		{"foreign owner", "mallory", "GET", "/v1/policies?owner=bob", "", 403, core.CodeForbidden},
		{"bad pairing code", "", "POST", "/v1/api/pair/exchange",
			`{"code":"code-bogus","host":"webpics"}`, 403, core.CodePairingCodeInvalid},
		{"bad page param", "bob", "GET", "/v1/audit?limit=potato", "", 400, core.CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rdr io.Reader
			if tc.body != "" {
				rdr = strings.NewReader(tc.body)
			}
			req, err := http.NewRequest(tc.method, f.srv.URL+tc.path, rdr)
			if err != nil {
				t.Fatal(err)
			}
			if tc.user != "" {
				req.Header.Set(identity.DefaultUserHeader, tc.user)
			}
			if tc.body != "" {
				req.Header.Set("Content-Type", "application/json")
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if ct := resp.Header.Get("Content-Type"); ct != webutil.ProblemContentType {
				t.Errorf("content type = %q", ct)
			}
			raw, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			var e envelope
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatal(err)
			}
			var members map[string]json.RawMessage
			if err := json.Unmarshal(raw, &members); err != nil {
				t.Fatal(err)
			}
			if _, ok := members["error"]; ok {
				t.Errorf("envelope carries the retired \"error\" member: %s", raw)
			}
			if e.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", e.Code, tc.wantCode)
			}
			if e.Status != tc.wantStatus {
				t.Errorf("body status = %d, want %d", e.Status, tc.wantStatus)
			}
			if e.Message == "" {
				t.Error("empty message")
			}
			if e.RequestID == "" || e.RequestID != resp.Header.Get(webutil.RequestIDHeader) {
				t.Errorf("request id body=%q header=%q", e.RequestID, resp.Header.Get(webutil.RequestIDHeader))
			}
		})
	}
}

// TestSignatureReplayEnvelope asserts the replay class separately (it
// needs a real signed request replayed).
func TestSignatureReplayEnvelope(t *testing.T) {
	f := newHTTPFixture(t)
	code, _ := f.am.ApprovePairing(core.PairingRequest{Host: "webpics", User: "bob"})
	pr, err := f.am.ExchangeCode(code, "webpics")
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"pairing_id":"x","user":"bob","realm":"travel"}`)
	req, _ := http.NewRequest(http.MethodPost, f.srv.URL+"/v1/api/protect", bytes.NewReader(payload))
	req.Header.Set("Content-Type", "application/json")
	if err := httpsig.Sign(req, pr.PairingID, pr.Secret); err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	req2, _ := http.NewRequest(http.MethodPost, f.srv.URL+"/v1/api/protect", bytes.NewReader(payload))
	for _, h := range []string{"X-Umac-Pairing", "X-Umac-Timestamp", "X-Umac-Nonce", "X-Umac-Signature"} {
		req2.Header.Set(h, req.Header.Get(h))
	}
	resp, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 409 {
		t.Fatalf("replay status = %d", resp.StatusCode)
	}
	var e envelope
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != core.CodeSignatureReplay || !e.Retryable {
		t.Fatalf("envelope = %+v, want retryable %s", e, core.CodeSignatureReplay)
	}
}

// TestPairingDeleteRoute covers the RESTful revocation: DELETE
// /v1/pairings/{id} revokes, the retired POST …/revoke form is gone, and
// unknown IDs return the structured not_paired envelope.
func TestPairingDeleteRoute(t *testing.T) {
	f := newHTTPFixture(t)
	pairOnce := func() string {
		code, _ := f.am.ApprovePairing(core.PairingRequest{Host: "webpics", User: "bob"})
		pr, err := f.am.ExchangeCode(code, "webpics")
		if err != nil {
			t.Fatal(err)
		}
		return pr.PairingID
	}

	id := pairOnce()
	resp := f.do(t, "bob", http.MethodDelete, "/v1/pairings/"+id, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	if body := decodeBody[map[string]string](t, resp); body["revoked"] != id {
		t.Fatalf("body = %v", body)
	}
	if _, ok := f.am.PairingSecret(id); ok {
		t.Fatal("revoked pairing still verifies")
	}

	// The retired POST …/revoke form no longer routes, and revokes nothing.
	id2 := pairOnce()
	resp = f.do(t, "bob", http.MethodPost, "/pairings/"+id2+"/revoke", map[string]string{})
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("POST …/revoke status = %d, want 404", resp.StatusCode)
	}
	if _, ok := f.am.PairingSecret(id2); !ok {
		t.Fatal("POST …/revoke revoked the pairing")
	}

	// Unknown ID → structured envelope.
	resp = f.do(t, "bob", http.MethodDelete, "/v1/pairings/pair-ghost", nil)
	defer resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unknown delete status = %d", resp.StatusCode)
	}
	var e envelope
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != core.CodeNotPaired {
		t.Fatalf("code = %q", e.Code)
	}
}

// TestListPagination exercises limit/offset + the page headers on the
// policies and audit endpoints.
func TestListPagination(t *testing.T) {
	f := newHTTPFixture(t)
	for i := 0; i < 5; i++ {
		p := simplePolicy("bob")
		p.Name = fmt.Sprintf("p-%d", i)
		f.do(t, "bob", http.MethodPost, "/v1/policies", p).Body.Close()
	}

	resp := f.do(t, "bob", http.MethodGet, "/v1/policies?limit=2&offset=2", nil)
	if resp.Header.Get(webutil.HeaderTotalCount) != "5" {
		t.Fatalf("total = %q", resp.Header.Get(webutil.HeaderTotalCount))
	}
	if resp.Header.Get(webutil.HeaderNextOffset) != "4" {
		t.Fatalf("next offset = %q", resp.Header.Get(webutil.HeaderNextOffset))
	}
	page := decodeBody[[]policy.Policy](t, resp)
	if len(page) != 2 {
		t.Fatalf("page size = %d", len(page))
	}

	// Pages tile the full set without overlap.
	seen := map[core.PolicyID]bool{}
	for off := 0; off < 5; off += 2 {
		resp := f.do(t, "bob", http.MethodGet, fmt.Sprintf("/v1/policies?limit=2&offset=%d", off), nil)
		for _, p := range decodeBody[[]policy.Policy](t, resp) {
			if seen[p.ID] {
				t.Fatalf("policy %s appeared twice", p.ID)
			}
			seen[p.ID] = true
		}
	}
	if len(seen) != 5 {
		t.Fatalf("tiled %d policies, want 5", len(seen))
	}

	// Audit pagination: 5 policy-created events for bob.
	resp = f.do(t, "bob", http.MethodGet, "/v1/audit?limit=3", nil)
	events := decodeBody[[]json.RawMessage](t, resp)
	if len(events) != 3 {
		t.Fatalf("audit page = %d", len(events))
	}
	// The frame headers reflect the REQUEST offset even though the audit
	// log windows at the source: offset 2 + 2 events → next offset 4.
	resp = f.do(t, "bob", http.MethodGet, "/v1/audit?limit=2&offset=2", nil)
	if got := resp.Header.Get(webutil.HeaderNextOffset); got != "4" {
		t.Fatalf("audit next offset = %q, want 4", got)
	}
	if got := resp.Header.Get(webutil.HeaderTotalCount); got != "5" {
		t.Fatalf("audit total = %q, want 5", got)
	}
	resp.Body.Close()

	// Past-the-end offsets are empty arrays, not errors or null.
	resp = f.do(t, "bob", http.MethodGet, "/v1/policies?offset=99", nil)
	if page := decodeBody[[]policy.Policy](t, resp); page == nil || len(page) != 0 {
		t.Fatalf("past-end page = %v", page)
	}
}

// TestReadyzDraining covers the load-balancer draining flow.
func TestReadyzDraining(t *testing.T) {
	f := newHTTPFixture(t)
	resp := f.do(t, "", http.MethodGet, "/v1/readyz", nil)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("ready status = %d", resp.StatusCode)
	}
	f.am.SetDraining(true)
	resp = f.do(t, "", http.MethodGet, "/v1/readyz", nil)
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("draining status = %d", resp.StatusCode)
	}
	var e envelope
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != core.CodeUnavailable || !e.Retryable {
		t.Fatalf("envelope = %+v", e)
	}
	// Serving routes keep answering while draining.
	resp = f.do(t, "", http.MethodGet, "/v1/healthz", nil)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz while draining = %d", resp.StatusCode)
	}
	f.am.SetDraining(false)
	resp = f.do(t, "", http.MethodGet, "/v1/readyz", nil)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("undrained status = %d", resp.StatusCode)
	}
}

// TestMetricsEndpoint asserts per-route counters accumulate by status
// class.
func TestMetricsEndpoint(t *testing.T) {
	f := newHTTPFixture(t)
	f.do(t, "bob", http.MethodGet, "/v1/policies", nil).Body.Close()
	f.do(t, "bob", http.MethodGet, "/v1/policies", nil).Body.Close()
	f.do(t, "", http.MethodGet, "/v1/policies", nil).Body.Close() // 401

	resp := f.do(t, "", http.MethodGet, "/v1/metrics", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	var body struct {
		AM     string                           `json:"am"`
		Routes map[string]webutil.RouteSnapshot `json:"routes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	rs, ok := body.Routes["GET /v1/policies"]
	if !ok {
		t.Fatalf("routes = %v", body.Routes)
	}
	if rs.Count != 3 || rs.Status["2xx"] != 2 || rs.Status["4xx"] != 1 {
		t.Fatalf("route snapshot = %+v", rs)
	}
	if body.AM != "am" {
		t.Fatalf("am = %q", body.AM)
	}
}
