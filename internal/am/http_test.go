package am

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"umac/internal/core"
	"umac/internal/httpsig"
	"umac/internal/identity"
	"umac/internal/policy"
)

// httpFixture is an AM behind an httptest server.
type httpFixture struct {
	am  *AM
	srv *httptest.Server
}

func newHTTPFixture(t *testing.T) *httpFixture {
	t.Helper()
	a := New(Config{Name: "am", Notifier: &Outbox{}})
	srv := httptest.NewServer(a.Handler())
	t.Cleanup(srv.Close)
	a.SetBaseURL(srv.URL)
	return &httpFixture{am: a, srv: srv}
}

// do issues a request as the given (header-authenticated) user. path is
// relative to the API version prefix ("/policies" means "/v1/policies");
// an already-prefixed path is sent as is.
func (f *httpFixture) do(t *testing.T, user, method, path string, body any) *http.Response {
	t.Helper()
	if !strings.HasPrefix(path, APIVersionPrefix+"/") {
		path = APIVersionPrefix + path
	}
	var rdr io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rdr = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, f.srv.URL+path, rdr)
	if err != nil {
		t.Fatal(err)
	}
	if user != "" {
		req.Header.Set(identity.DefaultUserHeader, user)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func simplePolicy(owner string) policy.Policy {
	return policy.Policy{
		Owner: core.UserID(owner), Name: "p", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:   policy.EffectPermit,
			Subjects: []policy.Subject{{Type: policy.SubjectEveryone}},
			Actions:  []core.Action{core.ActionRead},
		}},
	}
}

func TestHTTPHealthz(t *testing.T) {
	f := newHTTPFixture(t)
	// The probe serves the subsystem-health report.
	resp := f.do(t, "", http.MethodGet, "/healthz", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body := decodeBody[map[string]any](t, resp)
	if body["status"] != "ok" {
		t.Fatalf("body = %v", body)
	}
	for _, key := range []string{"store", "audit"} {
		if _, ok := body[key].(map[string]any); !ok {
			t.Fatalf("body missing %s report: %v", key, body)
		}
	}
}

func TestHTTPRequiresAuth(t *testing.T) {
	f := newHTTPFixture(t)
	for _, path := range []string{"/policies", "/groups", "/audit", "/consents", "/pairings"} {
		resp := f.do(t, "", http.MethodGet, path, nil)
		resp.Body.Close()
		if resp.StatusCode != 401 {
			t.Errorf("%s: status = %d, want 401", path, resp.StatusCode)
		}
	}
}

func TestHTTPPolicyCRUD(t *testing.T) {
	f := newHTTPFixture(t)
	// Create.
	resp := f.do(t, "bob", http.MethodPost, "/policies", simplePolicy("bob"))
	if resp.StatusCode != 201 {
		t.Fatalf("create status = %d", resp.StatusCode)
	}
	created := decodeBody[policy.Policy](t, resp)
	if created.ID == "" || created.Owner != "bob" {
		t.Fatalf("created = %+v", created)
	}
	// Get.
	resp = f.do(t, "bob", http.MethodGet, "/policies/"+string(created.ID), nil)
	if resp.StatusCode != 200 {
		t.Fatalf("get status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	// List.
	resp = f.do(t, "bob", http.MethodGet, "/policies", nil)
	if got := decodeBody[[]policy.Policy](t, resp); len(got) != 1 {
		t.Fatalf("list = %d", len(got))
	}
	// Update.
	created.Name = "renamed"
	resp = f.do(t, "bob", http.MethodPut, "/policies/"+string(created.ID), created)
	if resp.StatusCode != 200 {
		t.Fatalf("update status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Delete.
	resp = f.do(t, "bob", http.MethodDelete, "/policies/"+string(created.ID), nil)
	if resp.StatusCode != 204 {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Get after delete.
	resp = f.do(t, "bob", http.MethodGet, "/policies/"+string(created.ID), nil)
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("get-after-delete status = %d", resp.StatusCode)
	}
}

func TestHTTPPolicyIsolationBetweenUsers(t *testing.T) {
	f := newHTTPFixture(t)
	resp := f.do(t, "bob", http.MethodPost, "/policies", simplePolicy("bob"))
	created := decodeBody[policy.Policy](t, resp)

	// Mallory cannot view, update or delete bob's policy.
	resp = f.do(t, "mallory", http.MethodGet, "/policies/"+string(created.ID), nil)
	resp.Body.Close()
	if resp.StatusCode != 403 {
		t.Fatalf("mallory get = %d", resp.StatusCode)
	}
	resp = f.do(t, "mallory", http.MethodDelete, "/policies/"+string(created.ID), nil)
	resp.Body.Close()
	if resp.StatusCode == 204 {
		t.Fatal("mallory deleted bob's policy")
	}
	// Mallory cannot list bob's policies either.
	resp = f.do(t, "mallory", http.MethodGet, "/policies?owner=bob", nil)
	resp.Body.Close()
	if resp.StatusCode != 403 {
		t.Fatalf("mallory list = %d", resp.StatusCode)
	}
	// Mallory cannot create a policy owned by bob.
	resp = f.do(t, "mallory", http.MethodPost, "/policies", simplePolicy("bob"))
	resp.Body.Close()
	if resp.StatusCode == 201 {
		t.Fatal("mallory created bob's policy")
	}
}

func TestHTTPPolicyExportImport(t *testing.T) {
	f := newHTTPFixture(t)
	f.do(t, "bob", http.MethodPost, "/policies", simplePolicy("bob")).Body.Close()

	for _, format := range []string{"json", "xml"} {
		resp := f.do(t, "bob", http.MethodGet, "/policies/export?format="+format, nil)
		if resp.StatusCode != 200 {
			t.Fatalf("%s export status = %d", format, resp.StatusCode)
		}
		exported, _ := io.ReadAll(resp.Body)
		resp.Body.Close()

		// Import into alice's account.
		req, _ := http.NewRequest(http.MethodPost, f.srv.URL+"/v1/policies/import?format="+format,
			bytes.NewReader(exported))
		req.Header.Set(identity.DefaultUserHeader, "alice")
		resp2, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp2.StatusCode != 200 {
			t.Fatalf("%s import status = %d", format, resp2.StatusCode)
		}
		out := decodeBody[map[string]int](t, resp2)
		if out["imported"] != 1 {
			t.Fatalf("%s imported = %d", format, out["imported"])
		}
	}
	// Each cross-owner import is re-keyed, so alice accumulates one policy
	// per import — and bob's original is never clobbered.
	resp := f.do(t, "alice", http.MethodGet, "/policies", nil)
	if got := decodeBody[[]policy.Policy](t, resp); len(got) != 2 {
		t.Fatalf("alice policies = %d", len(got))
	}
	resp = f.do(t, "bob", http.MethodGet, "/policies", nil)
	if got := decodeBody[[]policy.Policy](t, resp); len(got) != 1 || got[0].Owner != "bob" {
		t.Fatalf("bob's policies disturbed by imports: %+v", got)
	}
}

func TestHTTPGroupLifecycle(t *testing.T) {
	f := newHTTPFixture(t)
	resp := f.do(t, "bob", http.MethodPost, "/groups/friends/members", map[string]string{"user": "alice"})
	if resp.StatusCode != 200 {
		t.Fatalf("add status = %d", resp.StatusCode)
	}
	members := decodeBody[[]core.UserID](t, resp)
	if len(members) != 1 || members[0] != "alice" {
		t.Fatalf("members = %v", members)
	}
	resp = f.do(t, "bob", http.MethodGet, "/groups", nil)
	if groups := decodeBody[[]string](t, resp); len(groups) != 1 || groups[0] != "friends" {
		t.Fatalf("groups = %v", groups)
	}
	resp = f.do(t, "bob", http.MethodDelete, "/groups/friends/members/alice", nil)
	resp.Body.Close()
	if resp.StatusCode != 204 {
		t.Fatalf("remove status = %d", resp.StatusCode)
	}
	resp = f.do(t, "bob", http.MethodGet, "/groups/friends/members", nil)
	if members := decodeBody[[]core.UserID](t, resp); len(members) != 0 {
		t.Fatalf("members after remove = %v", members)
	}
}

func TestHTTPCustodianLifecycle(t *testing.T) {
	f := newHTTPFixture(t)
	resp := f.do(t, "bob", http.MethodPost, "/custodians", map[string]string{"custodian": "carol"})
	if resp.StatusCode != 200 {
		t.Fatalf("add status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Carol can now create policies for bob over HTTP.
	resp = f.do(t, "carol", http.MethodPost, "/policies", simplePolicy("bob"))
	if resp.StatusCode != 201 {
		t.Fatalf("custodian create status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Remove; carol loses the right.
	resp = f.do(t, "bob", http.MethodDelete, "/custodians/carol", nil)
	resp.Body.Close()
	if resp.StatusCode != 204 {
		t.Fatalf("remove status = %d", resp.StatusCode)
	}
	resp = f.do(t, "carol", http.MethodPost, "/policies", simplePolicy("bob"))
	resp.Body.Close()
	if resp.StatusCode == 201 {
		t.Fatal("removed custodian still creates")
	}
}

func TestHTTPPairConfirmRedirect(t *testing.T) {
	f := newHTTPFixture(t)
	client := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	u := f.srv.URL + "/v1/pair/confirm?" + url.Values{
		core.ParamHost:     {"webpics"},
		"host_url":         {"http://pics.example"},
		core.ParamReturnTo: {"http://pics.example/umac/pair/callback?am=x"},
	}.Encode()
	req, _ := http.NewRequest(http.MethodGet, u, nil)
	req.Header.Set(identity.DefaultUserHeader, "bob")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 302 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	loc, _ := url.Parse(resp.Header.Get("Location"))
	code := loc.Query().Get("code")
	if code == "" {
		t.Fatalf("no code in redirect: %s", loc)
	}
	// The code exchanges for a pairing.
	body, _ := json.Marshal(map[string]string{"code": code, "host": "webpics"})
	resp2, err := http.Post(f.srv.URL+"/v1/api/pair/exchange", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	pr := decodeBody[core.PairingResponse](t, resp2)
	if pr.PairingID == "" || pr.Secret == "" || pr.User != "bob" {
		t.Fatalf("pairing = %+v", pr)
	}
	// Pairing list hides the secret.
	resp3 := f.do(t, "bob", http.MethodGet, "/pairings", nil)
	pairings := decodeBody[[]Pairing](t, resp3)
	if len(pairings) != 1 || pairings[0].Secret != "" {
		t.Fatalf("pairings = %+v", pairings)
	}
	// Revoke over HTTP.
	resp4 := f.do(t, "bob", http.MethodDelete, "/pairings/"+pairings[0].ID, nil)
	resp4.Body.Close()
	if resp4.StatusCode != 200 {
		t.Fatalf("revoke status = %d", resp4.StatusCode)
	}
	// Mallory cannot revoke (nothing left to revoke here, so set up anew).
}

func TestHTTPPairConfirmWithoutReturnToGivesJSON(t *testing.T) {
	f := newHTTPFixture(t)
	resp := f.do(t, "bob", http.MethodGet, "/pair/confirm?host=webpics", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body := decodeBody[map[string]string](t, resp)
	if body["code"] == "" {
		t.Fatalf("body = %v", body)
	}
}

func TestHTTPExchangeBadCode(t *testing.T) {
	f := newHTTPFixture(t)
	body, _ := json.Marshal(map[string]string{"code": "code-bogus", "host": "webpics"})
	resp, err := http.Post(f.srv.URL+"/v1/api/pair/exchange", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 403 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestHTTPSignedEndpointsRejectUnsigned(t *testing.T) {
	f := newHTTPFixture(t)
	for _, path := range []string{"/v1/api/protect", "/v1/api/decision", "/v1/api/decision/batch"} {
		resp, err := http.Post(f.srv.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 401 {
			t.Errorf("%s: status = %d, want 401", path, resp.StatusCode)
		}
	}
}

func TestHTTPSignedEndpointRejectsReplay(t *testing.T) {
	f := newHTTPFixture(t)
	// Pair directly through the core.
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
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("first request status = %d", resp.StatusCode)
	}
	// Identical signed request again: replayed nonce → 409.
	req2, _ := http.NewRequest(http.MethodPost, f.srv.URL+"/v1/api/protect", bytes.NewReader(payload))
	for _, h := range []string{"X-Umac-Pairing", "X-Umac-Timestamp", "X-Umac-Nonce", "X-Umac-Signature"} {
		req2.Header.Set(h, req.Header.Get(h))
	}
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 409 {
		t.Fatalf("replay status = %d, want 409", resp2.StatusCode)
	}
}

func TestHTTPTokenEndpointStatuses(t *testing.T) {
	f := newHTTPFixture(t)
	// Wire a protected realm with an everyone-read policy.
	code, _ := f.am.ApprovePairing(core.PairingRequest{Host: "webpics", User: "bob"})
	pr, _ := f.am.ExchangeCode(code, "webpics")
	if _, err := f.am.RegisterRealm(pr.PairingID, core.ProtectRequest{Realm: "travel"}); err != nil {
		t.Fatal(err)
	}
	p, _ := f.am.CreatePolicy("bob", simplePolicy("bob"))
	if err := f.am.LinkGeneral("bob", "travel", p.ID); err != nil {
		t.Fatal(err)
	}

	post := func(body core.TokenRequest) *http.Response {
		b, _ := json.Marshal(body)
		resp, err := http.Post(f.srv.URL+"/v1/token", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	// Permit → 200 with token.
	resp := post(core.TokenRequest{
		Requester: "r", Subject: "alice", Host: "webpics", Realm: "travel",
		Resource: "x", Action: core.ActionRead,
	})
	if resp.StatusCode != 200 {
		t.Fatalf("permit status = %d", resp.StatusCode)
	}
	tr := decodeBody[core.TokenResponse](t, resp)
	if tr.Token == "" {
		t.Fatal("no token")
	}
	// Deny (write not covered) → 403.
	resp = post(core.TokenRequest{
		Requester: "r", Subject: "alice", Host: "webpics", Realm: "travel",
		Resource: "x", Action: core.ActionWrite,
	})
	resp.Body.Close()
	if resp.StatusCode != 403 {
		t.Fatalf("deny status = %d", resp.StatusCode)
	}
	// Unknown realm → 404.
	resp = post(core.TokenRequest{
		Requester: "r", Subject: "alice", Host: "webpics", Realm: "ghosts",
		Resource: "x", Action: core.ActionRead,
	})
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("unknown realm status = %d", resp.StatusCode)
	}
	// Garbage body → 400.
	respG, err := http.Post(f.srv.URL+"/v1/token", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	respG.Body.Close()
	if respG.StatusCode != 400 {
		t.Fatalf("garbage status = %d", respG.StatusCode)
	}
	// Token status for unknown ticket → 404.
	respS, err := http.Get(f.srv.URL + "/v1/token/status?ticket=ticket-none")
	if err != nil {
		t.Fatal(err)
	}
	respS.Body.Close()
	if respS.StatusCode != 404 {
		t.Fatalf("status endpoint = %d", respS.StatusCode)
	}
}

func TestHTTPAuditEndpoints(t *testing.T) {
	f := newHTTPFixture(t)
	f.do(t, "bob", http.MethodPost, "/policies", simplePolicy("bob")).Body.Close()
	resp := f.do(t, "bob", http.MethodGet, "/audit", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("audit status = %d", resp.StatusCode)
	}
	events := decodeBody[[]json.RawMessage](t, resp)
	if len(events) == 0 {
		t.Fatal("no audit events")
	}
	resp = f.do(t, "bob", http.MethodGet, "/audit/summary", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("summary status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Cross-user audit denied.
	resp = f.do(t, "mallory", http.MethodGet, "/audit?owner=bob", nil)
	resp.Body.Close()
	if resp.StatusCode != 403 {
		t.Fatalf("mallory audit = %d", resp.StatusCode)
	}
}

func TestHTTPComposePage(t *testing.T) {
	f := newHTTPFixture(t)
	f.do(t, "bob", http.MethodPost, "/policies", simplePolicy("bob")).Body.Close()
	resp := f.do(t, "bob", http.MethodGet, "/compose?host=webpics&realm=travel", nil)
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	page := string(body)
	for _, want := range []string{"travel", "webpics", "bob", "<ul>"} {
		if !strings.Contains(page, want) {
			t.Errorf("compose page missing %q", want)
		}
	}
}

func TestHTTPLinkEndpoints(t *testing.T) {
	f := newHTTPFixture(t)
	resp := f.do(t, "bob", http.MethodPost, "/policies", simplePolicy("bob"))
	gen := decodeBody[policy.Policy](t, resp)
	spec := simplePolicy("bob")
	spec.Kind = policy.KindSpecific
	resp = f.do(t, "bob", http.MethodPost, "/policies", spec)
	specCreated := decodeBody[policy.Policy](t, resp)

	resp = f.do(t, "bob", http.MethodPost, "/links/general",
		map[string]string{"realm": "travel", "policy": string(gen.ID)})
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("link general = %d", resp.StatusCode)
	}
	resp = f.do(t, "bob", http.MethodPost, "/links/specific",
		map[string]string{"host": "webpics", "resource": "p1", "policy": string(specCreated.ID)})
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("link specific = %d", resp.StatusCode)
	}
	// Unlink.
	resp = f.do(t, "bob", http.MethodDelete, "/links/general?realm=travel", nil)
	resp.Body.Close()
	if resp.StatusCode != 204 {
		t.Fatalf("unlink general = %d", resp.StatusCode)
	}
	resp = f.do(t, "bob", http.MethodDelete, "/links/specific?host=webpics&resource=p1", nil)
	resp.Body.Close()
	if resp.StatusCode != 204 {
		t.Fatalf("unlink specific = %d", resp.StatusCode)
	}
	// Kind mismatch over HTTP → 400.
	resp = f.do(t, "bob", http.MethodPost, "/links/general",
		map[string]string{"realm": "travel", "policy": string(specCreated.ID)})
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("kind mismatch = %d", resp.StatusCode)
	}
}

var _ = fmt.Sprintf
