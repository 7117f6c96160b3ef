package am

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"umac/internal/core"
	"umac/internal/httpsig"
	"umac/internal/webutil"
)

// These tests pin the signed decision channel's single-read body: the cap
// applies before anything is verified, the codec decodes what the
// signature covered, and the response bytes are encoding/json's.

// countingBody is a 64 MiB request body that counts what is read of it.
type countingBody struct{ n int64 }

const countingBodySize = 64 << 20

func (b *countingBody) Read(p []byte) (int, error) {
	if b.n == countingBodySize {
		return 0, io.EOF
	}
	p = p[:min(int64(len(p)), countingBodySize-b.n)]
	for i := range p {
		p[i] = 'x'
	}
	b.n += int64(len(p))
	return len(p), nil
}

func (b *countingBody) Close() error { return nil }

// TestSignedRouteCapsBodyBeforeVerifying: anyone who knows a pairing ID
// can send a signed route a bogus signature over an unbounded body. The AM
// must answer request_too_large having read at most MaxBodyBytes+1 bytes,
// not buffer the whole body to check the signature first.
func TestSignedRouteCapsBodyBeforeVerifying(t *testing.T) {
	a := New(Config{Name: "am", Notifier: &Outbox{}})
	code, _ := a.ApprovePairing(core.PairingRequest{Host: "webpics", User: "bob"})
	pr, err := a.ExchangeCode(code, "webpics")
	if err != nil {
		t.Fatal(err)
	}
	h := a.Handler()
	for _, route := range []string{"/v1/api/decision", "/v1/api/decision/batch", "/v1/api/protect"} {
		body := &countingBody{}
		req := httptest.NewRequest(http.MethodPost, route, nil)
		req.Body, req.ContentLength = body, -1 // undeclared length
		req.Header.Set(httpsig.HeaderPairing, pr.PairingID)
		req.Header.Set(httpsig.HeaderTimestamp, strconv.FormatInt(time.Now().Unix(), 10))
		req.Header.Set(httpsig.HeaderNonce, "n-bogus")
		req.Header.Set(httpsig.HeaderSignature, "bogus")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d (%s), want 413", route, rec.Code, rec.Body)
		}
		if body.n > webutil.MaxBodyBytes+1 {
			t.Fatalf("%s: read %d body bytes, want <= %d", route, body.n, webutil.MaxBodyBytes+1)
		}
	}
}

// TestDecisionBatchItemsStartFresh: the batch route reuses its items
// array across requests, and a body leaving an item's token out must not
// inherit the token a previous body put there — the item would be decided
// with another Host's token instead of its own batch's.
func TestDecisionBatchItemsStartFresh(t *testing.T) {
	a := New(Config{Name: "am", Notifier: &Outbox{}})
	code, _ := a.ApprovePairing(core.PairingRequest{Host: "webpics", User: "bob"})
	pr, err := a.ExchangeCode(code, "webpics")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.RegisterRealm(pr.PairingID, core.ProtectRequest{Realm: "travel"}); err != nil {
		t.Fatal(err)
	}
	p, _ := a.CreatePolicy("bob", simplePolicy("bob"))
	if err := a.LinkGeneral("bob", "travel", p.ID); err != nil {
		t.Fatal(err)
	}
	tok, err := a.IssueToken(core.TokenRequest{Requester: "r", Subject: "alice", Host: "webpics",
		Realm: "travel", Resource: "x", Action: core.ActionRead})
	if err != nil {
		t.Fatal(err)
	}
	h := a.Handler()
	post := func(q core.BatchDecisionQuery) core.BatchDecisionResponse {
		t.Helper()
		body := q.AppendJSON(nil)
		req := httptest.NewRequest(http.MethodPost, "/v1/api/decision/batch", bytes.NewReader(body))
		httpsig.SignBody(req, pr.PairingID, pr.Secret, body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var resp core.BatchDecisionResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for round := 0; round < 20; round++ {
		post(core.BatchDecisionQuery{PairingID: pr.PairingID, Host: "webpics", Items: []core.BatchDecisionItem{
			{Realm: "travel", Resource: "a", Action: core.ActionRead, Token: "someone-elses-token"},
		}})
		resp := post(core.BatchDecisionQuery{PairingID: pr.PairingID, Host: "webpics", Token: tok.Token, Items: []core.BatchDecisionItem{
			{Realm: "travel", Resource: "b", Action: core.ActionRead},
		}})
		if r := resp.Results[0]; !r.Permit() || r.TokenProblem {
			t.Fatalf("round %d: item decided %+v, want a permit under the batch token", round, r)
		}
	}
}

// TestDecisionResponseWireBytes: the decision routes write the bytes
// json.Encoder wrote before the codec replaced it, trailing newline
// included.
func TestDecisionResponseWireBytes(t *testing.T) {
	for _, e := range []interface{ AppendJSON([]byte) []byte }{
		&core.DecisionResponse{Decision: "deny", Reason: "token invalid: <expired> &  ", TokenProblem: true},
		&core.BatchDecisionResponse{Results: []core.BatchDecisionResult{
			{DecisionResponse: core.DecisionResponse{Decision: "permit", CacheTTLSeconds: 60, Reason: "rule 0 permits read (deny-overrides)"}},
			{DecisionResponse: core.DecisionResponse{Decision: "deny"}, Error: "core: unknown realm"},
		}},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(e); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		writeDecision(rec, e)
		got, _ := io.ReadAll(rec.Body)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("wrote %q, json.Encoder %q", got, want.Bytes())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q", ct)
		}
	}
}
