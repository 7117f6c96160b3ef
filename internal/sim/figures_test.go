package sim

import (
	"strconv"
	"strings"
	"testing"

	"umac/internal/core"
	"umac/internal/policy"
	"umac/internal/requester"
)

// These tests read the exact message sequences of the paper's figures off
// the wire log: every HTTP request the world's AM and Hosts received, in
// arrival order, with its status — the message-level fidelity claims
// behind experiments E1–E7.

// figureSteps maps each route the figures travel to its step in the
// paper; the leading digit is the Fig. 2 phase. A route is
// "server METHOD path" with every Host named "host" and resource paths
// collapsed to /res/*.
var figureSteps = map[string]string{
	"host GET /umac/pair":           "1 Fig. 3: the User names their AM at the Host and is redirected to it",
	"am GET /v1/pair/confirm":       "1 Fig. 3: the User confirms the delegation at the AM",
	"host GET /umac/pair/callback":  "1 Fig. 3: the AM redirects the User back to the Host with a code",
	"am POST /v1/api/pair/exchange": "1 Fig. 3: the Host exchanges the code for the channel secret",
	"am POST /v1/api/protect":       "2 Fig. 4: the Host registers the realm at the AM",
	"am POST /v1/policies":          "2 Fig. 4: the User composes a policy at the AM",
	"am POST /v1/links/general":     "2 Fig. 4: the User links the policy to the realm",
	"am GET /v1/compose":            "2 Fig. 4: the Host's share control lands the User on the AM",
	"am POST /v1/token":             "3 Fig. 5: the Requester obtains an authorization token",
	"host GET /res/*":               "4 Fig. 6: the Requester accesses the resource",
	"am POST /v1/api/decision":      "5 Fig. 6: the Host queries the AM for a decision",
}

// route names an exchange as figureSteps keys it.
func route(e Exchange) string {
	server, path := e.Server, e.Path
	if server != AMServerName {
		server = "host"
	}
	if strings.HasPrefix(path, "/res/") {
		path = "/res/*"
	}
	return server + " " + e.Method + " " + path
}

// wireSteps renders the wire log as "route status" lines, failing the test
// on a route no figure step names.
func wireSteps(t *testing.T, w *World) []string {
	t.Helper()
	var out []string
	for _, e := range w.Wire() {
		if _, ok := figureSteps[route(e)]; !ok {
			t.Fatalf("route %q (%v) is no step of the paper's figures", route(e), e)
		}
		out = append(out, route(e)+" "+strconv.Itoa(e.Status))
	}
	return out
}

// expectSteps compares the wire log with want, listing each step's figure
// on a mismatch.
func expectSteps(t *testing.T, w *World, what string, want ...string) {
	t.Helper()
	got := wireSteps(t, w)
	if strings.Join(got, "\n") == strings.Join(want, "\n") {
		return
	}
	var b strings.Builder
	for _, s := range got {
		b.WriteString("\n  " + s + "\t" + figureSteps[s[:strings.LastIndexByte(s, ' ')]])
	}
	t.Fatalf("%s: wire log =%s\nwant\n  %s", what, b.String(), strings.Join(want, "\n  "))
}

// countRoute is how many exchanges in the wire log travel route.
func countRoute(w *World, r string) int {
	n := 0
	for _, e := range w.Wire() {
		if route(e) == r {
			n++
		}
	}
	return n
}

func TestFig3TraceSequence(t *testing.T) {
	// Fig. 3: the Host redirects the User to the AM, the User confirms,
	// the AM redirects back with a one-time code, and the Host exchanges
	// it for the channel secret while the callback is still open.
	w := NewWorld()
	t.Cleanup(w.Close)
	h := w.AddHost("webpics")
	bob := NewUserAgent("bob")
	if err := bob.PairHost(h, w.AMServer.URL); err != nil {
		t.Fatal(err)
	}
	expectSteps(t, w, "Fig. 3",
		"host GET /umac/pair 302",
		"am GET /v1/pair/confirm 302",
		"host GET /umac/pair/callback 200",
		"am POST /v1/api/pair/exchange 200",
	)
}

func TestFig4TraceSequence(t *testing.T) {
	// Fig. 4: the Host registers the realm with the AM; the User composes
	// and links a policy at the AM (the "share" flow lands on the AM's
	// compose page).
	w := NewWorld()
	t.Cleanup(w.Close)
	h := w.AddHost("webpics")
	bob := NewUserAgent("bob")
	if err := bob.PairHost(h, w.AMServer.URL); err != nil {
		t.Fatal(err)
	}
	w.ResetWire()
	if err := h.Enforcer.Protect("bob", "travel", []core.ResourceID{"p1"}, ""); err != nil {
		t.Fatal(err)
	}
	api := w.Client("bob")
	p, err := api.CreatePolicy(policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{Effect: policy.EffectPermit, Subjects: []policy.Subject{{Type: policy.SubjectEveryone}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := api.LinkGeneral("bob", "travel", p.ID); err != nil {
		t.Fatal(err)
	}
	composeURL, err := h.Enforcer.ComposeURL("bob", "travel")
	if err != nil {
		t.Fatal(err)
	}
	if err := bob.Visit(composeURL); err != nil {
		t.Fatal(err)
	}
	expectSteps(t, w, "Fig. 4",
		"am POST /v1/api/protect 200",
		"am POST /v1/policies 201",
		"am POST /v1/links/general 200",
		"am GET /v1/compose 200",
	)
}

func TestFig6SubsequentAccessPhase(t *testing.T) {
	// §V.B.6: once the Host holds a decision, a subsequent access is one
	// request to the Host, answered from its cache, with no AM exchange.
	w, h := setupWorld(t)
	alice := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
	if _, err := alice.Fetch(h.ResourceURL("photo-1"), core.ActionRead); err != nil {
		t.Fatal(err)
	}
	w.ResetWire()
	if _, err := alice.Fetch(h.ResourceURL("photo-1"), core.ActionRead); err != nil {
		t.Fatal(err)
	}
	expectSteps(t, w, "subsequent access", "host GET /res/* 200")
}
