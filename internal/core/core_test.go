package core

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"
)

func TestDecisionString(t *testing.T) {
	tests := []struct {
		d    Decision
		want string
	}{
		{DecisionPermit, "permit"},
		{DecisionDeny, "deny"},
		{DecisionUnknown, "unknown"},
		{Decision(42), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.d.String(); got != tt.want {
			t.Errorf("Decision(%d).String() = %q, want %q", tt.d, got, tt.want)
		}
	}
}

func TestParseDecision(t *testing.T) {
	for _, tt := range []struct {
		in      string
		want    Decision
		wantErr bool
	}{
		{"permit", DecisionPermit, false},
		{"deny", DecisionDeny, false},
		{"PERMIT", DecisionPermit, false},
		{"  deny \n", DecisionDeny, false},
		{"", DecisionUnknown, true},
		{"maybe", DecisionUnknown, true},
	} {
		got, err := ParseDecision(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseDecision(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if got != tt.want {
			t.Errorf("ParseDecision(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestParseDecisionRoundTrip(t *testing.T) {
	for _, d := range []Decision{DecisionPermit, DecisionDeny} {
		got, err := ParseDecision(d.String())
		if err != nil {
			t.Fatalf("round trip %v: %v", d, err)
		}
		if got != d {
			t.Fatalf("round trip %v = %v", d, got)
		}
	}
}

func TestValidAction(t *testing.T) {
	for _, a := range []Action{ActionRead, ActionWrite, ActionDelete, ActionList, ActionShare} {
		if !ValidAction(a) {
			t.Errorf("ValidAction(%q) = false, want true", a)
		}
	}
	for _, a := range []Action{"", "READ", "execute", "read "} {
		if ValidAction(a) {
			t.Errorf("ValidAction(%q) = true, want false", a)
		}
	}
}

func TestResourceRef(t *testing.T) {
	r := ResourceRef{Host: "webpics", Resource: "photo-1"}
	if got := r.String(); got != "webpics/photo-1" {
		t.Errorf("String() = %q", got)
	}
	if !r.Valid() {
		t.Error("Valid() = false for complete ref")
	}
	if (ResourceRef{Host: "webpics"}).Valid() {
		t.Error("Valid() = true without resource")
	}
	if (ResourceRef{Resource: "p"}).Valid() {
		t.Error("Valid() = true without host")
	}
}

func TestPairingScopeString(t *testing.T) {
	if PairingScopeApplication.String() != "application" ||
		PairingScopeUser.String() != "user" ||
		PairingScopeResources.String() != "resources" {
		t.Error("pairing scope names wrong")
	}
	if got := PairingScope(0).String(); got != "scope(0)" {
		t.Errorf("zero scope = %q", got)
	}
}

func TestTokenResponsePending(t *testing.T) {
	if (TokenResponse{Token: "t"}).Pending() {
		t.Error("granted response reported pending")
	}
	if !(TokenResponse{PendingConsent: "tick"}).Pending() {
		t.Error("consent response not pending")
	}
	if !(TokenResponse{RequiredTerms: []string{"payment"}}).Pending() {
		t.Error("terms response not pending")
	}
	if (TokenResponse{}).Pending() {
		t.Error("empty response reported pending")
	}
}

func TestDecisionResponsePermit(t *testing.T) {
	if !(DecisionResponse{Decision: "permit"}).Permit() {
		t.Error("permit not recognized")
	}
	if (DecisionResponse{Decision: "deny"}).Permit() {
		t.Error("deny recognized as permit")
	}
}

func TestNewIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewID("x")
		if !strings.HasPrefix(id, "x-") {
			t.Fatalf("id %q missing prefix", id)
		}
		if seen[id] {
			t.Fatalf("duplicate id %q", id)
		}
		seen[id] = true
	}
}

func TestNewSecretLength(t *testing.T) {
	s := NewSecret(32)
	if len(s) < 40 { // 32 bytes base64url ≈ 43 chars
		t.Fatalf("secret too short: %d", len(s))
	}
	if s == NewSecret(32) {
		t.Fatal("two secrets identical")
	}
}

func TestMessageJSONRoundTrip(t *testing.T) {
	in := TokenRequest{
		Requester: "gallery",
		Subject:   "alice",
		Host:      "webpics",
		Realm:     "travel",
		Resource:  "photo-1",
		Action:    ActionRead,
		Claims:    map[string]string{"payment": "rcpt-1"},
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out TokenRequest
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Requester != in.Requester || out.Realm != in.Realm ||
		out.Action != in.Action || out.Claims["payment"] != "rcpt-1" {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

func TestResourceRefStringProperty(t *testing.T) {
	// Property: String always contains exactly the host and resource joined
	// by a slash, for any inputs.
	f := func(h, r string) bool {
		ref := ResourceRef{Host: HostID(h), Resource: ResourceID(r)}
		return ref.String() == h+"/"+r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
