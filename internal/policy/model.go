// Package policy implements the access-control policy model and evaluation
// engine of the Authorization Manager, following Section VI of the paper:
//
//   - users compose general policies that apply to a group of resources
//     (a realm) and specific policies that apply to individual resources;
//   - evaluation checks the general policy first, a general deny is final,
//     and a general permit is refined by the specific policy;
//   - decisions are exactly "permit" or "deny".
//
// Beyond identities and rights, rules support the paper's Section V.D
// extensions as conditions: time windows, required claims (terms such as a
// payment confirmation) and real-time user consent.
package policy

import (
	"encoding/xml"
	"fmt"
	"strings"
	"time"

	"umac/internal/core"
)

// Kind distinguishes the two policy classes of the paper's engine.
type Kind int

// Policy kinds.
const (
	// KindGeneral policies protect a whole realm (group of resources).
	KindGeneral Kind = iota + 1
	// KindSpecific policies refine protection for individual resources.
	KindSpecific
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindGeneral:
		return "general"
	case KindSpecific:
		return "specific"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// MarshalText encodes the kind for JSON/XML.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText decodes the kind from JSON/XML.
func (k *Kind) UnmarshalText(b []byte) error {
	switch string(b) {
	case "general":
		*k = KindGeneral
	case "specific":
		*k = KindSpecific
	default:
		return fmt.Errorf("policy: unknown kind %q", b)
	}
	return nil
}

// Effect is a rule outcome.
type Effect int

// Effects.
const (
	EffectPermit Effect = iota + 1
	EffectDeny
)

// String implements fmt.Stringer.
func (e Effect) String() string {
	switch e {
	case EffectPermit:
		return "permit"
	case EffectDeny:
		return "deny"
	default:
		return fmt.Sprintf("effect(%d)", int(e))
	}
}

// decision is the engine outcome of a rule with this effect winning.
func (e Effect) decision() core.Decision {
	if e == EffectPermit {
		return core.DecisionPermit
	}
	return core.DecisionDeny
}

// MarshalText encodes the effect for JSON/XML.
func (e Effect) MarshalText() ([]byte, error) { return []byte(e.String()), nil }

// UnmarshalText decodes the effect from JSON/XML.
func (e *Effect) UnmarshalText(b []byte) error {
	switch string(b) {
	case "permit":
		*e = EffectPermit
	case "deny":
		*e = EffectDeny
	default:
		return fmt.Errorf("policy: unknown effect %q", b)
	}
	return nil
}

// Combining selects how a policy's rules combine into one outcome —
// the rule-combining-algorithm dimension of XACML, which the paper plans to
// evaluate in Section VII ("we aim to test applicability of XACML").
type Combining string

// Combining algorithms.
const (
	// CombineDenyOverrides (default): any applicable deny wins, otherwise
	// any satisfied permit wins, otherwise the policy is silent.
	CombineDenyOverrides Combining = "deny-overrides"
	// CombinePermitOverrides: any satisfied permit wins, otherwise any
	// applicable deny wins, otherwise silent.
	CombinePermitOverrides Combining = "permit-overrides"
	// CombineFirstApplicable: rules are evaluated in order; the first rule
	// whose subjects, actions and conditions all apply decides.
	CombineFirstApplicable Combining = "first-applicable"
)

// Policy is a named set of rules owned by a user. Policies are reusable:
// the same policy may be linked to many realms and resources across many
// Hosts (requirement R2).
type Policy struct {
	XMLName xml.Name      `json:"-"          xml:"policy"`
	ID      core.PolicyID `json:"id"         xml:"id,attr"`
	Owner   core.UserID   `json:"owner"      xml:"owner,attr"`
	Name    string        `json:"name"       xml:"name,attr"`
	Kind    Kind          `json:"kind"       xml:"kind,attr"`
	Rules   []Rule        `json:"rules"      xml:"rule"`
	// Combining selects the rule-combining algorithm; empty means
	// CombineDenyOverrides.
	Combining Combining `json:"combining,omitempty" xml:"combining,attr,omitempty"`
	// Description is free-form documentation shown in the AM's policy UI.
	Description string `json:"description,omitempty" xml:"description,omitempty"`
	// CacheTTLSeconds controls how long Hosts may cache decisions derived
	// from this policy (Section V.B.5, user-controlled caching). Zero means
	// the AM default; negative forbids caching.
	CacheTTLSeconds int `json:"cache_ttl_seconds,omitempty" xml:"cache-ttl,attr,omitempty"`
}

// combining returns the effective combining algorithm.
func (p Policy) combining() Combining {
	if p.Combining == "" {
		return CombineDenyOverrides
	}
	return p.Combining
}

// Rule grants or denies a set of actions to a set of subjects, optionally
// under conditions.
type Rule struct {
	Effect   Effect    `json:"effect"   xml:"effect,attr"`
	Subjects []Subject `json:"subjects" xml:"subject"`
	// Actions the rule covers; empty means all actions.
	Actions    []core.Action `json:"actions,omitempty"    xml:"action,omitempty"`
	Conditions []Condition   `json:"conditions,omitempty" xml:"condition,omitempty"`
}

// coversAction reports whether the rule applies to the requested action.
func (r Rule) coversAction(a core.Action) bool {
	if len(r.Actions) == 0 {
		return true
	}
	for _, act := range r.Actions {
		if act == a {
			return true
		}
	}
	return false
}

// SubjectType classifies who a rule matches.
type SubjectType int

// Subject types.
const (
	// SubjectUser matches a single user identity.
	SubjectUser SubjectType = iota + 1
	// SubjectGroup matches members of an owner-defined group — the
	// capability the paper complains is missing from Web apps (S1).
	SubjectGroup
	// SubjectEveryone matches any subject, authenticated or not.
	SubjectEveryone
	// SubjectRequester matches a Requester application identity
	// (e.g. "the gallery service"), independent of the human subject.
	SubjectRequester
	// SubjectOwner matches the policy owner themselves.
	SubjectOwner
)

// Subject is one entry in a rule's subject list. Its textual form is
// "user:alice", "group:friends", "requester:gallery", "everyone", "owner".
type Subject struct {
	Type SubjectType
	Name string
}

// String renders the canonical textual form.
func (s Subject) String() string {
	switch s.Type {
	case SubjectUser:
		return "user:" + s.Name
	case SubjectGroup:
		return "group:" + s.Name
	case SubjectRequester:
		return "requester:" + s.Name
	case SubjectEveryone:
		return "everyone"
	case SubjectOwner:
		return "owner"
	default:
		return fmt.Sprintf("subject(%d):%s", int(s.Type), s.Name)
	}
}

// ParseSubject parses the textual form produced by String.
func ParseSubject(s string) (Subject, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "everyone":
		return Subject{Type: SubjectEveryone}, nil
	case s == "owner":
		return Subject{Type: SubjectOwner}, nil
	case strings.HasPrefix(s, "user:"):
		return subjectWithName(SubjectUser, strings.TrimPrefix(s, "user:"))
	case strings.HasPrefix(s, "group:"):
		return subjectWithName(SubjectGroup, strings.TrimPrefix(s, "group:"))
	case strings.HasPrefix(s, "requester:"):
		return subjectWithName(SubjectRequester, strings.TrimPrefix(s, "requester:"))
	default:
		return Subject{}, fmt.Errorf("policy: cannot parse subject %q", s)
	}
}

func subjectWithName(t SubjectType, name string) (Subject, error) {
	if name == "" {
		return Subject{}, fmt.Errorf("policy: subject type %d requires a name", t)
	}
	return Subject{Type: t, Name: name}, nil
}

// MarshalText encodes the subject in its textual form for JSON/XML.
func (s Subject) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText decodes the textual form.
func (s *Subject) UnmarshalText(b []byte) error {
	parsed, err := ParseSubject(string(b))
	if err != nil {
		return err
	}
	*s = parsed
	return nil
}

// ConditionType classifies rule conditions.
type ConditionType string

// Condition types.
const (
	// CondTimeWindow restricts a rule to [NotBefore, NotAfter].
	CondTimeWindow ConditionType = "time-window"
	// CondRequireClaim requires the Requester to present a claim (a "term"
	// in Section V.D / VII, e.g. a payment confirmation).
	CondRequireClaim ConditionType = "require-claim"
	// CondRequireConsent requires real-time user consent before the AM may
	// issue a token (Section V.D).
	CondRequireConsent ConditionType = "require-consent"
)

// Condition is a guard on a rule. Exactly the fields relevant to its Type
// are set.
type Condition struct {
	Type ConditionType `json:"type" xml:"type,attr"`
	// Time window bounds (CondTimeWindow). Zero values mean unbounded.
	NotBefore time.Time `json:"not_before,omitempty" xml:"not-before,omitempty"`
	NotAfter  time.Time `json:"not_after,omitempty"  xml:"not-after,omitempty"`
	// Claim requirement (CondRequireClaim).
	Claim string `json:"claim,omitempty" xml:"claim,omitempty"`
	// Value, when non-empty, requires the claim to carry this exact value;
	// empty accepts any presented value.
	Value string `json:"value,omitempty" xml:"value,omitempty"`
}

// Validate checks structural well-formedness of the policy.
func (p Policy) Validate() error {
	if p.ID == "" {
		return fmt.Errorf("policy: missing id")
	}
	if p.Owner == "" {
		return fmt.Errorf("policy %s: missing owner", p.ID)
	}
	if p.Kind != KindGeneral && p.Kind != KindSpecific {
		return fmt.Errorf("policy %s: invalid kind %d", p.ID, p.Kind)
	}
	switch p.Combining {
	case "", CombineDenyOverrides, CombinePermitOverrides, CombineFirstApplicable:
	default:
		return fmt.Errorf("policy %s: unknown combining algorithm %q", p.ID, p.Combining)
	}
	if len(p.Rules) == 0 {
		return fmt.Errorf("policy %s: no rules", p.ID)
	}
	for i, r := range p.Rules {
		if r.Effect != EffectPermit && r.Effect != EffectDeny {
			return fmt.Errorf("policy %s rule %d: invalid effect", p.ID, i)
		}
		if len(r.Subjects) == 0 {
			return fmt.Errorf("policy %s rule %d: no subjects", p.ID, i)
		}
		for _, a := range r.Actions {
			if !core.ValidAction(a) {
				return fmt.Errorf("policy %s rule %d: invalid action %q", p.ID, i, a)
			}
		}
		for j, c := range r.Conditions {
			switch c.Type {
			case CondTimeWindow:
				if c.NotBefore.IsZero() && c.NotAfter.IsZero() {
					return fmt.Errorf("policy %s rule %d condition %d: empty time window", p.ID, i, j)
				}
				if !c.NotBefore.IsZero() && !c.NotAfter.IsZero() && c.NotAfter.Before(c.NotBefore) {
					return fmt.Errorf("policy %s rule %d condition %d: window ends before it starts", p.ID, i, j)
				}
			case CondRequireClaim:
				if c.Claim == "" {
					return fmt.Errorf("policy %s rule %d condition %d: require-claim without claim name", p.ID, i, j)
				}
			case CondRequireConsent:
				// no parameters
			default:
				return fmt.Errorf("policy %s rule %d condition %d: unknown type %q", p.ID, i, j, c.Type)
			}
		}
	}
	return nil
}
