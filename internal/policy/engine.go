package policy

import (
	"fmt"
	"time"

	"umac/internal/core"
)

// Request is an access request as seen by the engine: who wants to do what
// to which resource, plus whatever claims and consent state accompany it.
type Request struct {
	// Subject is the authenticated human identity, empty for anonymous.
	Subject core.UserID
	// Requester is the application identity issuing the request.
	Requester core.RequesterID
	Action    core.Action
	Resource  core.ResourceRef
	Realm     core.RealmID
	// Owner of the resource; used to resolve "owner" subjects and group
	// membership (groups are per-owner).
	Owner core.UserID
	// Claims presented by the Requester (terms extension).
	Claims map[string]string
	// ConsentGranted is set by the AM after the user resolves a real-time
	// consent ticket; it satisfies CondRequireConsent conditions.
	ConsentGranted bool
	// Time of evaluation; zero means time.Now().
	Time time.Time
}

func (r Request) at() time.Time {
	if r.Time.IsZero() {
		return time.Now()
	}
	return r.Time
}

// GroupResolver answers group-membership questions. Groups are owned by the
// policy owner (each user curates their own "friends", "family", ... sets).
type GroupResolver interface {
	// Member reports whether user belongs to the owner's named group.
	Member(owner core.UserID, group string, user core.UserID) bool
}

// Result is the engine's outcome for one evaluation.
type Result struct {
	Decision core.Decision
	// Policy that produced the final decision (empty when no applicable
	// policy was found).
	Policy core.PolicyID
	// Reason explains the outcome for auditing.
	Reason string
	// RequireConsent is set when a matching permit rule is guarded by a
	// real-time consent condition that has not been granted yet.
	RequireConsent bool
	// RequiredTerms lists claim names a matching permit rule demands but
	// the request did not present.
	RequiredTerms []string
	// CacheTTLSeconds is the caching directive derived from the deciding
	// policy (0 = engine default, negative = never cache).
	CacheTTLSeconds int
}

// Engine evaluates requests against the two-level policy structure of the
// paper's prototype. The zero value is not useful; construct with NewEngine.
type Engine struct {
	groups GroupResolver
}

// NewEngine returns an engine using the given group resolver. A nil
// resolver treats every group as empty.
func NewEngine(groups GroupResolver) *Engine {
	return &Engine{groups: groups}
}

// Evaluate implements the exact two-stage semantics of Section VI:
//
//	"First, the engine evaluates the access request against the general
//	policy as defined by a user for the group of resources to which a
//	particular resource belongs. If the decision derived from the general
//	policy is 'deny' then no other policy is processed. In case the
//	evaluation produces a 'permit' decision then the engine checks whether
//	a specific policy is associated with a resource. It then evaluates the
//	access request against this policy and produces a final decision."
//
// general may be nil when no general policy is linked to the realm; the
// result is then DecisionUnknown, which the (deny-biased) AM maps to deny.
// specific may be nil when the resource carries no specific policy.
func (e *Engine) Evaluate(req Request, general, specific *Policy) Result {
	return e.evaluate(req, scanRef(general), scanRef(specific))
}

// evaluate is the two-stage core shared by the scan path (Evaluate) and
// the compiled path (EvaluateCompiled); the polRef only changes which
// candidate rules each stage visits, never the outcome.
func (e *Engine) evaluate(req Request, general, specific polRef) Result {
	if general.p == nil {
		return Result{
			Decision: core.DecisionUnknown,
			Reason:   "no general policy applies to realm " + string(req.Realm),
		}
	}
	gen := e.evalPolicy(req, general)
	if gen.Decision != core.DecisionPermit {
		// Deny (or unknown within the general policy) is final: no other
		// policy is processed.
		if gen.Decision == core.DecisionUnknown {
			gen.Decision = core.DecisionDeny
			gen.Reason = "no rule in general policy matched: " + gen.Reason
		}
		gen.Policy = general.p.ID
		return gen
	}
	if specific.p == nil {
		gen.Policy = general.p.ID
		return gen
	}
	spec := e.evalPolicy(req, specific)
	spec.Policy = specific.p.ID
	if spec.Decision == core.DecisionUnknown &&
		!spec.RequireConsent && len(spec.RequiredTerms) == 0 {
		// The resource has a specific policy but it does not speak to this
		// request at all; the general permit stands. This keeps "read for
		// everyone" + "write for subset" compositions (the paper's example)
		// working: the write-only specific policy is silent about reads.
		// A specific permit withheld pending consent/terms is NOT silent —
		// its obligations block the request below.
		gen.Policy = general.p.ID
		gen.Reason = fmt.Sprintf("general permit; specific policy %s silent", specific.p.ID)
		return gen
	}
	// Obligations gathered at the general stage must survive refinement.
	spec.RequireConsent = spec.RequireConsent || gen.RequireConsent
	spec.RequiredTerms = append(spec.RequiredTerms, gen.RequiredTerms...)
	if spec.CacheTTLSeconds == 0 {
		spec.CacheTTLSeconds = gen.CacheTTLSeconds
	}
	return spec
}

// evalPolicy evaluates a single policy under its combining algorithm.
// Permit rules whose consent/terms conditions are unsatisfied never permit
// but surface obligations instead; deny rules guarded by unmet conditions
// simply do not apply.
func (e *Engine) evalPolicy(req Request, ref polRef) Result {
	switch ref.p.combining() {
	case CombineFirstApplicable:
		return e.evalFirstApplicable(req, ref)
	case CombinePermitOverrides:
		return e.evalOverrides(req, ref, true)
	default:
		return e.evalOverrides(req, ref, false)
	}
}

// evalOverrides implements deny-overrides (permitWins=false) and
// permit-overrides (permitWins=true) in one pass.
func (e *Engine) evalOverrides(req Request, ref polRef, permitWins bool) Result {
	p := ref.p
	res := Result{Decision: core.DecisionUnknown, CacheTTLSeconds: p.CacheTTLSeconds}
	permitted, denied := -1, -1 // visit positions of the first satisfied permit and deny
	for k := 0; k < ref.ruleCount(); k++ {
		_, rule := ref.ruleAt(k)
		if !ref.covers(rule, req.Action) || !e.subjectsMatch(req, p.Owner, rule.Subjects) {
			continue
		}
		ok, obligations := e.conditionsMet(req, rule.Conditions)
		if rule.Effect == EffectDeny {
			if ok && denied < 0 {
				denied = k
			}
			continue
		}
		if ok {
			if permitted < 0 {
				permitted = k
			}
			continue
		}
		// The rule would permit but has outstanding obligations.
		if obligations.requireConsent {
			res.RequireConsent = true
		}
		res.RequiredTerms = append(res.RequiredTerms, obligations.missingClaims...)
	}
	winner := func(k int, effect Effect) Result {
		return Result{
			Decision:        effect.decision(),
			Reason:          ref.reason(k, req.Action),
			CacheTTLSeconds: p.CacheTTLSeconds,
		}
	}
	switch {
	case permitWins && permitted >= 0:
		return winner(permitted, EffectPermit)
	case !permitWins && denied >= 0:
		return winner(denied, EffectDeny)
	case permitted >= 0:
		return winner(permitted, EffectPermit)
	case denied >= 0:
		return winner(denied, EffectDeny)
	}
	if res.RequireConsent || len(res.RequiredTerms) > 0 {
		res.Reason = "permit withheld pending obligations"
		return res
	}
	res.Reason = "no applicable rule"
	return res
}

// evalFirstApplicable decides by the first rule whose subjects, action and
// conditions all apply; rules with unmet obligation conditions are recorded
// (so pending consent/terms surface) but do not decide.
func (e *Engine) evalFirstApplicable(req Request, ref polRef) Result {
	p := ref.p
	res := Result{Decision: core.DecisionUnknown, CacheTTLSeconds: p.CacheTTLSeconds}
	for k := 0; k < ref.ruleCount(); k++ {
		_, rule := ref.ruleAt(k)
		if !ref.covers(rule, req.Action) || !e.subjectsMatch(req, p.Owner, rule.Subjects) {
			continue
		}
		ok, obligations := e.conditionsMet(req, rule.Conditions)
		if ok {
			decision := core.DecisionDeny
			if rule.Effect == EffectPermit {
				decision = core.DecisionPermit
			}
			return Result{
				Decision:        decision,
				Reason:          ref.reason(k, req.Action),
				CacheTTLSeconds: p.CacheTTLSeconds,
			}
		}
		if rule.Effect == EffectPermit {
			if obligations.requireConsent {
				res.RequireConsent = true
			}
			res.RequiredTerms = append(res.RequiredTerms, obligations.missingClaims...)
		}
	}
	if res.RequireConsent || len(res.RequiredTerms) > 0 {
		res.Reason = "permit withheld pending obligations"
		return res
	}
	res.Reason = "no applicable rule"
	return res
}

type obligations struct {
	requireConsent bool
	missingClaims  []string
}

// conditionsMet evaluates all conditions of a rule. It returns met=true
// when every condition is satisfied. Unsatisfied consent/claim conditions
// are reported as obligations; an out-of-window time condition is a plain
// mismatch with no obligations.
func (e *Engine) conditionsMet(req Request, conds []Condition) (bool, obligations) {
	var ob obligations
	met := true
	for _, c := range conds {
		switch c.Type {
		case CondTimeWindow:
			now := req.at()
			if !c.NotBefore.IsZero() && now.Before(c.NotBefore) {
				return false, obligations{}
			}
			if !c.NotAfter.IsZero() && now.After(c.NotAfter) {
				return false, obligations{}
			}
		case CondRequireClaim:
			got, present := req.Claims[c.Claim]
			if !present || (c.Value != "" && got != c.Value) {
				met = false
				ob.missingClaims = append(ob.missingClaims, c.Claim)
			}
		case CondRequireConsent:
			if !req.ConsentGranted {
				met = false
				ob.requireConsent = true
			}
		default:
			// Unknown condition types fail closed.
			return false, obligations{}
		}
	}
	return met, ob
}

// subjectsMatch reports whether any subject entry matches the request.
func (e *Engine) subjectsMatch(req Request, owner core.UserID, subjects []Subject) bool {
	for _, s := range subjects {
		switch s.Type {
		case SubjectEveryone:
			return true
		case SubjectOwner:
			if req.Subject != "" && req.Subject == owner {
				return true
			}
		case SubjectUser:
			if req.Subject != "" && string(req.Subject) == s.Name {
				return true
			}
		case SubjectRequester:
			if req.Requester != "" && string(req.Requester) == s.Name {
				return true
			}
		case SubjectGroup:
			if e.groups != nil && req.Subject != "" &&
				e.groups.Member(owner, s.Name, req.Subject) {
				return true
			}
		}
	}
	return false
}
