package policy

import (
	"strconv"

	"umac/internal/core"
)

// This file is the compiled form of a policy: a per-action candidate-rule
// index built once per policy version, so the decision path walks only the
// rules that can possibly cover the requested action instead of scanning
// the whole rule list per request. Compilation changes nothing about the
// outcome — both the scan path (Evaluate) and the compiled path
// (EvaluateCompiled) funnel into the same evaluation core via polRef, so
// the two cannot drift apart semantically. Candidate lists store ORIGINAL
// rule indices in rule order: audit Reason strings embed the rule index
// ("rule 3 permits read ..."), and combining algorithms are order-
// sensitive, so the compiled path must see rules exactly as the scan path
// does.
//
// Subjects are deliberately NOT compiled: group membership is resolved
// live through the GroupResolver at evaluation time, so group edits never
// invalidate a compiled policy — only the policy's own content does.

// CompiledPolicy is a policy plus its action index. Build with Compile;
// the policy value must not be mutated afterwards (compile a new one
// instead — the AM's index does exactly that on invalidation).
type CompiledPolicy struct {
	p *Policy
	// byAction maps every action named explicitly by any rule to the
	// ordered indices of all rules covering it (explicit or wildcard),
	// with each rule's decision Reason for that action.
	byAction map[core.Action]candidateSet
	// wildcard is the ordered indices of rules with an empty action list;
	// it is the candidate set for actions no rule names explicitly.
	// Always non-nil, so candidates never returns the scan-all sentinel.
	wildcard []int
}

// candidateSet is one action's candidate rules and, position for
// position, the Reason each gives when it decides: built once here
// instead of once per decision.
type candidateSet struct {
	rules   []int
	reasons []string
}

// Compile builds the action index for p. Compile(nil) returns nil, so
// callers can pass through "no policy linked" unconditionally.
func Compile(p *Policy) *CompiledPolicy {
	if p == nil {
		return nil
	}
	c := &CompiledPolicy{
		p:        p,
		byAction: make(map[core.Action]candidateSet),
		wildcard: make([]int, 0, len(p.Rules)),
	}
	for i := range p.Rules {
		if len(p.Rules[i].Actions) == 0 {
			c.wildcard = append(c.wildcard, i)
		}
		for _, a := range p.Rules[i].Actions {
			c.byAction[a] = candidateSet{} // mark; filled below in rule order
		}
	}
	for a := range c.byAction {
		set := candidateSet{rules: make([]int, 0, len(p.Rules))}
		for i := range p.Rules {
			if p.Rules[i].coversAction(a) {
				set.rules = append(set.rules, i)
				set.reasons = append(set.reasons, ruleReason(p, i, a))
			}
		}
		c.byAction[a] = set
	}
	return c
}

// Source returns the policy this index was compiled from.
func (c *CompiledPolicy) Source() *Policy { return c.p }

// candidates returns the ordered rule indices that cover a. The result is
// never nil (nil is polRef's scan-all sentinel); it is empty when no rule
// covers the action.
func (c *CompiledPolicy) candidates(a core.Action) candidateSet {
	if set, ok := c.byAction[a]; ok {
		return set
	}
	return candidateSet{rules: c.wildcard}
}

// polRef is the evaluation core's view of one policy: the policy itself
// plus an optional pre-filtered candidate set. cand == nil means "scan
// every rule and check coversAction per rule" (the uncompiled path);
// non-nil cand (possibly empty) means the indices already cover the
// request's action, so the per-rule action check is skipped.
type polRef struct {
	p    *Policy
	cand []int
	// reasons[k] is cand[k]'s Reason when compiled for the action; nil
	// means build it at decision time.
	reasons []string
}

// scanRef wraps a plain policy for the scan path; nil stays "no policy".
func scanRef(p *Policy) polRef { return polRef{p: p} }

// compiledRef selects the action's candidate set; nil stays "no policy".
func compiledRef(c *CompiledPolicy, a core.Action) polRef {
	if c == nil {
		return polRef{}
	}
	set := c.candidates(a)
	return polRef{p: c.p, cand: set.rules, reasons: set.reasons}
}

// ruleCount is the number of candidate rules this evaluation will visit.
func (r polRef) ruleCount() int {
	if r.cand != nil {
		return len(r.cand)
	}
	return len(r.p.Rules)
}

// ruleAt maps the visit position to the original rule index and the rule.
func (r polRef) ruleAt(k int) (int, *Rule) {
	i := k
	if r.cand != nil {
		i = r.cand[k]
	}
	return i, &r.p.Rules[i]
}

// reason is the Reason the rule at visit position k gives when it decides
// a request for action a.
func (r polRef) reason(k int, a core.Action) string {
	if r.reasons != nil {
		return r.reasons[k]
	}
	i, _ := r.ruleAt(k)
	return ruleReason(r.p, i, a)
}

// ruleReason is the audit Reason of rule i of p deciding a request for a,
// "rule 3 permits read (deny-overrides)". Under the overrides algorithms a
// rule that is not a deny counts as a permit; first-applicable names the
// rule's own effect.
func ruleReason(p *Policy, i int, a core.Action) string {
	effect := p.Rules[i].Effect
	if c := p.combining(); c != CombineFirstApplicable && effect != EffectDeny {
		effect = EffectPermit
	}
	b := make([]byte, 0, 48+len(a))
	b = append(b, "rule "...)
	b = strconv.AppendInt(b, int64(i), 10)
	b = append(b, ' ')
	b = append(b, effect.String()...)
	b = append(b, "s "...)
	b = append(b, a...)
	b = append(b, " ("...)
	b = append(b, p.combining()...)
	b = append(b, ')')
	return string(b)
}

// covers reports whether the rule applies to the action; pre-filtered
// candidate sets have already established this at compile time.
func (r polRef) covers(rule *Rule, a core.Action) bool {
	return r.cand != nil || rule.coversAction(a)
}

// EvaluateCompiled is Evaluate over compiled policies: identical two-stage
// semantics and identical results (including Reason strings), but each
// stage visits only the requested action's candidate rules.
func (e *Engine) EvaluateCompiled(req Request, general, specific *CompiledPolicy) Result {
	return e.evaluate(req, compiledRef(general, req.Action), compiledRef(specific, req.Action))
}
