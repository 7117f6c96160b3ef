package policy

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"umac/internal/core"
)

// Differential property test for the compiled decision path: for randomly
// generated policies, groups and requests, EvaluateCompiled must produce
// byte-for-byte the same Result as Evaluate — decision, policy ID, reason
// string (rule indices included), obligations and cache TTL. The
// generator also recompiles and mutates policies mid-stream, mimicking the
// AM index's invalidate-and-rebuild cycle, so staleness bugs in the
// compile step itself would surface as divergence.

// diffBase is the fixed evaluation instant; every generated time window is
// placed relative to it so runs are deterministic per seed.
var diffBase = time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)

var diffActions = []core.Action{
	core.ActionRead, core.ActionWrite, core.ActionDelete, core.ActionList, core.ActionShare,
}

var (
	diffUsers      = []core.UserID{"alice", "bob", "chris", "dave", "erin", "frank"}
	diffRequesters = []core.RequesterID{"browser", "gallery", "printer", "feed"}
	diffGroups     = []string{"friends", "family", "work", "book-club"}
	diffClaims     = []string{"paid", "age", "tos"}
)

type diffGen struct {
	rng *rand.Rand
}

func pick[T any](g *diffGen, s []T) T { return s[g.rng.Intn(len(s))] }

func (g *diffGen) subject() Subject {
	switch g.rng.Intn(5) {
	case 0:
		return Subject{Type: SubjectEveryone}
	case 1:
		return Subject{Type: SubjectOwner}
	case 2:
		return Subject{Type: SubjectUser, Name: string(pick(g, diffUsers))}
	case 3:
		return Subject{Type: SubjectGroup, Name: pick(g, diffGroups)}
	default:
		return Subject{Type: SubjectRequester, Name: string(pick(g, diffRequesters))}
	}
}

func (g *diffGen) condition() Condition {
	switch g.rng.Intn(3) {
	case 0:
		// Window around (or deliberately missing) the evaluation instant.
		off := time.Duration(g.rng.Intn(120)-60) * time.Minute
		return Condition{
			Type:      CondTimeWindow,
			NotBefore: diffBase.Add(off - 30*time.Minute),
			NotAfter:  diffBase.Add(off + 30*time.Minute),
		}
	case 1:
		c := Condition{Type: CondRequireClaim, Claim: pick(g, diffClaims)}
		if g.rng.Intn(2) == 0 {
			c.Value = "yes"
		}
		return c
	default:
		return Condition{Type: CondRequireConsent}
	}
}

func (g *diffGen) rule() Rule {
	r := Rule{Effect: EffectPermit}
	if g.rng.Intn(3) == 0 {
		r.Effect = EffectDeny
	}
	for n := 1 + g.rng.Intn(3); n > 0; n-- {
		r.Subjects = append(r.Subjects, g.subject())
	}
	// ~1/3 wildcard (all actions), otherwise 1-3 explicit actions.
	if g.rng.Intn(3) != 0 {
		for n := 1 + g.rng.Intn(3); n > 0; n-- {
			r.Actions = append(r.Actions, pick(g, diffActions))
		}
	}
	if g.rng.Intn(5) < 2 {
		for n := 1 + g.rng.Intn(2); n > 0; n-- {
			r.Conditions = append(r.Conditions, g.condition())
		}
	}
	return r
}

func (g *diffGen) policy(id string, owner core.UserID, kind Kind) *Policy {
	p := &Policy{
		ID:    core.PolicyID(id),
		Owner: owner,
		Name:  id,
		Kind:  kind,
	}
	switch g.rng.Intn(4) {
	case 0:
		p.Combining = CombinePermitOverrides
	case 1:
		p.Combining = CombineFirstApplicable
	case 2:
		p.Combining = CombineDenyOverrides
		// case 3: leave empty (implicit deny-overrides)
	}
	if g.rng.Intn(4) == 0 {
		p.CacheTTLSeconds = g.rng.Intn(600) - 120
	}
	for n := 1 + g.rng.Intn(8); n > 0; n-- {
		p.Rules = append(p.Rules, g.rule())
	}
	return p
}

func (g *diffGen) request(owner core.UserID) Request {
	req := Request{
		Requester: pick(g, diffRequesters),
		Action:    pick(g, diffActions),
		Realm:     "travel",
		Resource:  core.ResourceRef{Host: "webpics", Resource: "photo-1", Realm: "travel"},
		Owner:     owner,
		Time:      diffBase,
	}
	if g.rng.Intn(5) != 0 {
		req.Subject = pick(g, diffUsers)
	}
	if g.rng.Intn(2) == 0 {
		req.ConsentGranted = true
	}
	if n := g.rng.Intn(3); n > 0 {
		req.Claims = map[string]string{}
		for ; n > 0; n-- {
			val := "yes"
			if g.rng.Intn(3) == 0 {
				val = "no"
			}
			req.Claims[pick(g, diffClaims)] = val
		}
	}
	return req
}

// mutate returns a structurally edited copy of p — the "user edited the
// policy, index rebuilds" event.
func (g *diffGen) mutate(p *Policy) *Policy {
	cp := *p
	cp.Rules = append([]Rule(nil), p.Rules...)
	switch g.rng.Intn(3) {
	case 0:
		cp.Rules = append(cp.Rules, g.rule())
	case 1:
		if len(cp.Rules) > 1 {
			cp.Rules = cp.Rules[:len(cp.Rules)-1]
		} else {
			cp.Rules[0] = g.rule()
		}
	default:
		cp.Rules[g.rng.Intn(len(cp.Rules))] = g.rule()
	}
	return &cp
}

func TestDifferentialCompiledVsScan(t *testing.T) {
	const queriesPerSeed = 4000
	for _, seed := range []int64{1, 7, 20260807} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := &diffGen{rng: rand.New(rand.NewSource(seed))}
			dir := &Directory{}
			for _, owner := range diffUsers {
				for _, grp := range diffGroups {
					for _, u := range diffUsers {
						if g.rng.Intn(3) == 0 {
							dir.Add(owner, grp, u)
						}
					}
				}
			}
			e := NewEngine(dir)

			owner := pick(g, diffUsers)
			general := g.policy("gen", owner, KindGeneral)
			specific := g.policy("spec", owner, KindSpecific)
			cgen, cspec := Compile(general), Compile(specific)

			for q := 0; q < queriesPerSeed; q++ {
				// Random invalidation/rebuild interleavings: mutate a policy
				// (recompiling, as the AM index does on invalidation), drop a
				// policy to nil, or resurrect one; occasionally churn group
				// membership, which must flow through live on BOTH paths.
				switch g.rng.Intn(20) {
				case 0:
					if general == nil {
						general = g.policy("gen", owner, KindGeneral)
					} else {
						general = g.mutate(general)
					}
					cgen = Compile(general)
				case 1:
					if specific == nil {
						specific = g.policy("spec", owner, KindSpecific)
					} else {
						specific = g.mutate(specific)
					}
					cspec = Compile(specific)
				case 2:
					specific = nil
					cspec = nil
				case 3:
					specific = g.policy("spec", owner, KindSpecific)
					cspec = Compile(specific)
				case 4:
					general = nil
					cgen = nil
				case 5:
					general = g.policy("gen", owner, KindGeneral)
					cgen = Compile(general)
				case 6:
					u, grp := pick(g, diffUsers), pick(g, diffGroups)
					if g.rng.Intn(2) == 0 {
						dir.Add(owner, grp, u)
					} else {
						dir.Remove(owner, grp, u)
					}
				}

				req := g.request(owner)
				scan := e.Evaluate(req, general, specific)
				compiled := e.EvaluateCompiled(req, cgen, cspec)
				if !reflect.DeepEqual(scan, compiled) {
					t.Fatalf("divergence at query %d:\n  request:  %+v\n  general:  %+v\n  specific: %+v\n  scan:     %+v\n  compiled: %+v",
						q, req, general, specific, scan, compiled)
				}
			}
		})
	}
}

// TestCompiledCandidatesCoverExactly pins the index structure itself: for
// every action, the candidate set is precisely the rules whose coversAction
// reports true, in original order.
func TestCompiledCandidatesCoverExactly(t *testing.T) {
	g := &diffGen{rng: rand.New(rand.NewSource(42))}
	for trial := 0; trial < 200; trial++ {
		p := g.policy(fmt.Sprintf("p%d", trial), "bob", KindGeneral)
		c := Compile(p)
		for _, a := range diffActions {
			var want []int
			for i := range p.Rules {
				if p.Rules[i].coversAction(a) {
					want = append(want, i)
				}
			}
			got := c.candidates(a).rules
			if len(got) != len(want) {
				t.Fatalf("trial %d action %s: candidates %v want %v", trial, a, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d action %s: candidates %v want %v", trial, a, got, want)
				}
			}
		}
	}
}

func TestCompileNil(t *testing.T) {
	if Compile(nil) != nil {
		t.Fatal("Compile(nil) != nil")
	}
}
