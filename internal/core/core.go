// Package core defines the shared vocabulary of the user-managed access
// control (UMAC) protocol: actions, decisions, protocol phases, entity
// identifiers and the wire messages exchanged between the Authorization
// Manager (AM), Hosts and Requesters.
//
// The definitions follow Section V of Machulak & van Moorsel,
// "Architecture and Protocol for User-Controlled Access Management in
// Web 2.0 Applications" (CS-TR-1191, ICDCS 2010).
package core

import (
	"fmt"
	"strings"
)

// Action is an operation a Requester may perform on a resource.
// The paper's prototype distinguishes at least "read" and "write"
// (Section VI); the storage and gallery Hosts additionally need list and
// delete semantics.
type Action string

// Canonical actions understood by the policy engine and the prototype Hosts.
const (
	ActionRead   Action = "read"
	ActionWrite  Action = "write"
	ActionDelete Action = "delete"
	ActionList   Action = "list"
	ActionShare  Action = "share"
)

// ValidAction reports whether a is one of the canonical actions.
func ValidAction(a Action) bool {
	switch a {
	case ActionRead, ActionWrite, ActionDelete, ActionList, ActionShare:
		return true
	}
	return false
}

// Decision is the outcome of evaluating an access request against the
// applicable policies. The paper's engine produces exactly "permit" or
// "deny" (Section VI).
type Decision int

// Decision values. DecisionUnknown is the zero value and is never a valid
// final outcome; it marks "no applicable policy" inside the engine, which
// the deny-biased AM maps to DecisionDeny.
const (
	DecisionUnknown Decision = iota
	DecisionPermit
	DecisionDeny
)

// String implements fmt.Stringer using the paper's lowercase terminology.
func (d Decision) String() string {
	switch d {
	case DecisionPermit:
		return "permit"
	case DecisionDeny:
		return "deny"
	default:
		return "unknown"
	}
}

// ParseDecision converts the wire form ("permit"/"deny") back to a Decision.
func ParseDecision(s string) (Decision, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "permit":
		return DecisionPermit, nil
	case "deny":
		return DecisionDeny, nil
	default:
		return DecisionUnknown, fmt.Errorf("core: unknown decision %q", s)
	}
}

// UserID identifies a User (the resource owner, or a subject requesting
// access on behalf of a person) across all components.
type UserID string

// HostID identifies a Host application registered with an AM.
type HostID string

// RequesterID identifies a Requester application or browser agent.
type RequesterID string

// PolicyID identifies an access-control policy stored at an AM.
type PolicyID string

// RealmID identifies a group of resources protected as a unit. The paper
// uses "realm" for the scope an authorization token refers to ("a particular
// resource or a group of resources (realm)", Section V.B.3).
type RealmID string

// ResourceID identifies a single resource within a Host.
type ResourceID string

// ResourceRef names a resource globally: the Host that stores it and its
// Host-local identifier, plus the realm it belongs to (if any).
type ResourceRef struct {
	Host     HostID     `json:"host"`
	Resource ResourceID `json:"resource"`
	Realm    RealmID    `json:"realm,omitempty"`
}

// String renders the reference as host/resource.
func (r ResourceRef) String() string {
	return string(r.Host) + "/" + string(r.Resource)
}

// Valid reports whether both mandatory fields are set.
func (r ResourceRef) Valid() bool {
	return r.Host != "" && r.Resource != ""
}
