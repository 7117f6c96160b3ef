package am

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"umac/internal/audit"
	"umac/internal/core"
	"umac/internal/policy"
	"umac/internal/store"
)

// This file is the policy administration point (PAP): policy CRUD,
// realm/resource linking, groups and custodians. Authorization to manage a
// user's policies is checked here via CanManage so the HTTP layer and CLI
// share the rules.

// CanManage reports whether actor may administer owner's policies: the
// owner always can, and so can appointed custodians (Section V.D: "a
// different entity, a Custodian, may be responsible for composing access
// control policies for a User's Web resources").
func (a *AM) CanManage(owner, actor core.UserID) bool {
	if actor == "" {
		return false
	}
	if owner == actor {
		return true
	}
	var custodians []core.UserID
	if _, err := a.store.Get(kindCustodian, string(owner), &custodians); err != nil {
		return false
	}
	for _, c := range custodians {
		if c == actor {
			return true
		}
	}
	return false
}

// AddCustodian appoints a custodian for owner.
func (a *AM) AddCustodian(owner, custodian core.UserID) error {
	if owner == "" || custodian == "" {
		return fmt.Errorf("am: owner and custodian required")
	}
	release, err := a.gateOwner(owner)
	if err != nil {
		return err
	}
	defer release()
	var cur []core.UserID
	_, err = a.store.Update(kindCustodian, string(owner), &cur, func(exists bool) (any, error) {
		for _, c := range cur {
			if c == custodian {
				return cur, nil
			}
		}
		return append(cur, custodian), nil
	})
	return err
}

// RemoveCustodian revokes a custodian appointment.
func (a *AM) RemoveCustodian(owner, custodian core.UserID) error {
	release, err := a.gateOwner(owner)
	if err != nil {
		return err
	}
	defer release()
	var cur []core.UserID
	_, err = a.store.Update(kindCustodian, string(owner), &cur, func(exists bool) (any, error) {
		out := cur[:0]
		for _, c := range cur {
			if c != custodian {
				out = append(out, c)
			}
		}
		return out, nil
	})
	return err
}

// Custodians lists owner's custodians.
func (a *AM) Custodians(owner core.UserID) []core.UserID {
	var cur []core.UserID
	a.store.Get(kindCustodian, string(owner), &cur)
	sort.Slice(cur, func(i, j int) bool { return cur[i] < cur[j] })
	return cur
}

// --- Policy CRUD ---

// CreatePolicy validates and stores a new policy. A policy ID is assigned
// when empty. actor must be allowed to manage the policy owner's security.
func (a *AM) CreatePolicy(actor core.UserID, p policy.Policy) (policy.Policy, error) {
	if p.ID == "" {
		p.ID = core.PolicyID(core.NewID("pol"))
	}
	if !a.CanManage(p.Owner, actor) {
		return policy.Policy{}, fmt.Errorf("am: %s may not manage policies of %s", actor, p.Owner)
	}
	release, err := a.gateOwner(p.Owner)
	if err != nil {
		return policy.Policy{}, err
	}
	defer release()
	if err := p.Validate(); err != nil {
		return policy.Policy{}, err
	}
	if _, err := a.store.PutIfVersion(kindPolicy, string(p.ID), 0, p); err != nil {
		return policy.Policy{}, fmt.Errorf("am: policy %s already exists: %w", p.ID, err)
	}
	a.auditPipe.Enqueue(audit.Event{
		Type: audit.EventPolicyCreated, Owner: p.Owner, Subject: actor, Detail: string(p.ID),
	})
	// Links left dangling by an earlier delete resolve again once a policy
	// re-appears under the same ID; caches holding the dangling (deny)
	// outcome must hear about it.
	if realms, resources := a.linksForPolicy(p.Owner, p.ID); len(realms)+len(resources) > 0 {
		a.pushInvalidation(p.Owner, realms, resources)
	}
	return p, nil
}

// UpdatePolicy replaces an existing policy; owner and ID are immutable.
func (a *AM) UpdatePolicy(actor core.UserID, p policy.Policy) error {
	var old policy.Policy
	if _, err := a.store.Get(kindPolicy, string(p.ID), &old); err != nil {
		return fmt.Errorf("am: policy %s not found", p.ID)
	}
	if !a.CanManage(old.Owner, actor) {
		return fmt.Errorf("am: %s may not manage policies of %s", actor, old.Owner)
	}
	release, err := a.gateOwner(old.Owner)
	if err != nil {
		return err
	}
	defer release()
	p.Owner = old.Owner
	if err := p.Validate(); err != nil {
		return err
	}
	if _, err := a.store.Put(kindPolicy, string(p.ID), p); err != nil {
		return err
	}
	a.auditPipe.Enqueue(audit.Event{
		Type: audit.EventPolicyUpdated, Owner: old.Owner, Subject: actor, Detail: string(p.ID),
	})
	realms, resources := a.linksForPolicy(old.Owner, p.ID)
	if len(realms)+len(resources) > 0 {
		// A policy with no links decides nothing, so there is nothing to
		// evict; pushing an empty (owner-wide) scope would stampede.
		a.pushInvalidation(old.Owner, realms, resources)
	}
	return nil
}

// DeletePolicy removes a policy. Links pointing at it become dangling and
// resolve to "no policy" (deny-biased), which is the safe failure mode.
func (a *AM) DeletePolicy(actor core.UserID, id core.PolicyID) error {
	var old policy.Policy
	if _, err := a.store.Get(kindPolicy, string(id), &old); err != nil {
		return fmt.Errorf("am: policy %s not found", id)
	}
	if !a.CanManage(old.Owner, actor) {
		return fmt.Errorf("am: %s may not manage policies of %s", actor, old.Owner)
	}
	release, err := a.gateOwner(old.Owner)
	if err != nil {
		return err
	}
	defer release()
	// Capture the affected scope while the links still resolve; after the
	// delete they dangle (deny-biased) but still name the same targets.
	realms, resources := a.linksForPolicy(old.Owner, id)
	if err := a.store.Delete(kindPolicy, string(id)); err != nil {
		return err
	}
	a.auditPipe.Enqueue(audit.Event{
		Type: audit.EventPolicyDeleted, Owner: old.Owner, Subject: actor, Detail: string(id),
	})
	if len(realms)+len(resources) > 0 {
		a.pushInvalidation(old.Owner, realms, resources)
	}
	return nil
}

// linksForPolicy names every realm (general links) and resource (specific
// links) of owner's currently bound to policy id — the exact scope of cache
// entries a change to that policy can have affected.
func (a *AM) linksForPolicy(owner core.UserID, id core.PolicyID) ([]core.RealmID, []core.ResourceID) {
	prefix := string(owner) + "/"
	var realms []core.RealmID
	for _, e := range a.store.ListPrefix(kindLinkGen, prefix) {
		var link linkRecord
		if e.Decode(&link) != nil || link.Policy != id {
			continue
		}
		realms = append(realms, core.RealmID(e.Key[len(prefix):]))
	}
	var resources []core.ResourceID
	for _, e := range a.store.ListPrefix(kindLinkSpec, prefix) {
		var link linkRecord
		if e.Decode(&link) != nil || link.Policy != id {
			continue
		}
		// Key layout is owner/host/resource; the resource may itself
		// contain '/' (storage paths), so split off only the host segment.
		rest := e.Key[len(prefix):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			resources = append(resources, core.ResourceID(rest[i+1:]))
		}
	}
	return realms, resources
}

// GetPolicy fetches a policy by ID.
func (a *AM) GetPolicy(id core.PolicyID) (policy.Policy, error) {
	var p policy.Policy
	if _, err := a.store.Get(kindPolicy, string(id), &p); err != nil {
		return policy.Policy{}, fmt.Errorf("am: policy %s not found", id)
	}
	return p, nil
}

// ListPolicies returns all policies owned by owner, sorted by ID.
func (a *AM) ListPolicies(owner core.UserID) []policy.Policy {
	entities := a.store.Query(kindPolicy, func(e store.Entity) bool {
		var p policy.Policy
		return e.Decode(&p) == nil && p.Owner == owner
	})
	out := make([]policy.Policy, 0, len(entities))
	for _, e := range entities {
		var p policy.Policy
		if err := e.Decode(&p); err == nil {
			out = append(out, p)
		}
	}
	return out
}

// ExportPolicies writes owner's policies to w in the requested format —
// the Section VI REST export.
func (a *AM) ExportPolicies(w io.Writer, owner core.UserID, f policy.Format) error {
	return policy.Export(w, a.ListPolicies(owner), f)
}

// ImportPolicies reads policies from r, forcing ownership to owner, and
// stores them (overwriting same-ID policies). Returns how many were
// imported.
func (a *AM) ImportPolicies(actor core.UserID, owner core.UserID, r io.Reader, f policy.Format) (int, error) {
	if !a.CanManage(owner, actor) {
		return 0, fmt.Errorf("am: %s may not manage policies of %s", actor, owner)
	}
	release, err := a.gateOwner(owner)
	if err != nil {
		return 0, err
	}
	defer release()
	policies, err := policy.Import(r, f)
	if err != nil {
		return 0, err
	}
	for i := range policies {
		policies[i].Owner = owner
		// Policy IDs are global store keys. An import must never clobber
		// another user's policy that happens to share the ID (e.g. when
		// importing a policy set exported by someone else), so re-key on
		// cross-owner collision.
		var existing policy.Policy
		if _, err := a.store.Get(kindPolicy, string(policies[i].ID), &existing); err == nil && existing.Owner != owner {
			policies[i].ID = core.PolicyID(core.NewID("pol"))
		}
		if _, err := a.store.Put(kindPolicy, string(policies[i].ID), policies[i]); err != nil {
			return i, err
		}
		a.auditPipe.Enqueue(audit.Event{
			Type: audit.EventPolicyCreated, Owner: owner, Subject: actor,
			Detail: string(policies[i].ID) + " (import)",
		})
	}
	if len(policies) > 0 {
		// Imports may overwrite policies that are already linked; the
		// affected scope is not tracked per policy here, so evict
		// owner-wide.
		a.pushInvalidation(owner, nil, nil)
	}
	return len(policies), nil
}

// --- Linking (Fig. 4) ---

// LinkGeneral applies a general policy to all resources of owner's realm,
// across every Host where that realm is registered. This is the R2 win:
// one policy, one link, many Hosts.
func (a *AM) LinkGeneral(owner core.UserID, realm core.RealmID, pid core.PolicyID) error {
	release, err := a.gateOwner(owner)
	if err != nil {
		return err
	}
	defer release()
	return a.linkGeneralGated(owner, realm, pid)
}

// linkGeneralGated is LinkGeneral minus the ownership gate, for callers
// already holding the migration barrier (RegisterRealm) — gateOwner must
// never nest: a recursive RLock behind a queued SetOwnerShard write lock
// deadlocks.
func (a *AM) linkGeneralGated(owner core.UserID, realm core.RealmID, pid core.PolicyID) error {
	p, err := a.GetPolicy(pid)
	if err != nil {
		return err
	}
	if p.Owner != owner {
		return fmt.Errorf("am: policy %s is not owned by %s", pid, owner)
	}
	if p.Kind != policy.KindGeneral {
		return fmt.Errorf("am: policy %s is %s, need general", pid, p.Kind)
	}
	if _, err := a.store.Put(kindLinkGen, linkGenKey(owner, realm), linkRecord{Policy: pid}); err != nil {
		return err
	}
	a.auditPipe.Enqueue(audit.Event{
		Type: audit.EventResourceLinked, Owner: owner, Realm: realm,
		Detail: "general policy " + string(pid),
	})
	a.pushInvalidation(owner, []core.RealmID{realm}, nil)
	return nil
}

// LinkSpecific applies a specific policy to one resource at one Host.
func (a *AM) LinkSpecific(owner core.UserID, host core.HostID, res core.ResourceID, pid core.PolicyID) error {
	release, err := a.gateOwner(owner)
	if err != nil {
		return err
	}
	defer release()
	p, err := a.GetPolicy(pid)
	if err != nil {
		return err
	}
	if p.Owner != owner {
		return fmt.Errorf("am: policy %s is not owned by %s", pid, owner)
	}
	if p.Kind != policy.KindSpecific {
		return fmt.Errorf("am: policy %s is %s, need specific", pid, p.Kind)
	}
	if _, err := a.store.Put(kindLinkSpec, linkSpecKey(owner, host, res), linkRecord{Policy: pid}); err != nil {
		return err
	}
	a.auditPipe.Enqueue(audit.Event{
		Type: audit.EventResourceLinked, Owner: owner, Host: host, Resource: res,
		Detail: "specific policy " + string(pid),
	})
	a.pushInvalidation(owner, nil, []core.ResourceID{res})
	return nil
}

// UnlinkGeneral removes the realm's general policy link.
func (a *AM) UnlinkGeneral(owner core.UserID, realm core.RealmID) error {
	release, err := a.gateOwner(owner)
	if err != nil {
		return err
	}
	defer release()
	if err := a.store.Delete(kindLinkGen, linkGenKey(owner, realm)); err != nil {
		return err
	}
	a.pushInvalidation(owner, []core.RealmID{realm}, nil)
	return nil
}

// UnlinkSpecific removes a resource's specific policy link.
func (a *AM) UnlinkSpecific(owner core.UserID, host core.HostID, res core.ResourceID) error {
	release, err := a.gateOwner(owner)
	if err != nil {
		return err
	}
	defer release()
	if err := a.store.Delete(kindLinkSpec, linkSpecKey(owner, host, res)); err != nil {
		return err
	}
	a.pushInvalidation(owner, nil, []core.ResourceID{res})
	return nil
}

// generalPolicyFor resolves the general policy protecting owner's realm,
// nil when none is linked (or the link dangles).
func (a *AM) generalPolicyFor(owner core.UserID, realm core.RealmID) *policy.Policy {
	var link linkRecord
	if _, err := a.store.Get(kindLinkGen, linkGenKey(owner, realm), &link); err != nil {
		return nil
	}
	p, err := a.GetPolicy(link.Policy)
	if err != nil {
		return nil
	}
	return &p
}

// specificPolicyFor resolves the specific policy for a resource, nil when
// none.
func (a *AM) specificPolicyFor(owner core.UserID, host core.HostID, res core.ResourceID) *policy.Policy {
	var link linkRecord
	if _, err := a.store.Get(kindLinkSpec, linkSpecKey(owner, host, res), &link); err != nil {
		return nil
	}
	p, err := a.GetPolicy(link.Policy)
	if err != nil {
		return nil
	}
	return &p
}

func linkGenKey(owner core.UserID, realm core.RealmID) string {
	return string(owner) + "/" + string(realm)
}

func linkSpecKey(owner core.UserID, host core.HostID, res core.ResourceID) string {
	return string(owner) + "/" + string(host) + "/" + string(res)
}

// --- Groups ---

// groupStore is a store-backed policy.GroupResolver with a write-through
// in-memory directory for fast membership checks on the decision path.
type groupStore struct {
	st  *store.Store
	dir policy.Directory
}

func newGroupStore(st *store.Store) *groupStore {
	g := &groupStore{st: st}
	// Rebuild the directory from persisted groups.
	for _, e := range st.List(kindGroup) {
		var members []core.UserID
		if err := e.Decode(&members); err != nil {
			continue
		}
		owner, group, ok := splitGroupKey(e.Key)
		if !ok {
			continue
		}
		for _, m := range members {
			g.dir.Add(owner, group, m)
		}
	}
	return g
}

// Member implements policy.GroupResolver.
func (g *groupStore) Member(owner core.UserID, group string, user core.UserID) bool {
	return g.dir.Member(owner, group, user)
}

func (g *groupStore) add(owner core.UserID, group string, user core.UserID) error {
	g.dir.Add(owner, group, user)
	return g.persist(owner, group)
}

func (g *groupStore) remove(owner core.UserID, group string, user core.UserID) error {
	g.dir.Remove(owner, group, user)
	return g.persist(owner, group)
}

func (g *groupStore) persist(owner core.UserID, group string) error {
	members := g.dir.Members(owner, group)
	key := string(owner) + "/" + group
	if len(members) == 0 {
		// Deleting a missing entity is fine here.
		g.st.Delete(kindGroup, key)
		return nil
	}
	_, err := g.st.Put(kindGroup, key, members)
	return err
}

// install syncs the in-memory directory with a group record that arrived
// from outside the local write path (replication apply, migration import):
// key is the store key ("owner/group"), members the authoritative list
// (nil for a deleted group).
func (g *groupStore) install(key string, members []core.UserID) {
	owner, group, ok := splitGroupKey(key)
	if !ok {
		return
	}
	g.dir.SetMembers(owner, group, members)
}

// installRecord is install for a raw replicated/imported record: puts
// decode the member list (an undecodable payload clears the group rather
// than serving stale membership), deletes clear it.
func (g *groupStore) installRecord(rec core.ReplRecord) {
	var members []core.UserID
	if rec.Op == core.ReplOpPut && json.Unmarshal(rec.Data, &members) != nil {
		members = nil
	}
	g.install(rec.Key, members)
}

// rebuild resets the directory from the backing store — the follower
// bootstrap path, where the whole store was just replaced by a snapshot.
func (g *groupStore) rebuild() {
	g.dir.Reset()
	for _, e := range g.st.List(kindGroup) {
		var members []core.UserID
		if err := e.Decode(&members); err != nil {
			continue
		}
		g.install(e.Key, members)
	}
}

func splitGroupKey(key string) (core.UserID, string, bool) {
	for i := 0; i < len(key); i++ {
		if key[i] == '/' {
			return core.UserID(key[:i]), key[i+1:], key[i+1:] != ""
		}
	}
	return "", "", false
}

// AddGroupMember adds user to actor-managed owner's group.
func (a *AM) AddGroupMember(actor, owner core.UserID, group string, user core.UserID) error {
	if !a.CanManage(owner, actor) {
		return fmt.Errorf("am: %s may not manage groups of %s", actor, owner)
	}
	release, err := a.gateOwner(owner)
	if err != nil {
		return err
	}
	defer release()
	if group == "" || user == "" {
		return fmt.Errorf("am: group and user required")
	}
	if err := a.groups.add(owner, group, user); err != nil {
		return err
	}
	// Group membership may be referenced by any of the owner's policies, so
	// the push is owner-wide (empty scope = evict everything of owner's).
	a.pushInvalidation(owner, nil, nil)
	return nil
}

// RemoveGroupMember removes user from owner's group.
func (a *AM) RemoveGroupMember(actor, owner core.UserID, group string, user core.UserID) error {
	if !a.CanManage(owner, actor) {
		return fmt.Errorf("am: %s may not manage groups of %s", actor, owner)
	}
	release, err := a.gateOwner(owner)
	if err != nil {
		return err
	}
	defer release()
	if err := a.groups.remove(owner, group, user); err != nil {
		return err
	}
	a.pushInvalidation(owner, nil, nil)
	return nil
}

// Groups lists owner's group names.
func (a *AM) Groups(owner core.UserID) []string { return a.groups.dir.Groups(owner) }

// GroupMembers lists members of owner's group.
func (a *AM) GroupMembers(owner core.UserID, group string) []core.UserID {
	return a.groups.dir.Members(owner, group)
}
