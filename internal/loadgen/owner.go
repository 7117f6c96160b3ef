package loadgen

import (
	"fmt"

	"umac/internal/amclient"
	"umac/internal/core"
	"umac/internal/policy"
)

// OwnerRig is one owner's protocol fixture and shard-aware clients: what
// every scenario provisions per owner before it drives load.
type OwnerRig struct {
	// Owner is the resource owner; Realm its per-owner protected realm.
	Owner core.UserID
	Realm core.RealmID
	// Pairing is the Host↔AM channel credential minted on the owner's
	// home shard; Token an authorization token for alice's reads.
	Pairing core.PairingResponse
	Token   string
	// Decider signs decision queries with the pairing credential;
	// Manager acts as the owner's session. Both route by owner.
	Decider *amclient.ClusterClient
	Manager *amclient.ClusterClient
}

// SetupOwner builds pairing, realm, permit policy and token for owner
// entirely over the shard-routed HTTP surface. seed templates the
// per-shard clients (BaseURL names any cluster node; HTTPClient, timeouts
// and the rest are inherited).
func SetupOwner(seed amclient.Config, owner core.UserID) (*OwnerRig, error) {
	mgrCfg := seed
	mgrCfg.User = owner
	mgrCfg.PairingID, mgrCfg.Secret = "", ""
	manager, err := amclient.NewCluster(mgrCfg)
	if err != nil {
		return nil, err
	}
	code, err := manager.ConfirmPairing(owner, rigHost)
	if err != nil {
		return nil, fmt.Errorf("loadgen: confirm pairing for %s: %w", owner, err)
	}
	pairing, err := manager.ExchangePairingCode(owner, code, rigHost)
	if err != nil {
		return nil, fmt.Errorf("loadgen: exchange pairing code for %s: %w", owner, err)
	}
	decCfg := seed
	decCfg.User = ""
	decCfg.PairingID, decCfg.Secret = pairing.PairingID, pairing.Secret
	decider, err := amclient.NewCluster(decCfg)
	if err != nil {
		return nil, err
	}
	realm := core.RealmID("travel-" + string(owner))
	if _, err := decider.Protect(owner, core.ProtectRequest{Realm: realm}); err != nil {
		return nil, fmt.Errorf("loadgen: protect realm for %s: %w", owner, err)
	}
	pol, err := manager.CreatePolicy(policy.Policy{
		Owner: owner, Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:   policy.EffectPermit,
			Subjects: []policy.Subject{{Type: policy.SubjectUser, Name: "alice"}},
			Actions:  []core.Action{core.ActionRead},
		}},
	})
	if err != nil {
		return nil, fmt.Errorf("loadgen: base policy for %s: %w", owner, err)
	}
	if err := manager.LinkGeneral(owner, realm, pol.ID); err != nil {
		return nil, fmt.Errorf("loadgen: link policy for %s: %w", owner, err)
	}
	tok, err := manager.RequestToken(owner, core.TokenRequest{
		Requester: "alice-browser", Subject: "alice", Host: rigHost,
		Realm: realm, Resource: "photo", Action: core.ActionRead,
	})
	if err != nil {
		return nil, fmt.Errorf("loadgen: token for %s: %w", owner, err)
	}
	return &OwnerRig{
		Owner: owner, Realm: realm, Pairing: pairing, Token: tok.Token,
		Decider: decider, Manager: manager,
	}, nil
}

// Decide runs one shard-routed decision for the rig's owner, requiring
// a permit.
func (r *OwnerRig) Decide() error {
	dec, err := r.Decider.Decide(r.Owner, core.DecisionQuery{
		Host: rigHost, Realm: r.Realm, Resource: "photo",
		Action: core.ActionRead, Token: r.Token,
	})
	if err != nil {
		return err
	}
	if !dec.Permit() {
		return fmt.Errorf("loadgen: unexpected deny for %s: %+v", r.Owner, dec)
	}
	return nil
}

// WritePolicy creates one throwaway permit policy for the rig's owner
// (i disambiguates the rule subject) and returns the acknowledged ID.
func (r *OwnerRig) WritePolicy(i int) (core.PolicyID, error) {
	p, err := r.Manager.CreatePolicy(policy.Policy{
		Owner: r.Owner, Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:   policy.EffectPermit,
			Subjects: []policy.Subject{{Type: policy.SubjectUser, Name: fmt.Sprintf("friend-%d", i)}},
			Actions:  []core.Action{core.ActionRead},
		}},
	})
	if err != nil {
		return "", err
	}
	return p.ID, nil
}
