package sim

import (
	"fmt"

	"umac/internal/baseline/localacl"
	"umac/internal/baseline/pullmodel"
	"umac/internal/baseline/umastate"
	"umac/internal/core"
	"umac/internal/policy"
	"umac/internal/requester"
)

// This file is the workload harness behind experiments E9 (protocol-model
// comparison) and E10 (consolidated vs per-Host audit): it runs the same
// access pattern under each access-control model and reports the AM
// round-trips each one costs.

// Model names a protocol model under comparison.
type Model string

// Models.
const (
	ModelPushToken Model = "push-token" // the paper's protocol (Fig. 2)
	ModelPull      Model = "pull"       // the authors' earlier SSP'09 design
	ModelUMAState  Model = "uma-state"  // UMA authorization-state variant
	ModelLocalACL  Model = "local-acl"  // per-app ACLs, no AM (status quo)
)

// ComparisonResult reports one model's cost on a workload.
type ComparisonResult struct {
	Model Model
	// Resources and AccessesPerResource describe the workload.
	Resources           int
	AccessesPerResource int
	// Accesses actually performed (= Resources × AccessesPerResource).
	Accesses int
	// AMRoundTrips is the number of HTTP requests that reached the AM.
	AMRoundTrips int64
	// PerAccess is AMRoundTrips / Accesses.
	PerAccess float64
	// Permitted counts successful accesses (sanity: must equal Accesses).
	Permitted int
}

// comparisonWorld builds a world with one host serving n resources in one
// realm readable by alice, paired and protected.
func comparisonWorld(n int) (*World, *SimpleHost, error) {
	w := NewWorld()
	h := w.AddHost("webpics")
	ids := make([]core.ResourceID, n)
	for i := 0; i < n; i++ {
		id := core.ResourceID(fmt.Sprintf("photo-%04d", i))
		ids[i] = id
		h.AddResource("bob", "travel", id, []byte("content"))
	}
	bob := NewUserAgent("bob")
	if err := bob.PairHost(h, w.AMServer.URL); err != nil {
		w.Close()
		return nil, nil, err
	}
	if err := h.Enforcer.Protect("bob", "travel", ids, ""); err != nil {
		w.Close()
		return nil, nil, err
	}
	// Management traffic flows through the typed v1 client; the per-model
	// round-trip counters reset after this setup.
	mgmt := w.Client("bob")
	p, err := mgmt.CreatePolicy(policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{
			Effect:   policy.EffectPermit,
			Subjects: []policy.Subject{{Type: policy.SubjectUser, Name: "alice"}},
			Actions:  []core.Action{core.ActionRead},
		}},
	})
	if err != nil {
		w.Close()
		return nil, nil, err
	}
	if err := mgmt.LinkGeneral("bob", "travel", p.ID); err != nil {
		w.Close()
		return nil, nil, err
	}
	return w, h, nil
}

// RunComparison executes the E9 workload — alice reads each of `resources`
// resources `accessesPerResource` times — under every model and returns the
// per-model costs.
func RunComparison(resources, accessesPerResource int) ([]ComparisonResult, error) {
	var out []ComparisonResult
	for _, model := range []Model{ModelPushToken, ModelPull, ModelUMAState, ModelLocalACL} {
		res, err := runModel(model, resources, accessesPerResource)
		if err != nil {
			return nil, fmt.Errorf("sim: model %s: %w", model, err)
		}
		out = append(out, res)
	}
	return out, nil
}

func runModel(model Model, resources, accessesPerResource int) (ComparisonResult, error) {
	result := ComparisonResult{
		Model:               model,
		Resources:           resources,
		AccessesPerResource: accessesPerResource,
		Accesses:            resources * accessesPerResource,
	}

	if model == ModelLocalACL {
		// No AM at all: a per-app matrix answers locally.
		var m localacl.Matrix
		for i := 0; i < resources; i++ {
			m.Grant("bob", core.ResourceID(fmt.Sprintf("photo-%04d", i)), "alice", core.ActionRead)
		}
		for k := 0; k < accessesPerResource; k++ {
			for i := 0; i < resources; i++ {
				if m.Check("bob", core.ResourceID(fmt.Sprintf("photo-%04d", i)), "alice", core.ActionRead) {
					result.Permitted++
				}
			}
		}
		return result, nil
	}

	w, h, err := comparisonWorld(resources)
	if err != nil {
		return result, err
	}
	defer w.Close()
	pairing, _ := h.Enforcer.PairingFor("bob")
	w.ResetWire()

	switch model {
	case ModelPushToken:
		client := requester.New(requester.Config{ID: "alice-browser", Subject: "alice"})
		for k := 0; k < accessesPerResource; k++ {
			for i := 0; i < resources; i++ {
				url := h.ResourceURL(core.ResourceID(fmt.Sprintf("photo-%04d", i)))
				if _, err := client.Fetch(url, core.ActionRead); err != nil {
					return result, err
				}
				result.Permitted++
			}
		}
	case ModelPull:
		pull := pullmodel.New(h.ID, nil)
		for k := 0; k < accessesPerResource; k++ {
			for i := 0; i < resources; i++ {
				ok, err := pull.Check(pairing, "alice", "alice-browser", "travel",
					core.ResourceID(fmt.Sprintf("photo-%04d", i)), core.ActionRead)
				if err != nil {
					return result, err
				}
				if ok {
					result.Permitted++
				}
			}
		}
	case ModelUMAState:
		rc := &umastate.RequesterClient{ID: "alice-browser", Subject: "alice"}
		handle, err := rc.Establish(w.AMServer.URL, h.ID, "travel", "photo-0000", core.ActionRead)
		if err != nil {
			return result, err
		}
		enf := umastate.New(h.ID, nil)
		for k := 0; k < accessesPerResource; k++ {
			for i := 0; i < resources; i++ {
				ok, err := enf.Check(pairing, handle, "travel",
					core.ResourceID(fmt.Sprintf("photo-%04d", i)), core.ActionRead)
				if err != nil {
					return result, err
				}
				if ok {
					result.Permitted++
				}
			}
		}
	}
	result.AMRoundTrips = w.AMRequests()
	if result.Accesses > 0 {
		result.PerAccess = float64(result.AMRoundTrips) / float64(result.Accesses)
	}
	return result, nil
}

// AdminBurden quantifies the S1 administration cost: the number of
// management operations to share `resources` resources across `hosts`
// applications with `friends` people, under per-app ACLs versus one AM.
type AdminBurden struct {
	LocalACLGrants int // per-app: hosts × resources × friends
	UMACOperations int // AM: 1 policy + friends group-adds + hosts links
}

// ComputeAdminBurden returns both costs for the given scenario size.
func ComputeAdminBurden(hosts, resources, friends int) AdminBurden {
	return AdminBurden{
		LocalACLGrants: hosts * resources * friends,
		UMACOperations: 1 + friends + hosts, // one policy, M members, one protect per host
	}
}
