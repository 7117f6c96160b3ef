// Command scenario is the experiment driver: it executes the paper-derived
// experiments E9 (protocol-model comparison) and E10 (consolidated audit)
// on the in-process deployment and prints their tables (docs/BENCHMARKS.md
// maps the repo's recorded experiments). Timing-oriented experiments
// (E1-E8, E11-E12) live in the testing.B harness (go test -bench).
//
// Usage:
//
//	scenario [-resources 20] [-sweep 1,2,5,10,20]
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"umac"
	"umac/internal/core"
	"umac/internal/policy"
	"umac/internal/requester"
	"umac/internal/sim"
)

func main() {
	var (
		resources = flag.Int("resources", 20, "resources in the workload realm")
		sweepStr  = flag.String("sweep", "1,2,5,10,20", "accesses-per-resource sweep")
	)
	flag.Parse()
	var sweep []int
	for _, s := range strings.Split(*sweepStr, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			log.Fatalf("scenario: bad sweep value %q", s)
		}
		sweep = append(sweep, n)
	}

	fmt.Println("Experiment E9 — AM round-trips per protocol model")
	fmt.Printf("workload: alice reads %d resources k times each\n\n", *resources)
	fmt.Printf("%-12s %8s %10s %14s %12s\n", "model", "k", "accesses", "AM-roundtrips", "per-access")
	for _, k := range sweep {
		results, err := sim.RunComparison(*resources, k)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range results {
			if r.Permitted != r.Accesses {
				log.Fatalf("scenario: model %s permitted %d/%d", r.Model, r.Permitted, r.Accesses)
			}
			fmt.Printf("%-12s %8d %10d %14d %12.3f\n",
				r.Model, k, r.Accesses, r.AMRoundTrips, r.PerAccess)
		}
		fmt.Println()
	}

	fmt.Println("Administration burden (shortcoming S1): share R resources on H hosts with F friends")
	fmt.Printf("%-28s %12s %12s\n", "scenario (H hosts,R res,F fr)", "per-app ACL", "UMAC ops")
	for _, tc := range [][3]int{{1, 10, 2}, {3, 10, 2}, {3, 50, 5}, {5, 200, 20}} {
		b := sim.ComputeAdminBurden(tc[0], tc[1], tc[2])
		fmt.Printf("H=%-3d R=%-5d F=%-16d %12d %12d\n", tc[0], tc[1], tc[2], b.LocalACLGrants, b.UMACOperations)
	}
	fmt.Println()

	fmt.Println("Experiment E10 — consolidated audit vs per-Host pull")
	runAuditExperiment()
}

// runAuditExperiment measures the R4 claim: auditing N hosts' access
// history takes one AM query under UMAC versus one query per host without.
func runAuditExperiment() {
	world := sim.NewWorld()
	defer world.Close()
	const hosts = 5
	bob := sim.NewUserAgent("bob")
	var hostApps []*sim.SimpleHost
	for i := 0; i < hosts; i++ {
		h := world.AddHost(core.HostID(fmt.Sprintf("host-%d", i)))
		h.AddResource("bob", "stuff", "r", []byte("x"))
		if err := bob.PairHost(h, world.AMServer.URL); err != nil {
			log.Fatal(err)
		}
		if err := h.Enforcer.Protect("bob", "stuff", nil, ""); err != nil {
			log.Fatal(err)
		}
		hostApps = append(hostApps, h)
	}
	p, err := world.AM.CreatePolicy("bob", policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{Effect: policy.EffectPermit, Subjects: []policy.Subject{{Type: policy.SubjectEveryone}}}},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := world.AM.LinkGeneral("bob", "stuff", p.ID); err != nil {
		log.Fatal(err)
	}
	client := requester.New(requester.Config{ID: "friend-app", Subject: "carol"})
	accesses := 0
	for _, h := range hostApps {
		for j := 0; j < 4; j++ {
			if _, err := client.Fetch(h.ResourceURL("r"), umac.ActionRead); err != nil {
				log.Fatal(err)
			}
			accesses++
		}
	}
	s := world.AM.Audit().Summarize("bob")
	fmt.Printf("workload: %d accesses across %d hosts\n", accesses, hosts)
	fmt.Printf("consolidated view: 1 AM query sees %d hosts, %d decisions (%d permit)\n",
		len(s.Hosts), s.PermitCount+s.DenyCount, s.PermitCount)
	fmt.Printf("without an AM:     %d per-host log pulls would be required (one per application)\n", hosts)
}
