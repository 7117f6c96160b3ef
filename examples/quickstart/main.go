// Quickstart: protect one file with a user-chosen Authorization Manager and
// access it as a third party — the full protocol of Fig. 2 in ~80 lines.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"umac"
	"umac/internal/sim"
)

func main() {
	// A complete in-process deployment: one AM, one Host.
	world := sim.NewWorld()
	defer world.Close()
	host := world.AddHost("webpics")
	host.AddResource("bob", "travel", "sunset.jpg", []byte("…jpeg bytes…"))
	fmt.Println("Started AM at", world.AMServer.URL, "and host 'webpics' at", host.Server.URL)

	// (1) Delegating access control (Fig. 3): Bob points webpics at his AM;
	// his browser is bounced Host→AM→Host and the secure channel is set up.
	bob := sim.NewUserAgent("bob")
	if err := bob.PairHost(host, world.AMServer.URL); err != nil {
		log.Fatal(err)
	}
	fmt.Println("Bob paired webpics with his AM")

	// (2) Composing policies (Fig. 4): webpics registers the 'travel' realm
	// and Bob composes a policy at the AM's API — here in the textual DSL.
	if err := host.Enforcer.Protect("bob", "travel", []umac.ResourceID{"sunset.jpg"}, ""); err != nil {
		log.Fatal(err)
	}
	policies, err := umac.ParsePolicies("bob", `
policy "friends-read" general {
  permit group:friends, owner read, list
}`)
	if err != nil {
		log.Fatal(err)
	}
	bobAM := world.Client("bob")
	created, err := bobAM.CreatePolicy(policies[0])
	if err != nil {
		log.Fatal(err)
	}
	if err := bobAM.LinkGeneral("bob", "travel", created.ID); err != nil {
		log.Fatal(err)
	}
	if _, err := bobAM.AddGroupMember("bob", "friends", "alice"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("Bob linked policy", created.ID, "to realm 'travel' and added alice to friends")

	// (3)-(5) Obtaining a token, accessing the resource, decision query
	// (Figs. 5-6): alice's client does all of it behind one call.
	alice := umac.NewRequester(umac.RequesterConfig{ID: "alice-browser", Subject: "alice"})
	body, err := alice.Fetch(host.ResourceURL("sunset.jpg"), umac.ActionRead)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("alice read %d bytes of sunset.jpg (first access: full protocol)\n", len(body))

	// (6) Subsequent accesses: served from the Host's decision cache, no AM
	// round-trip.
	for i := 0; i < 3; i++ {
		if _, err := alice.Fetch(host.ResourceURL("sunset.jpg"), umac.ActionRead); err != nil {
			log.Fatal(err)
		}
	}
	hits, misses := host.Enforcer.Cache().Stats()
	fmt.Printf("3 subsequent accesses: decision-cache hits=%d misses=%d\n", hits, misses)

	// A stranger is denied centrally by the AM.
	mallory := umac.NewRequester(umac.RequesterConfig{ID: "mallory-app", Subject: "mallory"})
	if _, err := mallory.Fetch(host.ResourceURL("sunset.jpg"), umac.ActionRead); err != nil {
		fmt.Println("mallory denied:", err)
	}

	// Every HTTP request the AM and the Host received, in arrival order:
	// the protocol of Fig. 2 as it crossed the wire.
	fmt.Println("\nWire log (server method path status):")
	for _, e := range world.Wire() {
		fmt.Println(" ", e)
	}
}
