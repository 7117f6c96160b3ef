// Command amserver runs an Authorization Manager node — standalone, or as
// the primary or a follower of a replicated deployment.
//
// Usage:
//
//	amserver -addr :8080 -name my-am [-state am-state.json] [-base-url http://am.example]
//
// State (policies, pairings, realms, groups, token keys) is durable: every
// write is appended to a write-ahead log beside the state file before it is
// acknowledged, so a hard kill loses nothing. Snapshots every
// -snapshot-every interval (and on shutdown) compact the log. Pass -fsync
// to also survive machine crashes. Browser-facing endpoints authenticate
// via the X-Umac-User header (front it with a real SSO proxy in
// production).
//
// The audit log lives beside the state file as <state>.audit.NNNNNN
// segments (in memory without -state). Events reach disk within
// audit.FlushInterval of being recorded; -audit-retain bounds its size by
// deleting the oldest sealed segments.
//
// Replication (see docs/OPERATIONS.md for the full runbook):
//
//	# primary: serves writes and streams its WAL on /v1/replication/*
//	amserver -addr :8080 -state primary.json -role primary \
//	    -repl-secret-file repl.secret -token-key-file token.key
//
//	# follower: syncs from the primary, serves the read-only decision path
//	amserver -addr :8081 -state follower.json -role follower \
//	    -replica-of http://localhost:8080 \
//	    -repl-secret-file repl.secret -token-key-file token.key
//
// Both sides must share the replication secret and the token-service key
// (so a follower validates tokens the primary minted). Followers answer
// writes with the structured not_primary error carrying the primary's URL;
// the typed client (umac.AMClient with Endpoints) fails over on it.
//
// Sharding (see docs/OPERATIONS.md, "Sharded cluster"): -ring and -shard
// place the node in a multi-primary cluster whose consistent-hash ring
// maps each resource owner to one shard. Every node of every shard is
// started with the identical -ring value:
//
//	# shard-a primary
//	amserver -addr :8080 -state a.json -role primary \
//	    -ring "shard-a=http://localhost:8080,shard-b=http://localhost:9090" \
//	    -shard shard-a -repl-secret-file repl.secret -token-key-file token.key
//
//	# shard-b primary
//	amserver -addr :9090 -state b.json -role primary \
//	    -ring "shard-a=http://localhost:8080,shard-b=http://localhost:9090" \
//	    -shard shard-b -repl-secret-file repl.secret -token-key-file token.key
//
// Owner-scoped requests that hash to another shard answer the structured
// wrong_shard error with the owning shard's primary URL as the hint; the
// shard-aware client (umac.NewAMClusterClient) routes by owner and chases
// the hint once. umacctl migrate-owner moves an owner between shards live.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"umac/internal/amserver"
)

func main() {
	cfg, err := amserver.Parse(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		log.Fatalf("amserver: %v", err)
	}
	node, err := amserver.Open(cfg)
	if err != nil {
		log.Fatalf("amserver: %v", err)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		log.Fatalf("amserver: %v", err)
	}
	go func() {
		if err := node.Serve(ln); err != nil {
			log.Fatalf("amserver: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println()
	log.Print("amserver: shutting down")
	node.Shutdown()
}
