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
// to also survive machine crashes, or -no-wal for the legacy
// snapshot-only behaviour. Browser-facing endpoints authenticate via the
// X-Umac-User header (front it with a real SSO proxy in production).
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
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"umac"
	"umac/internal/audit"
	"umac/internal/cluster"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		name     = flag.String("name", "am", "AM display name")
		baseURL  = flag.String("base-url", "", "externally reachable URL (default http://<addr>)")
		statef   = flag.String("state", "", "state file (empty = in-memory only)")
		snapshot = flag.String("snapshot", "", "deprecated alias for -state")
		every    = flag.Duration("snapshot-every", time.Minute, "WAL compaction (snapshot) interval")
		tokenTTL = flag.Duration("token-ttl", 30*time.Minute, "authorization token lifetime")
		fsync    = flag.Bool("fsync", false, "fsync the WAL on every write (survive machine crashes, not just process kills)")
		noWAL    = flag.Bool("no-wal", false, "disable the write-ahead log (persist on snapshot only)")
		walSeg   = flag.Int64("wal-segment-size", 0, "WAL segment roll threshold in bytes (0 = default 4 MiB)")
		retain   = flag.Int64("audit-retain", audit.DefaultRetain, "audit log byte budget: the oldest sealed segments beyond it are deleted")

		role      = flag.String("role", "", "replication role: \"primary\" or \"follower\" (empty = standalone)")
		replicaOf = flag.String("replica-of", "", "primary base URL to sync from (follower role)")
		replSec   = flag.String("repl-secret", "", "shared replication secret (prefer -repl-secret-file)")
		replSecF  = flag.String("repl-secret-file", "", "file holding the shared replication secret")
		tokenKey  = flag.String("token-key", "", "token-service master key, shared across the deployment (prefer -token-key-file)")
		tokenKeyF = flag.String("token-key-file", "", "file holding the token-service master key")

		ringSpec = flag.String("ring", "", "cluster ring: name=primaryURL[|followerURL...] entries, comma-separated (sharded deployments)")
		shard    = flag.String("shard", "", "name of the shard this node belongs to (must appear in -ring)")

		eventBuf    = flag.Int("event-buffer", 0, "per-subscriber event buffer before a slow /v1/events consumer starts dropping (0 = default 256)")
		eventReplay = flag.Int("event-replay", 0, "events retained for Last-Event-ID resume on /v1/events (0 = default 1024)")
		eventHB     = flag.Duration("event-heartbeat", 0, "SSE heartbeat interval on /v1/events (0 = default 15s)")

		ratePairing      = flag.Float64("rate-pairing", 0, "per-pairing rate budget in cost units/sec on the signed Host channel (0 = unlimited)")
		ratePairingBurst = flag.Float64("rate-pairing-burst", 0, "per-pairing burst capacity (0 = 10x rate)")
		rateSession      = flag.Float64("rate-session", 0, "per-user rate budget in cost units/sec on the session management surface (0 = unlimited)")
		rateSessionBurst = flag.Float64("rate-session-burst", 0, "per-user burst capacity (0 = 10x rate)")
		rateIP           = flag.Float64("rate-ip", 0, "per-remote-IP rate budget in cost units/sec on unauthenticated public routes (0 = unlimited)")
		rateIPBurst      = flag.Float64("rate-ip-burst", 0, "per-remote-IP burst capacity (0 = 10x rate)")
	)
	flag.Parse()
	if *statef == "" {
		*statef = *snapshot
	}

	secret := readSecret(*replSec, *replSecF, "repl-secret")
	key := readSecret(*tokenKey, *tokenKeyF, "token-key")
	var repl umac.ReplicationConfig
	switch *role {
	case "":
		if *replicaOf != "" {
			log.Fatal("amserver: -replica-of requires -role follower")
		}
	case "primary":
		if *replicaOf != "" {
			log.Fatal("amserver: -replica-of contradicts -role primary; a primary syncs from nobody")
		}
		if secret == "" {
			log.Fatal("amserver: -role primary requires a replication secret (-repl-secret-file)")
		}
		repl = umac.ReplicationConfig{Role: umac.RolePrimary, Secret: secret}
	case "follower":
		if *replicaOf == "" || secret == "" {
			log.Fatal("amserver: -role follower requires -replica-of and a replication secret")
		}
		if key == "" {
			log.Fatal("amserver: -role follower requires the shared token key (-token-key-file), or primary-minted tokens will not validate here")
		}
		repl = umac.ReplicationConfig{Role: umac.RoleFollower, Secret: secret, PrimaryURL: *replicaOf}
	default:
		log.Fatalf("amserver: unknown -role %q", *role)
	}

	var clusterCfg umac.ClusterConfig
	switch {
	case *ringSpec == "" && *shard == "":
		// Unsharded.
	case *ringSpec == "" || *shard == "":
		log.Fatal("amserver: -ring and -shard must be set together")
	default:
		shards, err := cluster.ParseSpec(*ringSpec)
		if err != nil {
			log.Fatalf("amserver: %v", err)
		}
		ring, err := cluster.New(shards, 0)
		if err != nil {
			log.Fatalf("amserver: %v", err)
		}
		if _, ok := ring.Shard(*shard); !ok {
			log.Fatalf("amserver: -shard %q does not appear in -ring", *shard)
		}
		clusterCfg = umac.ClusterConfig{Shard: *shard, Ring: ring}
	}

	st := umac.NewStore()
	if *statef != "" {
		var opts []umac.StoreOption
		if *noWAL {
			opts = append(opts, umac.StoreWithoutWAL())
		}
		if *fsync {
			opts = append(opts, umac.StoreWithFsync())
		}
		if *walSeg > 0 {
			opts = append(opts, umac.StoreWithWALSegmentSize(*walSeg))
		}
		loaded, err := umac.OpenStore(*statef, opts...)
		if err != nil {
			log.Fatalf("amserver: open state: %v", err)
		}
		st = loaded
		if n := st.WALSize(); n > 0 {
			log.Printf("amserver: replayed %d bytes of write-ahead log", n)
		}
	}
	auditBase := ""
	if *statef != "" {
		auditBase = *statef + ".audit"
	}
	auditLog, err := audit.Open(auditBase, *retain)
	if err != nil {
		log.Fatalf("amserver: open audit log: %v", err)
	}
	if n := auditLog.Len(); n > 0 {
		log.Printf("amserver: audit log holds %d events", n)
	}
	base := *baseURL
	if base == "" {
		base = "http://localhost" + *addr
	}
	authMgr := umac.NewAM(umac.AMConfig{
		Name:        *name,
		BaseURL:     base,
		Store:       st,
		Audit:       auditLog,
		TokenKey:    []byte(key),
		TokenTTL:    *tokenTTL,
		Notifier:    &umac.Outbox{},
		Replication: repl,
		Cluster:     clusterCfg,
		Events: umac.AMEventsConfig{
			SubscriberBuffer: *eventBuf,
			ReplayWindow:     *eventReplay,
			Heartbeat:        *eventHB,
		},
		Abuse: umac.AMAbuseConfig{
			PairingRate: *ratePairing, PairingBurst: *ratePairingBurst,
			SessionRate: *rateSession, SessionBurst: *rateSessionBurst,
			IPRate: *rateIP, IPBurst: *rateIPBurst,
		},
	})
	if *ratePairing > 0 || *rateSession > 0 || *rateIP > 0 {
		log.Printf("amserver: abuse controls on (pairing %.1f/s, session %.1f/s, ip %.1f/s)",
			*ratePairing, *rateSession, *rateIP)
	}
	if repl.Role != "" {
		log.Printf("amserver: replication role %s (applied seq %d)", repl.Role, st.LastSeq())
	}
	if clusterCfg.Shard != "" {
		log.Printf("amserver: cluster shard %s (ring %s)", clusterCfg.Shard, *ringSpec)
	}

	srv := &http.Server{Addr: *addr, Handler: authMgr.Handler()}
	go func() {
		log.Printf("amserver: %s listening on %s (base URL %s)", *name, *addr, base)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("amserver: %v", err)
		}
	}()

	save := func() {
		if *statef == "" {
			return
		}
		if err := st.Snapshot(*statef); err != nil {
			log.Printf("amserver: snapshot: %v", err)
		}
	}
	if *statef != "" {
		go func() {
			ticker := time.NewTicker(*every)
			defer ticker.Stop()
			for range ticker.C {
				save()
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println()
	log.Print("amserver: shutting down")
	// Flip /v1/readyz to 503 first so load balancers drain this instance
	// before the listener goes away.
	authMgr.SetDraining(true)
	save()
	if err := authMgr.Close(); err != nil {
		log.Printf("amserver: close am: %v", err)
	}
	if err := auditLog.Close(); err != nil {
		log.Printf("amserver: close audit log: %v", err)
	}
	if err := st.Close(); err != nil {
		log.Printf("amserver: close store: %v", err)
	}
	srv.Close()
}

// readSecret resolves a value/file flag pair: the file wins when set, its
// contents trimmed of trailing whitespace.
func readSecret(value, file, name string) string {
	if file == "" {
		return value
	}
	data, err := os.ReadFile(file)
	if err != nil {
		log.Fatalf("amserver: read -%s-file: %v", name, err)
	}
	return strings.TrimSpace(string(data))
}
