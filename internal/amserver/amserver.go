// Package amserver is the Authorization Manager server process without
// its signal loop: the amserver flag surface, its validation, and the
// assembly of one node (store, audit log, AM, snapshot ticker) with a
// graceful and a crash-style shutdown. cmd/amserver wraps it in a signal
// handler; the load harness runs the same nodes inside its test process,
// from the same argument lists, so both rigs exercise one flags-to-config
// translation (Parse).
package amserver

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"umac/internal/am"
	"umac/internal/audit"
	"umac/internal/cluster"
	"umac/internal/store"
)

// Config is one validated amserver invocation.
type Config struct {
	// Addr is the listen address.
	Addr string
	// State is the durable state file; "" keeps everything in memory.
	State string
	// SnapshotEvery is the WAL compaction interval; Fsync syncs the WAL
	// on every commit (surviving machine crashes, not just process kills).
	SnapshotEvery time.Duration
	Fsync         bool
	// AuditRetain is the audit log's byte budget.
	AuditRetain int64
	// RingSpec is the -ring value as given, for the startup log line.
	RingSpec string
	// AM is the node's AM configuration. Open fills in Store and Audit.
	AM am.Config
}

// Parse turns amserver command-line arguments into a validated Config. It
// is the one place flags become an am.Config.
func Parse(args []string) (Config, error) {
	fs := flag.NewFlagSet("amserver", flag.ContinueOnError)
	var cfg Config
	fs.StringVar(&cfg.Addr, "addr", ":8080", "listen address")
	fs.StringVar(&cfg.AM.Name, "name", "am", "AM display name")
	fs.StringVar(&cfg.AM.BaseURL, "base-url", "", "externally reachable URL (default http://localhost<addr>)")
	fs.StringVar(&cfg.State, "state", "", "state file (empty = in-memory only)")
	fs.DurationVar(&cfg.SnapshotEvery, "snapshot-every", time.Minute, "WAL compaction (snapshot) interval")
	fs.DurationVar(&cfg.AM.TokenTTL, "token-ttl", 30*time.Minute, "authorization token lifetime")
	fs.BoolVar(&cfg.Fsync, "fsync", false, "fsync the WAL on every write (survive machine crashes, not just process kills)")
	fs.Int64Var(&cfg.AuditRetain, "audit-retain", audit.DefaultRetain, "audit log byte budget: the oldest sealed segments beyond it are deleted")

	role := fs.String("role", "", "replication role: \"primary\" or \"follower\" (empty = standalone)")
	fs.StringVar(&cfg.AM.Replication.PrimaryURL, "replica-of", "", "primary base URL to sync from (follower role)")
	secretFile := fs.String("repl-secret-file", "", "file holding the shared replication secret")
	keyFile := fs.String("token-key-file", "", "file holding the token-service master key, shared across the deployment")

	fs.StringVar(&cfg.RingSpec, "ring", "", "cluster ring: name=primaryURL[|followerURL...] entries, comma-separated (sharded deployments)")
	shard := fs.String("shard", "", "name of the shard this node belongs to (must appear in -ring)")

	ab := &cfg.AM.Abuse
	fs.Float64Var(&ab.PairingRate, "rate-pairing", 0, "per-pairing rate budget in cost units/sec on the signed Host channel (0 = unlimited)")
	fs.Float64Var(&ab.PairingBurst, "rate-pairing-burst", 0, "per-pairing burst capacity (0 = 10x rate)")
	fs.Float64Var(&ab.SessionRate, "rate-session", 0, "per-user rate budget in cost units/sec on the session management surface (0 = unlimited)")
	fs.Float64Var(&ab.SessionBurst, "rate-session-burst", 0, "per-user burst capacity (0 = 10x rate)")
	fs.Float64Var(&ab.IPRate, "rate-ip", 0, "per-remote-IP rate budget in cost units/sec on unauthenticated public routes (0 = unlimited)")
	fs.Float64Var(&ab.IPBurst, "rate-ip-burst", 0, "per-remote-IP burst capacity (0 = 10x rate)")

	if err := fs.Parse(args); err != nil {
		return Config{}, err
	}
	if cfg.SnapshotEvery <= 0 {
		return Config{}, fmt.Errorf("-snapshot-every must be positive, got %s", cfg.SnapshotEvery)
	}
	secret, err := readSecret(*secretFile, "repl-secret-file")
	if err != nil {
		return Config{}, err
	}
	key, err := readSecret(*keyFile, "token-key-file")
	if err != nil {
		return Config{}, err
	}
	cfg.AM.TokenKey = []byte(key)

	repl := &cfg.AM.Replication
	switch *role {
	case "":
		if repl.PrimaryURL != "" {
			return Config{}, errors.New("-replica-of requires -role follower")
		}
	case "primary":
		if repl.PrimaryURL != "" {
			return Config{}, errors.New("-replica-of contradicts -role primary; a primary syncs from nobody")
		}
		if secret == "" {
			return Config{}, errors.New("-role primary requires a replication secret (-repl-secret-file)")
		}
		repl.Role, repl.Secret = am.RolePrimary, secret
	case "follower":
		if repl.PrimaryURL == "" || secret == "" {
			return Config{}, errors.New("-role follower requires -replica-of and a replication secret")
		}
		if key == "" {
			return Config{}, errors.New("-role follower requires the shared token key (-token-key-file), or primary-minted tokens will not validate here")
		}
		repl.Role, repl.Secret = am.RoleFollower, secret
	default:
		return Config{}, fmt.Errorf("unknown -role %q", *role)
	}

	switch {
	case cfg.RingSpec == "" && *shard == "":
		// Unsharded.
	case cfg.RingSpec == "" || *shard == "":
		return Config{}, errors.New("-ring and -shard must be set together")
	default:
		shards, err := cluster.ParseSpec(cfg.RingSpec)
		if err != nil {
			return Config{}, err
		}
		ring, err := cluster.New(shards, 0)
		if err != nil {
			return Config{}, err
		}
		if _, ok := ring.Shard(*shard); !ok {
			return Config{}, fmt.Errorf("-shard %q does not appear in -ring", *shard)
		}
		cfg.AM.Cluster = am.ClusterConfig{Shard: *shard, Ring: ring}
	}

	if cfg.AM.BaseURL == "" {
		cfg.AM.BaseURL = "http://localhost" + cfg.Addr
	}
	cfg.AM.Notifier = &am.Outbox{}
	return cfg, nil
}

// readSecret returns the contents of a secret file trimmed of trailing
// whitespace ("" when no file is named).
func readSecret(file, flagName string) (string, error) {
	if file == "" {
		return "", nil
	}
	data, err := os.ReadFile(file)
	if err != nil {
		return "", fmt.Errorf("read -%s: %w", flagName, err)
	}
	return strings.TrimSpace(string(data)), nil
}

// Node is one assembled AM server: its store, audit log and AM, an HTTP
// server ready to Serve, and the snapshot ticker when state is durable.
type Node struct {
	AM *am.AM

	cfg   Config
	store *store.Store
	audit *audit.Log
	srv   *http.Server

	stopTicker chan struct{}
	ticker     sync.WaitGroup
	closeOnce  sync.Once
}

// Open recovers the node's state (snapshot plus WAL replay, then the
// audit log's segments) and builds its AM. Serve starts answering.
func Open(cfg Config) (*Node, error) {
	st, auditBase := store.New(), ""
	if cfg.State != "" {
		var opts []store.Option
		if cfg.Fsync {
			opts = append(opts, store.WithFsync())
		}
		loaded, err := store.Open(cfg.State, opts...)
		if err != nil {
			return nil, fmt.Errorf("open state: %w", err)
		}
		st = loaded
		if n := st.WALSize(); n > 0 {
			log.Printf("amserver: replayed %d bytes of write-ahead log", n)
		}
		auditBase = cfg.State + ".audit"
	}
	auditLog, err := audit.Open(auditBase, cfg.AuditRetain)
	if err != nil {
		st.Close()
		return nil, fmt.Errorf("open audit log: %w", err)
	}
	if n := auditLog.Len(); n > 0 {
		log.Printf("amserver: audit log holds %d events", n)
	}

	amCfg := cfg.AM
	amCfg.Store, amCfg.Audit = st, auditLog
	n := &Node{
		AM:         am.New(amCfg),
		cfg:        cfg,
		store:      st,
		audit:      auditLog,
		stopTicker: make(chan struct{}),
	}
	n.srv = &http.Server{Handler: n.AM.Handler()}
	if ab := cfg.AM.Abuse; ab.PairingRate > 0 || ab.SessionRate > 0 || ab.IPRate > 0 {
		log.Printf("amserver: abuse controls on (pairing %.1f/s, session %.1f/s, ip %.1f/s)",
			ab.PairingRate, ab.SessionRate, ab.IPRate)
	}
	if role := cfg.AM.Replication.Role; role != "" {
		log.Printf("amserver: replication role %s (applied seq %d)", role, st.LastSeq())
	}
	if shard := cfg.AM.Cluster.Shard; shard != "" {
		log.Printf("amserver: cluster shard %s (ring %s)", shard, cfg.RingSpec)
	}
	if cfg.State != "" {
		n.ticker.Add(1)
		go func() {
			defer n.ticker.Done()
			t := time.NewTicker(cfg.SnapshotEvery)
			defer t.Stop()
			for {
				select {
				case <-n.stopTicker:
					return
				case <-t.C:
					n.snapshot()
				}
			}
		}()
	}
	return n, nil
}

// Serve answers HTTP on ln until Shutdown or Kill, then returns nil.
func (n *Node) Serve(ln net.Listener) error {
	log.Printf("amserver: %s listening on %s (base URL %s)", n.cfg.AM.Name, ln.Addr(), n.cfg.AM.BaseURL)
	if err := n.srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// snapshot compacts the WAL into the state file.
func (n *Node) snapshot() {
	if err := n.store.Snapshot(n.cfg.State); err != nil {
		log.Printf("amserver: snapshot: %v", err)
	}
}

// Shutdown stops the node gracefully: /v1/readyz flips to 503 so load
// balancers drain it, a final snapshot compacts the WAL, then the AM, the
// audit log, the store and the listener close.
func (n *Node) Shutdown() {
	n.closeOnce.Do(func() {
		n.haltTicker()
		n.AM.SetDraining(true)
		if n.cfg.State != "" {
			n.snapshot()
		}
		n.closeParts()
		n.srv.Close()
	})
}

// Kill stops the node the way SIGKILL would, as far as a process can do
// it to itself: the listener and every open connection close first, then
// the AM, the audit log and the store, with no snapshot. Only what the WAL
// holds survives into the next Open.
func (n *Node) Kill() {
	n.closeOnce.Do(func() {
		n.haltTicker()
		n.srv.Close()
		n.closeParts()
	})
}

func (n *Node) haltTicker() {
	close(n.stopTicker)
	n.ticker.Wait()
}

func (n *Node) closeParts() {
	if err := n.AM.Close(); err != nil {
		log.Printf("amserver: close am: %v", err)
	}
	if err := n.audit.Close(); err != nil {
		log.Printf("amserver: close audit log: %v", err)
	}
	if err := n.store.Close(); err != nil {
		log.Printf("amserver: close store: %v", err)
	}
}
