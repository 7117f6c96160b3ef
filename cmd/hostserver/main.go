// Command hostserver runs one of the prototype Host applications from
// Section VI of the paper: the online storage service or the online photo
// gallery. Both start in built-in ACL mode; users delegate to an AM through
// the pairing flow (visit the printed pairing URL).
//
// Usage:
//
//	hostserver -app storage -addr :8081 -host-id storage [-state host-state.json]
//	hostserver -app gallery -addr :8082 -host-id gallery
//
// With -state, AM pairings are persisted through a WAL-backed store, so a
// restarted (or killed) Host keeps its delegation relationships and
// resubscribes their invalidation streams at startup; -fsync extends
// durability to machine crashes.
package main

import (
	"flag"
	"log"
	"net/http"
	"time"

	"umac/internal/apps/gallery"
	"umac/internal/apps/storage"
	"umac/internal/core"
	"umac/internal/pep"
	kvstore "umac/internal/store"
)

func main() {
	var (
		app     = flag.String("app", "storage", "application to run: storage | gallery")
		addr    = flag.String("addr", ":8081", "listen address")
		hostID  = flag.String("host-id", "", "protocol host identity (default = app name)")
		baseURL = flag.String("base-url", "", "externally reachable URL (default http://localhost<addr>)")
		statef  = flag.String("state", "", "pairing state file (empty = in-memory only)")
		fsync   = flag.Bool("fsync", false, "fsync the WAL on every write")
		every   = flag.Duration("snapshot-every", time.Minute, "WAL compaction (snapshot) interval")
	)
	flag.Parse()

	id := core.HostID(*hostID)
	if id == "" {
		id = core.HostID(*app)
	}
	base := *baseURL
	if base == "" {
		base = "http://localhost" + *addr
	}

	var st *kvstore.Store
	if *statef != "" {
		var opts []kvstore.Option
		if *fsync {
			opts = append(opts, kvstore.WithFsync())
		}
		var err error
		if st, err = kvstore.Open(*statef, opts...); err != nil {
			log.Fatalf("hostserver: open state: %v", err)
		}
		// No explicit Close: every write is already on disk when
		// acknowledged, and this process only exits by being killed or
		// via log.Fatalf. Periodic snapshots bound WAL growth and the
		// replay cost of the next start.
		go func() {
			ticker := time.NewTicker(*every)
			defer ticker.Stop()
			for range ticker.C {
				if err := st.Snapshot(*statef); err != nil {
					log.Printf("hostserver: snapshot: %v", err)
				}
			}
		}()
	}

	var (
		handler  http.Handler
		enforcer *pep.Enforcer
	)
	switch *app {
	case "storage":
		a := storage.New(storage.Config{HostID: id, PairingStore: st})
		handler, enforcer = a.Handler(), a.Enforcer
	case "gallery":
		a := gallery.New(gallery.Config{HostID: id, PairingStore: st})
		handler, enforcer = a.Handler(), a.Enforcer
	default:
		log.Fatalf("hostserver: unknown app %q (want storage or gallery)", *app)
	}
	enforcer.SetBaseURL(base)
	// Pairings reloaded from -state get their invalidation streams back;
	// an owner whose AM cannot be reached falls back to the cache TTL.
	for owner, err := range enforcer.SubscribeAll() {
		log.Printf("hostserver: invalidation stream for %s unavailable, cache TTL bounds freshness: %v", owner, err)
	}

	log.Printf("hostserver: %s (%s) listening on %s", *app, id, *addr)
	log.Printf("hostserver: pair with an AM by driving a browser through the enforcer's pairing URL")
	if err := http.ListenAndServe(*addr, handler); err != nil {
		log.Fatalf("hostserver: %v", err)
	}
}
