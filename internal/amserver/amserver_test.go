package amserver

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"umac/internal/am"
	"umac/internal/policy"
)

// TestParse has one row per way an amserver invocation can be refused,
// one per flag the server no longer has, and the benchmark's own argument
// list, which must keep parsing.
func TestParse(t *testing.T) {
	dir := t.TempDir()
	secret := filepath.Join(dir, "repl.secret")
	key := filepath.Join(dir, "token.key")
	if err := os.WriteFile(secret, []byte("repl-secret\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(key, []byte("token-key-0123456789abcdef012345\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	files := []string{"-repl-secret-file", secret, "-token-key-file", key}
	with := func(args ...string) []string { return append(args, files...) }

	for _, tc := range []struct {
		name string
		args []string
		// wantErr is a substring of the error; "" means Parse succeeds.
		wantErr string
	}{
		{"replica-of without follower role", with("-replica-of", "http://p"), "-replica-of requires -role follower"},
		{"primary with replica-of", with("-role", "primary", "-replica-of", "http://p"), "contradicts -role primary"},
		{"primary without secret", []string{"-role", "primary"}, "requires a replication secret"},
		{"follower without replica-of", with("-role", "follower"), "requires -replica-of"},
		{"follower without secret", []string{"-role", "follower", "-replica-of", "http://p", "-token-key-file", key}, "requires -replica-of and a replication secret"},
		{"follower without token key", []string{"-role", "follower", "-replica-of", "http://p", "-repl-secret-file", secret}, "requires the shared token key"},
		{"unknown role", with("-role", "leader"), `unknown -role "leader"`},
		{"ring without shard", with("-ring", "shard-a=http://a"), "must be set together"},
		{"shard without ring", with("-shard", "shard-a"), "must be set together"},
		{"unparsable ring", with("-ring", "shard-a", "-shard", "shard-a"), "ring"},
		{"shard missing from ring", with("-ring", "shard-a=http://a", "-shard", "shard-b"), `-shard "shard-b" does not appear in -ring`},
		{"non-positive snapshot interval", []string{"-snapshot-every", "0s"}, "-snapshot-every must be positive"},
		{"unreadable secret file", []string{"-repl-secret-file", filepath.Join(dir, "missing")}, "read -repl-secret-file"},

		{"deleted -snapshot", []string{"-snapshot", "am.json"}, "not defined: -snapshot"},
		{"deleted -no-wal", []string{"-no-wal"}, "not defined: -no-wal"},
		{"deleted -wal-segment-size", []string{"-wal-segment-size", "1024"}, "not defined: -wal-segment-size"},
		{"deleted -event-buffer", []string{"-event-buffer", "8"}, "not defined: -event-buffer"},
		{"deleted -event-replay", []string{"-event-replay", "8"}, "not defined: -event-replay"},
		{"deleted -event-heartbeat", []string{"-event-heartbeat", "1s"}, "not defined: -event-heartbeat"},
		{"deleted -repl-secret", []string{"-repl-secret", "s"}, "not defined: -repl-secret"},
		{"deleted -token-key", []string{"-token-key", "k"}, "not defined: -token-key"},

		{"benchmark arguments", []string{
			"-addr", "127.0.0.1:9", "-name", "umacbench", "-base-url", "http://127.0.0.1:9",
			"-state", filepath.Join(dir, "am.json"), "-fsync", "-snapshot-every", "5s",
			"-role", "primary", "-shard", "shard-a", "-ring", "shard-a=http://127.0.0.1:9",
			"-repl-secret-file", secret, "-token-key-file", key,
		}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.args)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("Parse(%q): %v", tc.args, err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("Parse(%q) = %v, want an error containing %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

// TestParseBuildsAMConfig: the benchmark's flags land in the config as
// they did when main translated them.
func TestParseBuildsAMConfig(t *testing.T) {
	dir := t.TempDir()
	secret := filepath.Join(dir, "repl.secret")
	key := filepath.Join(dir, "token.key")
	os.WriteFile(secret, []byte("repl-secret\n"), 0o600)
	os.WriteFile(key, []byte("token-key\n"), 0o600)
	cfg, err := Parse([]string{
		"-addr", "127.0.0.1:9", "-name", "umacbench", "-base-url", "http://127.0.0.1:9",
		"-state", "am.json", "-fsync", "-snapshot-every", "5s",
		"-role", "primary", "-shard", "shard-a", "-ring", "shard-a=http://127.0.0.1:9",
		"-repl-secret-file", secret, "-token-key-file", key,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Addr != "127.0.0.1:9" || cfg.State != "am.json" || !cfg.Fsync || cfg.SnapshotEvery != 5*time.Second {
		t.Errorf("server fields %+v", cfg)
	}
	if cfg.AM.Name != "umacbench" || cfg.AM.BaseURL != "http://127.0.0.1:9" || cfg.AM.TokenTTL != 30*time.Minute {
		t.Errorf("AM name %q, base URL %q, token TTL %s", cfg.AM.Name, cfg.AM.BaseURL, cfg.AM.TokenTTL)
	}
	if r := cfg.AM.Replication; r.Role != am.RolePrimary || r.Secret != "repl-secret" {
		t.Errorf("replication %+v", r)
	}
	if string(cfg.AM.TokenKey) != "token-key" {
		t.Errorf("token key %q", cfg.AM.TokenKey)
	}
	if c := cfg.AM.Cluster; c.Shard != "shard-a" || c.Ring == nil {
		t.Errorf("cluster %+v", c)
	}
}

// TestShutdownSnapshotsKillDoesNot: Shutdown compacts the WAL into the
// state file; Kill writes no snapshot, and the next Open recovers the
// write from the WAL alone.
func TestShutdownSnapshotsKillDoesNot(t *testing.T) {
	deny := policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{Effect: policy.EffectDeny, Subjects: []policy.Subject{{Type: policy.SubjectEveryone}}}},
	}
	for _, graceful := range []bool{true, false} {
		state := filepath.Join(t.TempDir(), "am.json")
		cfg, err := Parse([]string{"-state", state, "-snapshot-every", "1h"})
		if err != nil {
			t.Fatal(err)
		}
		n, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p, err := n.AM.CreatePolicy("bob", deny)
		if err != nil {
			t.Fatal(err)
		}
		if graceful {
			n.Shutdown()
		} else {
			n.Kill()
		}
		if _, err := os.Stat(state); (err == nil) != graceful {
			t.Errorf("graceful=%v: state file stat: %v", graceful, err)
		}
		if n, err = Open(cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := n.AM.GetPolicy(p.ID); err != nil {
			t.Errorf("graceful=%v: acknowledged policy lost: %v", graceful, err)
		}
		n.Kill()
	}
}
