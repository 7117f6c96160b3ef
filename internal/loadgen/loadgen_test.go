package loadgen

import (
	"context"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"umac/internal/amclient"
)

// The TestLoadgen* tests are the scenario smokes: each runs one scenario
// at CI size on a fresh 3-node cluster and asserts its exact phase list
// and zero acknowledged-write loss, twice — subtest inproc on in-process
// nodes (the server code under this test binary's race detector), subtest
// spawned on real amserver processes (built on first use; skipped under
// -short).

var (
	buildOnce  sync.Once
	binDir     string
	testBinary string
	buildErr   error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// serverBinary builds amserver once per test binary, on first use.
func serverBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		if binDir, buildErr = os.MkdirTemp("", "loadgen-bin-"); buildErr == nil {
			testBinary, buildErr = BuildServer(context.Background(), binDir)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return testBinary
}

// onBothRigs runs body as subtest inproc (binary "") and subtest spawned
// (binary = the built amserver).
func onBothRigs(t *testing.T, body func(t *testing.T, binary string)) {
	t.Run("inproc", func(t *testing.T) { body(t, "") })
	t.Run("spawned", func(t *testing.T) {
		if testing.Short() {
			t.Skip("spawns real server processes")
		}
		body(t, serverBinary(t))
	})
}

// startRig starts a fresh cluster for one subtest and tears it down after.
// extraArgs reach every node's flag list (ScenarioExtraArgs).
func startRig(t *testing.T, binary string, extraArgs ...string) *Rig {
	t.Helper()
	ctx, cancel := context.WithTimeout(t.Context(), 30*time.Second)
	defer cancel()
	rig, err := StartCluster(ctx, binary, t.TempDir(), t.Logf, extraArgs...)
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	t.Cleanup(rig.Stop)
	return rig
}

// scenarioPhases is every scenario's phase list, in the order its records
// come out. A phase that vanishes, is renamed or moves fails the
// scenario's smoke on both rigs.
var scenarioPhases = map[string][]string{
	"zipf_hot_owner":   {"setup", "storm", "storm_slow", "verify"},
	"pairing_churn":    {"churn", "churn_slow", "verify"},
	"delegation_chain": {"setup", "appoint", "chain_write", "chain_walk", "verify"},
	"kill_migration": {"setup", "pre_kill_load", "killed_decisions", "verify_wal",
		"verify_follower", "migrate_retry", "migrate_load", "post_migration_load", "verify_migrated"},
	"consent_storm":  {"setup", "gate", "stream_notify", "poll_notify", "verify"},
	"ring_double":    {"setup", "clean_load", "grow", "rebalance_load", "verify"},
	"kill_rebalance": {"setup", "clean_load", "drain_load", "verify"},
	"abusive_tenant": {"setup", "victim_clean", "abuse_flood", "victim_under_abuse", "verify"},
}

// TestScenarioPhasesCoverRegistry keeps the phase table and the scenario
// registry in step, so a new scenario cannot run unguarded.
func TestScenarioPhasesCoverRegistry(t *testing.T) {
	for _, name := range ScenarioNames() {
		if _, ok := scenarioPhases[name]; !ok {
			t.Errorf("scenario %q has no phase list", name)
		}
	}
	for name := range scenarioPhases {
		if _, ok := Scenarios[name]; !ok {
			t.Errorf("phase list for unregistered scenario %q", name)
		}
	}
}

// runScenarioSmoke is the shared body of the scenario smokes.
func runScenarioSmoke(t *testing.T, name string) {
	sc, ok := Scenarios[name]
	if !ok {
		t.Fatalf("scenario %q not registered", name)
	}
	want := make([]string, len(scenarioPhases[name]))
	for i, phase := range scenarioPhases[name] {
		want[i] = "Loadgen/" + name + "/" + phase
	}
	onBothRigs(t, func(t *testing.T, binary string) {
		ctx, cancel := context.WithTimeout(t.Context(), 4*time.Minute)
		defer cancel()
		rig := startRig(t, binary, ScenarioExtraArgs(name)...)

		rec, err := sc(ctx, rig, SmokeOptions())
		if err != nil {
			t.Fatalf("scenario %s: %v", name, err)
		}
		if lost := rec.TotalLost(); lost != 0 {
			t.Fatalf("scenario %s lost %d acknowledged writes", name, lost)
		}
		recs := rec.Records()
		got := make([]string, len(recs))
		for i, r := range recs {
			got[i] = r.Name
		}
		if !slices.Equal(got, want) {
			t.Errorf("scenario %s phases:\n got %q\nwant %q", name, got, want)
		}
		for _, r := range recs {
			if r.N <= 0 {
				t.Errorf("record %s ran zero ops", r.Name)
			}
			if r.P50Ns > r.P99Ns {
				t.Errorf("record %s: p50 %d > p99 %d", r.Name, r.P50Ns, r.P99Ns)
			}
			if r.OpsPerSec <= 0 {
				t.Errorf("record %s reports no throughput", r.Name)
			}
			t.Logf("%s: n=%d p50=%s p99=%s %.1f ops/s errs=%d",
				r.Name, r.N, time.Duration(r.P50Ns), time.Duration(r.P99Ns), r.OpsPerSec, r.Errors)
		}
	})
}

func TestLoadgenZipfHotOwner(t *testing.T)    { runScenarioSmoke(t, "zipf_hot_owner") }
func TestLoadgenPairingChurn(t *testing.T)    { runScenarioSmoke(t, "pairing_churn") }
func TestLoadgenDelegationChain(t *testing.T) { runScenarioSmoke(t, "delegation_chain") }
func TestLoadgenKillMigration(t *testing.T)   { runScenarioSmoke(t, "kill_migration") }
func TestLoadgenConsentStorm(t *testing.T)    { runScenarioSmoke(t, "consent_storm") }
func TestLoadgenRingDouble(t *testing.T)      { runScenarioSmoke(t, "ring_double") }
func TestLoadgenKillRebalance(t *testing.T)   { runScenarioSmoke(t, "kill_rebalance") }
func TestLoadgenAbusiveTenant(t *testing.T)   { runScenarioSmoke(t, "abusive_tenant") }

// TestLoadgenAuditPagination drives >1000 audited operations for one
// owner against the cluster on both rigs, then walks the audit log with the
// X-Next-Offset pagination frame and asserts the walk covers the full
// set exactly once — no duplicates, no gaps, and a final offset of -1.
// Regression guard for the PR 3 off-by-page offset bug, now under real
// HTTP and real load.
func TestLoadgenAuditPagination(t *testing.T) { onBothRigs(t, auditPagination) }

func auditPagination(t *testing.T, binary string) {
	ctx, cancel := context.WithTimeout(t.Context(), 4*time.Minute)
	defer cancel()
	rig := startRig(t, binary)

	owner := rig.OwnersFor("pager", "shard-a", 1)[0]
	or, err := SetupOwner(rig.ClientConfig(), owner)
	if err != nil {
		t.Fatalf("setup owner: %v", err)
	}
	const decisions = 1050
	for i := 0; i < decisions; i++ {
		if err := ctx.Err(); err != nil {
			t.Fatalf("audit load: %v", err)
		}
		if err := or.Decide(); err != nil {
			t.Fatalf("decision %d: %v", i, err)
		}
	}

	filter := amclient.AuditFilter{Owner: owner}
	// An oversized request must be clamped to the server's MaxPageLimit
	// — and the frame must say so: the full total, a mid-set next offset.
	clamped, frame, err := or.Manager.AuditPage(owner, filter, amclient.Page{Limit: decisions * 2})
	if err != nil {
		t.Fatalf("clamped fetch: %v", err)
	}
	total := frame.Total
	if total <= 1000 {
		t.Fatalf("only %d audit events; load was supposed to produce >1000", total)
	}
	if len(clamped) >= total {
		t.Fatalf("oversized fetch returned %d of %d events; MaxPageLimit clamp is gone", len(clamped), total)
	}
	if frame.NextOffset != len(clamped) {
		t.Fatalf("clamped fetch: X-Next-Offset %d, want %d", frame.NextOffset, len(clamped))
	}

	// Walk the full set at a given page size, asserting the frame headers
	// advance coherently and the walk terminates.
	walk := func(pageSize int) []int64 {
		var seqs []int64
		offset := 0
		for pages := 0; ; pages++ {
			if pages > 2*total/pageSize+2 {
				t.Fatalf("pagination (limit %d) never terminated after %d pages", pageSize, pages)
			}
			events, frame, err := or.Manager.AuditPage(owner, filter, amclient.Page{Offset: offset, Limit: pageSize})
			if err != nil {
				t.Fatalf("page at offset %d: %v", offset, err)
			}
			if frame.Total != total {
				t.Fatalf("page at offset %d: X-Total-Count drifted to %d (want %d)", offset, frame.Total, total)
			}
			for _, e := range events {
				seqs = append(seqs, e.Seq)
			}
			if frame.NextOffset == -1 {
				break
			}
			if frame.NextOffset <= offset {
				t.Fatalf("X-Next-Offset %d did not advance past %d", frame.NextOffset, offset)
			}
			offset = frame.NextOffset
		}
		return seqs
	}

	walked := walk(64)
	if len(walked) != total {
		t.Fatalf("page walk yielded %d events, X-Total-Count says %d", len(walked), total)
	}
	seen := make(map[int64]bool, len(walked))
	for i, seq := range walked {
		if seen[seq] {
			t.Fatalf("duplicate event seq %d in page walk", seq)
		}
		seen[seq] = true
		if i > 0 && walked[i-1] >= seq {
			t.Fatalf("page walk out of order at index %d: %d >= %d", i, walked[i-1], seq)
		}
	}

	// A walk at a different page size must reproduce the identical
	// sequence — dup/gap freedom cannot depend on page-boundary luck.
	other := walk(striding)
	if len(other) != len(walked) {
		t.Fatalf("walks disagree on size: %d (limit %d) vs %d (limit 64)", len(other), striding, len(walked))
	}
	for i := range other {
		if other[i] != walked[i] {
			t.Fatalf("walks diverge at index %d: %d != %d", i, other[i], walked[i])
		}
	}
}

// striding is the second page size of the audit walk cross-check — prime,
// so its page boundaries never align with the 64-sized walk's.
const striding = 97
