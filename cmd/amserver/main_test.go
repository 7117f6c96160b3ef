package main

import (
	"context"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"umac/internal/amclient"
	"umac/internal/audit"
	"umac/internal/core"
	"umac/internal/loadgen"
	"umac/internal/policy"
	"umac/internal/seglog"
)

// TestAuditSurvivesSIGKILL: audit events older than one flush interval
// survive a SIGKILL of amserver -state, and the restarted server serves
// them under their original sequence numbers and continues the sequence.
func TestAuditSurvivesSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills a real amserver")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	dir := t.TempDir()
	bin, err := loadgen.BuildServer(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	state := filepath.Join(dir, "am.json")
	start := func() (*exec.Cmd, *amclient.Client) {
		t.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		logf, err := os.OpenFile(filepath.Join(dir, "amserver.log"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		defer logf.Close()
		cmd := exec.CommandContext(ctx, bin, "-addr", addr, "-state", state, "-snapshot-every", "1h")
		cmd.Stdout, cmd.Stderr = logf, logf
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
		base := "http://" + addr
		for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(20 * time.Millisecond) {
			resp, err := http.Get(base + "/v1/readyz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("amserver not ready: %v", err)
			}
		}
		return cmd, amclient.New(amclient.Config{BaseURL: base, User: "bob"})
	}
	denyAll := policy.Policy{
		Owner: "bob", Kind: policy.KindGeneral,
		Rules: []policy.Rule{{Effect: policy.EffectDeny, Subjects: []policy.Subject{{Type: policy.SubjectEveryone}}}},
	}

	cmd, c := start()
	const writes = 20
	for i := 0; i < writes; i++ {
		if _, err := c.CreatePolicy(denyAll); err != nil {
			t.Fatal(err)
		}
	}
	// Reading the audit view would flush it; healthz only counts. Once the
	// pipeline has every event, the flush tick must write them unaided.
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, err := c.Healthz()
		if err != nil {
			t.Fatal(err)
		}
		if h.Audit.Events == writes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz audit.events = %d, want %d", h.Audit.Events, writes)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(audit.FlushInterval)
	for recordsOnDisk(t, state+".audit") < writes {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d audit records on disk before the kill", recordsOnDisk(t, state+".audit"), writes)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cmd.Process.Kill()
	cmd.Wait()

	_, c = start()
	if _, err := c.CreatePolicy(denyAll); err != nil {
		t.Fatal(err)
	}
	events, err := c.Audit(amclient.AuditFilter{Owner: "bob"}, amclient.Page{Limit: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != writes+1 {
		t.Fatalf("%d audit events after SIGKILL and restart, want %d", len(events), writes+1)
	}
	for i, e := range events {
		if e.Seq != int64(i)+1 || e.Type != audit.EventPolicyCreated || e.Owner != core.UserID("bob") {
			t.Fatalf("event %d after restart = %+v", i, e)
		}
	}
}

// recordsOnDisk counts the complete records in the segment files of the
// audit log rooted at base.
func recordsOnDisk(t *testing.T, base string) int {
	t.Helper()
	segs, err := seglog.List(base)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, s := range segs {
		f, err := os.Open(s.Path)
		if err != nil {
			t.Fatal(err)
		}
		seglog.Scan(f, s.Size, func([]byte) bool { n++; return true })
		f.Close()
	}
	return n
}
