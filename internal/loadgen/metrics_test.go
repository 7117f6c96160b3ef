package loadgen

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"umac/internal/core"
)

// These are the harness's own unit tests — no spawned binaries, so they
// run even under -short.

func TestZipfSkewAndDeterminism(t *testing.T) {
	owners := []core.UserID{"hot", "warm", "cool", "cold", "frozen"}
	const n = 5000
	counts := Counts(owners, 42, 1.3, n)
	if counts["hot"] <= n/3 {
		t.Fatalf("rank-0 owner drew only %d of %d picks; distribution is not hot", counts["hot"], n)
	}
	if counts["hot"] <= counts["frozen"] {
		t.Fatalf("head (%d) not hotter than tail (%d)", counts["hot"], counts["frozen"])
	}
	if again := Counts(owners, 42, 1.3, n); again["hot"] != counts["hot"] {
		t.Fatalf("same seed produced a different sequence: %d != %d", again["hot"], counts["hot"])
	}
	if other := Counts(owners, 7, 1.3, n); other["hot"] == counts["hot"] && other["warm"] == counts["warm"] {
		t.Fatal("different seeds produced an identical tally; seeding is not wired through")
	}
}

func TestRecorderRecords(t *testing.T) {
	rec := &Recorder{Scenario: "unit"}
	ph := rec.Phase("ops")
	for i := 0; i < 10; i++ {
		ph.Op(func() error {
			time.Sleep(time.Millisecond)
			return nil
		})
	}
	ph.Op(func() error { return errors.New("boom") })
	ph.End()

	recs := rec.Records()
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Name != "Loadgen/unit/ops" {
		t.Fatalf("record name %q", r.Name)
	}
	if r.N != 11 || r.Errors != 1 {
		t.Fatalf("n=%d errors=%d, want 11/1", r.N, r.Errors)
	}
	if r.P50Ns <= 0 || r.P50Ns > r.P99Ns {
		t.Fatalf("quantiles out of order: p50=%d p99=%d", r.P50Ns, r.P99Ns)
	}
	if r.OpsPerSec <= 0 {
		t.Fatalf("ops/sec %f", r.OpsPerSec)
	}
}

func TestFaultProxyLatencyAndPartition(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer backend.Close()
	fp, err := NewFaultProxy(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer fp.Close()
	client := &http.Client{Timeout: 5 * time.Second}

	get := func() (string, time.Duration, error) {
		t0 := time.Now()
		resp, err := client.Get(fp.URL())
		if err != nil {
			return "", time.Since(t0), err
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body), time.Since(t0), nil
	}

	if body, _, err := get(); err != nil || body != "ok" {
		t.Fatalf("clean path: body=%q err=%v", body, err)
	}

	fp.SetLatency(60 * time.Millisecond)
	if _, d, err := get(); err != nil || d < 60*time.Millisecond {
		t.Fatalf("latency shim: took %s err=%v, want >=60ms", d, err)
	}
	fp.SetLatency(0)

	fp.SetPartitioned(true)
	if _, _, err := get(); err == nil {
		t.Fatal("partitioned path served a response")
	}
	fp.SetPartitioned(false)
	if body, _, err := get(); err != nil || body != "ok" {
		t.Fatalf("healed path: body=%q err=%v", body, err)
	}
}
