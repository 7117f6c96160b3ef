package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

func TestSlicePercentile(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	us := func(v int) time.Duration { return time.Duration(v) * time.Microsecond }
	// Two slices of 10 ms. Slice 0: 100, 200, 300 µs; slice 1: 400 µs and
	// one failed op, which must enter as +Inf whatever its latency.
	samples := []sample{
		{done: ms(1), lat: us(300), ok: true},
		{done: ms(2), lat: us(100), ok: true},
		{done: ms(9), lat: us(200), ok: true},
		{done: ms(11), lat: us(400), ok: true},
		{done: ms(19), lat: us(1), ok: false},
		{done: ms(25), lat: us(500), ok: true}, // past the window: last slice
	}
	p50 := slicePercentile(samples, ms(20), 2, 0.50)
	if want := []float64{200, 500}; !reflect.DeepEqual(p50.perSlice, want) {
		t.Fatalf("per-slice p50 = %v, want %v", p50.perSlice, want)
	}
	if got := p50.value(); got != 350 {
		t.Fatalf("p50 over slices = %v, want the median of the slices, 350", got)
	}
	p99 := slicePercentile(samples, ms(20), 2, 0.99)
	if p99.perSlice[0] != 300 || !math.IsInf(p99.perSlice[1], 1) {
		t.Fatalf("per-slice p99 = %v, want [300 +Inf]: a failed op is the slowest of its slice", p99.perSlice)
	}
	if !math.IsInf(p99.value(), 1) {
		t.Fatalf("p99 over slices = %v, want +Inf", p99.value())
	}
	// A slice in which nothing completed is a stall, not a gap in the data.
	stalled := slicePercentile(samples[:3], ms(20), 2, 0.50)
	if !math.IsInf(stalled.perSlice[1], 1) {
		t.Fatalf("empty slice = %v, want +Inf", stalled.perSlice[1])
	}
}

func TestSlicesFor(t *testing.T) {
	for _, c := range []struct {
		n      int
		q      float64
		slices int
	}{
		{140000, 0.99, 20}, // 70 beyond per slice
		{1000, 0.99, 1},    // 10 beyond in the whole window, no more
		{1000, 0.50, 20},
		{50, 0.99, 1},
		{0, 0.50, 1},
		{3000, 0.99, 3},
	} {
		if got := slicesFor(c.n, c.q, 20); got != c.slices {
			t.Errorf("slicesFor(%d, %v, 20) = %d, want %d", c.n, c.q, got, c.slices)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles = %v, %v, want 1, 4", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: spanCheck, RequestID: "a", Parent: -1, Start: 0, End: 100_000},
		{Name: spanRoundTrip, RequestID: "a", Parent: 0, Start: 10_000, End: 90_000},
		{Name: spanHandler, RequestID: "a", Parent: 1, Start: 30_000, End: 70_000},
		// A cached Check: no round-trip, so no chain.
		{Name: spanCheck, RequestID: "b", Parent: -1, Start: 100_000, End: 101_000},
		// A child that outlives its parent only counts where they overlap.
		{Name: spanCheck, RequestID: "c", Parent: -1, Start: 200_000, End: 300_000},
		{Name: spanRoundTrip, RequestID: "c", Parent: 4, Start: 250_000, End: 320_000},
	}
	self := selfTimes(spans)
	if want := []int64{20_000, 40_000, 40_000, 1_000, 50_000, 70_000}; !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
	cs := chains(spans, spanCheck)
	if len(cs) != 1 {
		t.Fatalf("chains = %d, want only the request that crossed all three layers", len(cs))
	}
	c := cs[0]
	if c.total != 100 || c.callSelf != 20 || c.rtSelf != 40 || c.handler != 40 {
		t.Fatalf("chain = %+v, want total 100 = 20 + 40 + 40", c)
	}
	// The budget's lines must add up to its first line, for any input.
	var many []chain
	for i := 1; i <= 9; i++ {
		f := float64(i)
		many = append(many, chain{total: 6 * f, callSelf: f, rtSelf: 2 * f, handler: 3 * f})
	}
	mm := midmean(many)
	if mm.total != 30 || mm.callSelf+mm.rtSelf+mm.handler != mm.total {
		t.Fatalf("midmean = %+v, want total 30 (the mean of the middle five) and lines that sum to it", mm)
	}
}

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the endToEnd table:\n%+v\n%+v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the perLayer table:\n%+v\n%+v", m.PerLayer, perLayer)
	}
	if len(m.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(m.Workloads), len(workloadDefs))
	}
	seen := map[string]bool{}
	for i, w := range m.Workloads {
		if w.Name != workloadDefs[i].Name || w.Why != workloadDefs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, w.Name, w.Why, workloadDefs[i].Name, workloadDefs[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, over 200", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	for _, d := range append(append([]metricDef{}, m.EndToEnd...), m.PerLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or used twice", d.Name)
		}
		seen[d.Name] = true
	}
	if !reflect.DeepEqual(m.Paths, []string{"benchmark"}) || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("paths = %v, run_seconds = %d", m.Paths, m.RunSeconds)
	}
}

// TestSmoke runs every workload end to end at the smoke sizing, traced, and
// checks that each declared metric comes out exactly once, finite and
// well-named, in the result line the driver parses.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns amserver")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	bin, err := buildServer(ctx, root)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{root: root, bin: bin, out: t.TempDir(), seconds: 1, smoke: true, trace: true, logf: t.Logf}
	for _, def := range workloadDefs {
		t.Run(def.Name, func(t *testing.T) {
			rep, err := runOnce(ctx, cfg, def, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct() || rep.lostWrites != 0 {
				t.Errorf("failed %d of %d, lost writes %d", rep.failed, rep.attempted, rep.lostWrites)
			}
			for _, mode := range []struct {
				trace bool
				defs  []metricDef
			}{{false, endToEnd}, {true, perLayer}} {
				c := cfg
				c.trace = mode.trace
				var line struct {
					Correct   bool `json:"correct"`
					Attempted int64
					Failed    int64
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(resultLine(c, rep)), &line); err != nil {
					t.Fatal(err)
				}
				var got, want []string
				for name, mv := range line.Metrics {
					got = append(got, name)
					if mv.Value == nil || math.IsNaN(*mv.Value) || math.IsInf(*mv.Value, 0) || *mv.Value == math.MaxFloat64 {
						t.Errorf("%s is not finite", name)
					}
				}
				for _, d := range mode.defs {
					want = append(want, d.Name)
					if line.Metrics[d.Name].Unit != d.Unit {
						t.Errorf("%s has unit %q, declared %q", d.Name, line.Metrics[d.Name].Unit, d.Unit)
					}
				}
				sort.Strings(got)
				sort.Strings(want)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("trace=%v: emitted %v, declared %v", mode.trace, got, want)
				}
			}
			if _, err := os.Stat(filepath.Join(cfg.out, "trace-"+def.Name+".json")); err != nil {
				t.Error(err)
			}
			if rep.budget == "" {
				t.Error("no budget printed")
			}
		})
	}
}
