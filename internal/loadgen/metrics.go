package loadgen

import (
	"fmt"
	"sort"
	"time"
)

// Record is one phase's measurement: its operation count, tail latency,
// wall-clock throughput, and the error/loss counters that make a
// performance number trustworthy.
type Record struct {
	// Name is "Loadgen/<scenario>/<phase>".
	Name string
	// N is the number of operations the phase completed (errors included).
	N int
	// P50Ns and P99Ns are the median and 99th-percentile op latencies.
	P50Ns int64
	P99Ns int64
	// OpsPerSec is N divided by the phase's wall-clock duration, so it
	// includes inter-op scenario overhead.
	OpsPerSec float64
	// Errors counts operations that failed. Some phases expect errors
	// (writes against a killed primary); the scenario decides what is
	// tolerable, the record just reports.
	Errors int
	// Lost counts acknowledged writes that later turned out to be missing.
	// Any non-zero value is a durability-contract violation and fails the
	// scenario outright.
	Lost int
}

// Recorder accumulates one scenario's phases in order.
type Recorder struct {
	// Scenario names the run; it prefixes every record name.
	Scenario string
	phases   []*PhaseRec
}

// PhaseRec measures one named phase: individual op latencies, the phase's
// wall-clock span, and error/loss tallies.
type PhaseRec struct {
	Name   string
	Errors int
	Lost   int

	start   time.Time
	elapsed time.Duration
	durs    []time.Duration
}

// Phase starts (and registers) a new phase. Call End when its load loop
// finishes. Phases follow one another, except that a load loop may run
// beside the operation it loads (abusive_tenant's flood, kill_migration's
// migrate_load); register both phases before starting the second
// goroutine, and let each phase take ops from one goroutine only.
func (r *Recorder) Phase(name string) *PhaseRec {
	ph := &PhaseRec{Name: name, start: time.Now()}
	r.phases = append(r.phases, ph)
	return ph
}

// Op runs and times one operation, tallying a failure instead of
// propagating it — load loops decide separately whether an error is fatal.
// It returns the operation's error for loops that do care.
func (ph *PhaseRec) Op(f func() error) error {
	t0 := time.Now()
	err := f()
	ph.durs = append(ph.durs, time.Since(t0))
	if err != nil {
		ph.Errors++
	}
	return err
}

// End freezes the phase's wall-clock duration.
func (ph *PhaseRec) End() {
	ph.elapsed = time.Since(ph.start)
}

// record flattens the phase into its Record under scenario.
func (ph *PhaseRec) record(scenario string) Record {
	rec := Record{
		Name:   fmt.Sprintf("Loadgen/%s/%s", scenario, ph.Name),
		N:      len(ph.durs),
		Errors: ph.Errors,
		Lost:   ph.Lost,
	}
	if len(ph.durs) == 0 {
		return rec
	}
	sorted := make([]time.Duration, len(ph.durs))
	copy(sorted, ph.durs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total time.Duration
	for _, d := range sorted {
		total += d
	}
	rec.P50Ns = quantile(sorted, 0.50).Nanoseconds()
	rec.P99Ns = quantile(sorted, 0.99).Nanoseconds()
	elapsed := ph.elapsed
	if elapsed <= 0 {
		elapsed = total
	}
	if elapsed > 0 {
		rec.OpsPerSec = float64(len(sorted)) / elapsed.Seconds()
	}
	return rec
}

// quantile picks the q-th quantile of an ascending-sorted sample by the
// nearest-rank method — crude but stable for the smoke-sized samples CI
// produces.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// Records flattens every phase, in execution order.
func (r *Recorder) Records() []Record {
	recs := make([]Record, 0, len(r.phases))
	for _, ph := range r.phases {
		recs = append(recs, ph.record(r.Scenario))
	}
	return recs
}

// TotalLost sums loss counters across phases — the scenario-level
// zero-loss assertion reads this.
func (r *Recorder) TotalLost() int {
	n := 0
	for _, ph := range r.phases {
		n += ph.Lost
	}
	return n
}
