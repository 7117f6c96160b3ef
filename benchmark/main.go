// Command umacbench is the repository's benchmark: it spawns one real
// amserver per run, drives it over loopback through the production SDKs
// (pep.Enforcer, amclient.Client), checks every answer, and prints the
// metrics BENCHMARK.json declares. See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef mirrors one entry of BENCHMARK.json; bench_test.go keeps the
// two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what the three kinds of user wait for or pay, measured with
// tracing off. What "latency" and "throughput" mean on each workload is in
// workloadDefs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_us", "us", "lower", 0.20},
	{"latency_p99_us", "us", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"server_cpu_us_per_op", "us", "lower", 0.25},
	{"server_rss_mb", "MB", "lower", 0.15},
}

// perLayer is measured from outside each layer and never gated. README.md
// says how each is taken and which end-to-end metric it should move.
var perLayer = []metricDef{
	{Name: "sdk.call_self_us", Unit: "us", Better: "lower"},
	{Name: "amclient.roundtrip_self_us", Unit: "us", Better: "lower"},
	{Name: "am.handler_us", Unit: "us", Better: "lower"},
	{Name: "am.handler_self_us", Unit: "us", Better: "lower"},
	{Name: "amclient.req_bytes", Unit: "B", Better: "lower"},
	{Name: "amclient.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "amclient.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "amclient.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "httpsig.sign_us", Unit: "us", Better: "lower"},
	{Name: "httpsig.verify_us", Unit: "us", Better: "lower"},
	{Name: "am.route_mean_us", Unit: "us", Better: "lower"},
	{Name: "am.decide_us", Unit: "us", Better: "lower"},
	{Name: "am.decide_allocs", Unit: "count", Better: "lower"},
	{Name: "am.decide_batch16_us", Unit: "us", Better: "lower"},
	{Name: "am.create_policy_us", Unit: "us", Better: "lower"},
	{Name: "am.issue_token_us", Unit: "us", Better: "lower"},
	{Name: "token.validate_us", Unit: "us", Better: "lower"},
	{Name: "token.mint_us", Unit: "us", Better: "lower"},
	{Name: "policy.evaluate_compiled_ns", Unit: "ns", Better: "lower"},
	{Name: "policy.compile_us", Unit: "us", Better: "lower"},
	{Name: "store.get_ns", Unit: "ns", Better: "lower"},
	{Name: "store.put_nowal_ns", Unit: "ns", Better: "lower"},
	{Name: "store.put_buffered_us", Unit: "us", Better: "lower"},
	{Name: "store.put_fsync_us", Unit: "us", Better: "lower"},
	{Name: "store.put_fsync_w2_us", Unit: "us", Better: "lower"},
	{Name: "store.wal_bytes_per_write", Unit: "B", Better: "lower"},
	{Name: "store.recovery_ms", Unit: "ms", Better: "lower"},
	{Name: "audit.enqueue_ns", Unit: "ns", Better: "lower"},
	{Name: "audit.pipeline_depth_max", Unit: "count", Better: "lower"},
	{Name: "events.publish_ns", Unit: "ns", Better: "lower"},
	{Name: "events.revoke_visible_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.ring_owner_ns", Unit: "ns", Better: "lower"},
	{Name: "pep.cache_get_ns", Unit: "ns", Better: "lower"},
	{Name: "pep.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "pep.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "pep.miss_p50_us", Unit: "us", Better: "lower"},
	{Name: "amserver.token_issue_p50_us", Unit: "us", Better: "lower"},
	{Name: "amserver.rss_growth_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "bench.traced_call_p50_us", Unit: "us", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.inproc_gap_us", Unit: "us", Better: "lower"},
	{Name: "bench.generator_late_p99_us", Unit: "us", Better: "lower"},
}

// workloadDef names a workload, says why it exists (BENCHMARK.json's
// "why") and what its two workload-specific metrics measure.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// latency and throughput are printed as a legend with every result.
	latency, throughput string
	// span names the SDK call whose chain the traced budget explains, and
	// replayOps is how many ops the traced replay makes.
	span      string
	replayOps int
	make      func() workload
}

var workloadDefs = []workloadDef{
	{
		Name:       "decide_miss",
		Why:        "never-repeating resources: every Check is one signed decision round-trip, so sign, wire, verify, decode, decide, audit and encode are all of the work and the store write path is idle",
		latency:    "one Enforcer.Check that needed the AM",
		throughput: "AM-resolved verdicts per second, 2 closed-loop clients",
		span:       spanCheck,
		replayOps:  5000,
		make:       func() workload { return &decideLoad{items: 1} },
	},
	{
		Name:       "page_batch",
		Why:        "16 never-repeating resources per CheckBatch: sign, verify and transport are paid once and token, realm and grant lookups are memoised, so per-item engine, audit and encode cost dominates",
		latency:    "one Enforcer.CheckBatch of 16 resources",
		throughput: "AM-resolved batch items per second, 2 closed-loop clients",
		span:       spanCheckBatch,
		replayOps:  1000,
		make:       func() workload { return &decideLoad{items: 16} },
	},
	{
		Name:       "policy_write",
		Why:        "owners' PAP writes only: every op is an fsynced group-commit WAL write plus index invalidation and event publish with the decision path idle, and snapshots every 5 s put compactions inside the run",
		latency:    "one acknowledged PAP write (create 50%, update 30%, re-link 10%, delete 10%)",
		throughput: "acknowledged writes per second, 2 closed-loop clients",
		span:       spanWrite,
		replayOps:  2000,
		make:       func() workload { return &writeLoad{} },
	},
	{
		Name:       "host_mix",
		Why:        "a Host's cached Zipf reads beside 100 owner and requester ops/s on the same owners, with invalidation streams and one revocation a second: where a gain for reads can cost writes, or the reverse",
		latency:    "one UpdatePolicy beside the read load, timed from when it was due (open loop, 50/s)",
		throughput: "all of the Host's Check calls per second, cache hits and misses together",
		span:       spanCheck, // the reads that missed the cache
		replayOps:  5000,
		make:       func() workload { return &mixLoad{} },
	},
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.Name
	}
	return names
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// sizing is everything that scales a run besides its length.
type sizing struct {
	owners, zipfPairs, warmupOps int
	// setups is how many times set-up runs; setup_s is their median.
	setups, slices         int
	replayOps, ladderScale int
}

func sizingFor(w workloadDef, smoke bool) sizing {
	if smoke {
		return sizing{owners: 8, zipfPairs: 256, warmupOps: 100, setups: 1, slices: 10, replayOps: max(w.replayOps/20, 100), ladderScale: 20}
	}
	return sizing{owners: 64, zipfPairs: 2048, warmupOps: 2000, setups: 3, slices: 20, replayOps: w.replayOps, ladderScale: 1}
}

type config struct {
	root, bin, out string
	seconds        float64
	trace, smoke   bool
	logf           func(format string, args ...any)
}

// metricValue is one reported number with what is needed to judge it.
type metricValue struct {
	value   float64
	samples int
	// q1 and q3 are the quartiles of the per-slice (or per-set-up) values
	// the reported value is the median of; NaN when there are none.
	q1, q3 float64
}

// report is the outcome of one run of one workload.
type report struct {
	workload          string
	seed              int64
	attempted, failed int64
	// lostWrites counts acknowledged writes missing after the SIGKILL +
	// restart drill; they are also counted in failed.
	lostWrites int
	metrics    map[string]metricValue
	budget     string
}

func (r *report) correct() bool { return r.failed == 0 }

// live is a server that is set up and warm.
type live struct {
	dir string
	srv *server
	e   *env
	w   workload
}

func (l *live) tearDown() {
	if l.e != nil {
		closeClients(l.e.clients)
	}
	if l.srv != nil {
		l.srv.kill()
	}
}

// setUp spawns a server, builds the fixture through the SDKs and warms the
// workload up, returning how long all of that took.
func setUp(ctx context.Context, cfg config, def workloadDef, seed int64, sz sizing) (l *live, took time.Duration, err error) {
	l = &live{}
	if err := os.MkdirAll(filepath.Join(cfg.root, ".bench_build", "tmp"), 0o755); err != nil {
		return nil, 0, err
	}
	// State lives inside the checkout, so the WAL is fsynced on the same
	// filesystem from run to run.
	if l.dir, err = os.MkdirTemp(filepath.Join(cfg.root, ".bench_build", "tmp"), def.Name+"-"); err != nil {
		return nil, 0, err
	}
	defer func() {
		if err != nil {
			if l.srv != nil {
				cfg.logf("set-up failed; last lines of %s:\n%s", l.srv.logPath, l.srv.logTail(40))
			}
			l.tearDown()
		}
	}()
	t0 := time.Now()
	if l.srv, err = startServer(ctx, cfg.bin, l.dir); err != nil {
		return l, 0, err
	}
	if l.e, l.w, err = warmEnv(ctx, l.srv.url, def, seed, sz, max(runtime.NumCPU(), 2), nil); err != nil {
		return l, 0, err
	}
	return l, time.Since(t0), nil
}

// warmEnv builds the clients and the fixture against the AM at amURL and
// prepares and warms the workload up: everything of set-up but the server.
func warmEnv(ctx context.Context, amURL string, def workloadDef, seed int64, sz sizing, clients int, wrap func(http.RoundTripper) http.RoundTripper) (*env, workload, error) {
	e := &env{clients: newClients(clients, seed, wrap), sz: sz}
	w := def.make()
	var err error
	if e.fx, err = buildFixture(ctx, amURL, seed, sz.owners, e.clients); err == nil {
		if err = w.prepare(ctx, e); err == nil {
			err = w.warmup(ctx, e)
		}
	}
	if err != nil {
		closeClients(e.clients)
		return nil, nil, err
	}
	return e, w, nil
}

// healthSample is one reading of /v1/healthz during the timed window.
type healthSample struct {
	at       time.Duration
	walBytes int64
	depth    int
}

// sampleHealth polls /v1/healthz once per slice until stop is closed.
func sampleHealth(srv *server, every time.Duration, stop <-chan struct{}) <-chan []healthSample {
	out := make(chan []healthSample, 1)
	go func() {
		hc := newHTTPClient(nil)
		defer hc.CloseIdleConnections()
		var samples []healthSample
		start := time.Now()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			if h, err := srv.health(hc); err == nil {
				samples = append(samples, healthSample{time.Since(start), h.Store.WALBytes, h.Audit.PipelineDepth})
			}
			select {
			case <-stop:
				out <- samples
				return
			case <-tick.C:
			}
		}
	}()
	return out
}

// walBytesPerWrite divides the log's growth between two health samples by
// the writes acknowledged between them, over the intervals in which no
// compaction truncated the log.
func walBytesPerWrite(samples []healthSample, writeDone []time.Duration) float64 {
	var bytes, writes float64
	for i := 1; i < len(samples); i++ {
		delta := samples[i].walBytes - samples[i-1].walBytes
		if delta <= 0 {
			continue
		}
		bytes += float64(delta)
		for _, d := range writeDone {
			if d > samples[i-1].at && d <= samples[i].at {
				writes++
			}
		}
	}
	if writes == 0 {
		return 0
	}
	return bytes / writes
}

// runOnce sets the workload up, measures one timed window and, with
// cfg.trace, the per-layer numbers.
func runOnce(ctx context.Context, cfg config, def workloadDef, seed int64) (*report, error) {
	sz := sizingFor(def, cfg.smoke)
	window := time.Duration(cfg.seconds * float64(time.Second))
	rep := &report{workload: def.Name, seed: seed, metrics: make(map[string]metricValue)}

	// Set-up, several times over; the last one is kept for the window.
	var l *live
	var setups, rss []float64
	for i := 0; i < sz.setups; i++ {
		if l != nil {
			l.tearDown()
			os.RemoveAll(l.dir)
		}
		var took time.Duration
		var err error
		if l, took, err = setUp(ctx, cfg, def, seed, sz); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.Name, err)
		}
		// Resident memory at the end of warm-up: a fixed op count into the
		// server's life, the same point every time.
		warm, err := l.srv.rssBytes()
		if err != nil {
			l.tearDown()
			return nil, err
		}
		setups, rss = append(setups, took.Seconds()), append(rss, warm/(1<<20))
		cfg.logf("%s: set-up %d of %d took %.3fs, server RSS %.1f MB", def.Name, i+1, sz.setups, took.Seconds(), warm/(1<<20))
	}
	defer l.tearDown()
	srv := l.srv
	probeClient := newHTTPClient(nil)
	defer probeClient.CloseIdleConnections()

	// The timed window, bracketed by the outside readings.
	rssWarm := rss[len(rss)-1] * (1 << 20)
	routes0, err := srv.routeTotals(probeClient)
	if err != nil {
		return nil, err
	}
	stopHealth := make(chan struct{})
	health := sampleHealth(srv, window/time.Duration(sz.slices), stopHealth)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	m := l.w.run(ctx, l.e, window)
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	close(stopHealth)
	healthSamples := <-health
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	routes1, err := srv.routeTotals(probeClient)
	if err != nil {
		return nil, err
	}
	rssEnd, err := srv.rssBytes()
	if err != nil {
		return nil, err
	}
	rep.attempted, rep.failed = m.attempted, m.failed

	// End-to-end metrics.
	perSetup := func(v []float64) metricValue {
		mv := metricValue{median(v), len(v), math.NaN(), math.NaN()}
		if len(v) > 1 {
			mv.q1, mv.q3 = quartiles(v)
		}
		return mv
	}
	rep.metrics["setup_s"] = perSetup(setups)
	rep.metrics["server_rss_mb"] = perSetup(rss)
	for _, p := range []struct {
		name string
		q    float64
	}{{"latency_p50_us", 0.50}, {"latency_p99_us", 0.99}} {
		st := slicePercentile(m.lat, window, slicesFor(len(m.lat), p.q, sz.slices), p.q)
		mv := metricValue{st.value(), st.samples, math.NaN(), math.NaN()}
		if len(st.perSlice) > 1 {
			mv.q1, mv.q3 = quartiles(st.perSlice)
		}
		rep.metrics[p.name] = mv
	}
	rates := make([]float64, len(m.sliceUnits))
	for i, u := range m.sliceUnits {
		rates[i] = float64(u) * float64(sz.slices) / window.Seconds()
	}
	q1, q3 := quartiles(rates)
	rep.metrics["throughput_per_s"] = metricValue{median(rates), int(m.units), q1, q3}
	rep.metrics["server_cpu_us_per_op"] = metricValue{(cpu1 - cpu0) * 1e6 / float64(max(m.serverOps, 1)), int(m.serverOps), math.NaN(), math.NaN()}

	if cfg.trace {
		// Ops the window did not contain are taken on the now quiet server.
		if err := drill(ctx, l.e, m); err != nil {
			return nil, fmt.Errorf("%s: %w", def.Name, err)
		}
	}
	// The crash drill: SIGKILL, restart on the same state, read back what
	// the workload was told is durable.
	srv.kill()
	t0 := time.Now()
	if err := srv.start(ctx); err != nil {
		return nil, fmt.Errorf("%s: restart after SIGKILL: %w\n%s", def.Name, err, srv.logTail(40))
	}
	recovery := time.Since(t0)
	checked, lost := l.w.verify(l.e)
	rep.attempted += int64(checked)
	rep.failed += int64(lost)
	rep.lostWrites = lost
	if !cfg.trace {
		l.tearDown()
		os.RemoveAll(l.dir)
		return rep, nil
	}

	// Per-layer metrics: first what the spawned run showed from outside.
	layer := func(name string, v float64) {
		rep.metrics[name] = metricValue{value: v, q1: math.NaN(), q3: math.NaN()}
	}
	ops := float64(max(m.attempted, 1))
	layer("amclient.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/ops)
	layer("amclient.bytes_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/ops)
	layer("am.route_mean_us", (routes1.totalUS-routes0.totalUS)/max(routes1.count-routes0.count, 1))
	layer("store.wal_bytes_per_write", walBytesPerWrite(healthSamples, m.writeDone))
	layer("store.recovery_ms", float64(recovery)/float64(time.Millisecond))
	depth := 0
	for _, h := range healthSamples {
		depth = max(depth, h.depth)
	}
	layer("audit.pipeline_depth_max", float64(depth))
	layer("pep.cache_hit_ratio", float64(m.cacheHits)/float64(max(m.cacheHits+m.cacheMisses, 1)))
	layer("pep.cache_evictions", float64(m.cacheEvictions))
	layer("pep.miss_p50_us", latencyP50(m.miss))
	layer("amserver.token_issue_p50_us", durationsP50(m.token, time.Microsecond))
	layer("events.revoke_visible_p50_ms", durationsP50(m.revoke, time.Millisecond))
	layer("amserver.rss_growth_bytes_per_op", (rssEnd-rssWarm)/float64(max(m.serverOps, 1)))
	late := make([]float64, len(m.late))
	for i, d := range m.late {
		late[i] = float64(d) / float64(time.Microsecond)
	}
	sort.Float64s(late)
	layer("bench.generator_late_p99_us", quantile(late, 0.99))
	l.tearDown()

	// Then the in-process replay with spans, and the ladder.
	spawnedP50 := latencyP50(m.lat)
	if def.Name == "host_mix" {
		spawnedP50 = latencyP50(m.miss) // the replayed chain is a Check miss
	}
	rr, ladder, err := replayAndLadder(ctx, cfg, def, seed, sz, l.dir)
	if err != nil {
		return nil, fmt.Errorf("%s: traced replay: %w", def.Name, err)
	}
	for name, v := range ladder {
		layer(name, v)
	}
	mm := midmean(rr.chains)
	totals := make([]float64, len(rr.chains))
	for i, c := range rr.chains {
		totals[i] = c.total
	}
	layer("sdk.call_self_us", mm.callSelf)
	layer("amclient.roundtrip_self_us", mm.rtSelf)
	layer("am.handler_us", mm.handler)
	layer("amclient.req_bytes", mm.reqBytes)
	layer("amclient.resp_bytes", mm.respBytes)
	layer("bench.traced_call_p50_us", median(totals))
	layer("bench.trace_overhead_pct", rr.overheadPct())
	layer("bench.inproc_gap_us", spawnedP50-median(totals))
	rep.budget = formatBudget(def, mm, median(totals), ladder, spawnedP50)
	layer("am.handler_self_us", handlerSelf(def.Name, mm, ladder))
	os.RemoveAll(l.dir)
	return rep, nil
}

// replayAndLadder runs the workload's ops against an in-process AM, once
// with the span wrappers off and once with them on, then the ladder.
func replayAndLadder(ctx context.Context, cfg config, def workloadDef, seed int64, sz sizing, dir string) (replayResult, map[string]float64, error) {
	var rr replayResult
	tr := newTracer()
	ip, err := startInproc(dir, tr)
	if err != nil {
		return rr, nil, err
	}
	defer ip.close()
	e, w, err := warmEnv(ctx, ip.url, def, seed, sz, 2, tr.transport)
	if err != nil {
		return rr, nil, err
	}
	defer closeClients(e.clients)
	remoteP50 := func(ops []opResult) (float64, error) {
		var v []float64
		for _, op := range ops {
			if !op.ok {
				return 0, fmt.Errorf("a replayed op failed")
			}
			if op.remote {
				v = append(v, float64(op.lat)/float64(time.Microsecond))
			}
		}
		if len(v) == 0 {
			return 0, fmt.Errorf("no replayed op reached the AM")
		}
		return median(v), nil
	}
	if rr.offP50, err = remoteP50(w.replay(ctx, e, sz.replayOps)); err != nil {
		return rr, nil, err
	}
	tr.on.Store(true)
	e.tr = tr
	rr.onP50, err = remoteP50(w.replay(ctx, e, sz.replayOps))
	tr.on.Store(false)
	e.tr = nil
	if err != nil {
		return rr, nil, err
	}
	if err := ctx.Err(); err != nil {
		return rr, nil, err
	}
	rr.chains = chains(tr.spans, def.span)
	if len(rr.chains) < 4 {
		return rr, nil, fmt.Errorf("only %d traced requests crossed all layers", len(rr.chains))
	}
	ladder, err := runLadder(ctx, ip.am, e.fx, e.clients[0].pep, dir, sz.ladderScale)
	if err != nil {
		return rr, nil, err
	}
	path := filepath.Join(cfg.out, "trace-"+def.Name+".json")
	if err := tr.write(path, def.Name); err != nil {
		return rr, nil, err
	}
	cfg.logf("%s: %d spans written to %s", def.Name, len(tr.spans), path)
	return rr, ladder, nil
}

// fingerprint says where the numbers were taken, so they are read as this
// sandbox's and not a device's or a link's.
func fingerprint(root string, seed int64) map[string]any {
	read := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(data))
	}
	cpu := "unknown"
	for _, line := range strings.Split(read("/proc/cpuinfo"), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			cpu = strings.TrimSpace(v)
			break
		}
	}
	commit := "unknown (not a git checkout)"
	git := exec.Command("git", "rev-parse", "HEAD")
	git.Dir = root
	if out, err := git.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"cpu": cpu, "kernel": read("/proc/sys/kernel/osrelease"), "commit": commit, "seed": seed,
		"flush":   "amserver -fsync: every WAL commit is fsynced; state under .bench_build/tmp on the checkout's filesystem",
		"network": "all traffic crossed loopback (127.0.0.1) between two processes on one machine",
	}
}

func printReport(cfg config, def workloadDef, rep *report) {
	fmt.Printf("\n== %s seed=%d seconds=%g trace=%v ==\n", rep.workload, rep.seed, cfg.seconds, cfg.trace)
	fmt.Printf("   latency    = %s\n   throughput = %s\n", def.latency, def.throughput)
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	for _, d := range defs {
		mv := rep.metrics[d.Name]
		line := fmt.Sprintf("%-34s %16.4f %-6s", d.Name, mv.value, d.Unit)
		if mv.samples > 0 {
			line += fmt.Sprintf(" n=%d", mv.samples)
		}
		if !math.IsNaN(mv.q1) {
			line += fmt.Sprintf(" quartiles=[%.4f, %.4f]", mv.q1, mv.q3)
		}
		if d.Bound > 0 {
			line += fmt.Sprintf(" (%s is better; regression bound %.0f%%)", d.Better, d.Bound*100)
		}
		fmt.Println(line)
	}
	share := float64(rep.failed) / float64(max(rep.attempted, 1))
	fmt.Printf("%-34s %16.6f        (%d of %d; must be 0)\n", "failed_share", share, rep.failed, rep.attempted)
	fmt.Printf("%-34s %16d        (acknowledged writes unreadable after SIGKILL + restart; must be 0)\n", "lost_writes", rep.lostWrites)
	if rep.budget != "" {
		fmt.Print("\n" + rep.budget)
	}
}

// resultLine is the machine-readable last line of a run.
func resultLine(cfg config, rep *report) string {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type mj struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]mj, len(defs))
	for _, d := range defs {
		v := rep.metrics[d.Name].value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = math.MaxFloat64 // JSON has no Inf; only a failed run gets here
		}
		metrics[d.Name] = mj{v, d.Unit}
	}
	data, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mj `json:"metrics"`
	}{rep.correct(), max(rep.attempted, 1), rep.failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	return string(data)
}

// printRepeat summarises N runs of one workload per metric.
func printRepeat(cfg config, name string, reps []*report) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Printf("\n== %s: %d runs ==\n%-34s %14s %14s %14s %10s %10s\n", name, len(reps),
		"metric", "median", "q1", "q3", "iqr/med", "range/med")
	for _, d := range defs {
		v := make([]float64, len(reps))
		for i, r := range reps {
			v[i] = r.metrics[d.Name].value
		}
		med := median(v)
		q1, q3 := med, med
		if len(v) > 1 {
			q1, q3 = quartiles(v)
		}
		sort.Float64s(v)
		fmt.Printf("%-34s %14.4f %14.4f %14.4f %10.4f %10.4f\n", d.Name, med, q1, q3,
			(q3-q1)/med, (v[len(v)-1]-v[0])/med)
	}
}

func run() int {
	var (
		root      = flag.String("root", "", "checkout root (default: the working directory, or its parent when run from benchmark/)")
		workloads = flag.String("workload", "all", "workload to run, a comma-separated list, or \"all\": "+strings.Join(workloadNames(), ", "))
		seed      = flag.Int64("seed", 1, "seed of every generated input")
		seconds   = flag.Float64("seconds", 20, "length of the timed window")
		trace     = flag.Int("trace", 0, "1: also run the traced in-process replay and the ladder, and report the per-layer metrics instead of the end-to-end ones")
		repeat    = flag.Int("repeat", 1, "run each selected workload this many times and print median, quartiles and spread per metric")
		smoke     = flag.Bool("smoke", false, "small sizing (8 owners, short warm-up, one set-up) for tests")
		out       = flag.String("out", "", "directory for trace-<workload>.json (default <root>/.bench_build/out)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "umacbench: bad arguments; see -h")
		return 2
	}
	cfg := config{root: *root, seconds: *seconds, trace: *trace == 1, smoke: *smoke, out: *out}
	cfg.logf = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	if cfg.root == "" {
		cfg.root = "."
		if _, err := os.Stat("cmd/amserver"); err != nil {
			cfg.root = ".."
		}
	}
	var err error
	if cfg.root, err = filepath.Abs(cfg.root); err != nil {
		cfg.logf("umacbench: %v", err)
		return 2
	}
	if cfg.out == "" {
		cfg.out = filepath.Join(cfg.root, ".bench_build", "out")
	}
	var defs []workloadDef
	for _, name := range strings.Split(*workloads, ",") {
		if name == "all" {
			defs = append(defs, workloadDefs...)
			continue
		}
		def, ok := workloadByName(name)
		if !ok {
			cfg.logf("umacbench: unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
			return 2
		}
		defs = append(defs, def)
	}

	// SIGINT and SIGTERM cancel the context; every loop watches it and
	// every server is killed and reaped on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if cfg.bin, err = buildServer(ctx, cfg.root); err != nil {
		cfg.logf("umacbench: %v", err)
		return 1
	}
	fp, _ := json.Marshal(fingerprint(cfg.root, *seed))
	fmt.Printf("environment %s\n", fp)

	failed := false
	var last string
	for _, def := range defs {
		var reps []*report
		for i := 0; i < *repeat; i++ {
			rep, err := runOnce(ctx, cfg, def, *seed)
			if err != nil {
				cfg.logf("umacbench: %v", err)
				if errors.Is(err, context.Canceled) {
					return 130
				}
				return 1
			}
			printReport(cfg, def, rep)
			reps = append(reps, rep)
			failed = failed || !rep.correct()
			last = resultLine(cfg, rep)
		}
		if *repeat > 1 {
			printRepeat(cfg, def.Name, reps)
		}
	}
	// The contract's last line: the result of the (last) run.
	fmt.Println(last)
	if failed {
		cfg.logf("umacbench: FAILED: wrong or missing outputs (failed_share or lost_writes above 0)")
		return 1
	}
	return 0
}

func main() { os.Exit(run()) }
