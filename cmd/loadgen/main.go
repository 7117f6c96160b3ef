// Command loadgen runs the scenario-diverse load harness against real
// spawned amserver binaries, as a correctness drill at full size: it
// spawns a fresh 3-process sharded cluster per scenario, drives it, prints
// one line per phase (ops, p50/p99 latency, throughput, errors), and fails
// on any acknowledged write that was lost.
//
//	go run ./cmd/loadgen
//	go run ./cmd/loadgen -scenarios zipf_hot_owner,kill_migration -ops 200
//	go run ./cmd/loadgen -smoke -scenarios abusive_tenant
//
// The scenarios themselves are described in internal/loadgen; the repo's
// benchmark is benchmark/ (see docs/BENCHMARKS.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"umac/internal/loadgen"
)

func main() {
	var (
		scenarios = flag.String("scenarios", "", "comma-separated scenario names (default: all)")
		owners    = flag.Int("owners", 0, "owners per scenario (default: full-size)")
		ops       = flag.Int("ops", 0, "per-phase op budget (default: full-size)")
		seed      = flag.Int64("seed", 1, "random seed for every generator")
		smoke     = flag.Bool("smoke", false, "use CI smoke sizing instead of full-size")
		timeout   = flag.Duration("timeout", 20*time.Minute, "overall run deadline")
	)
	flag.Parse()

	opts := loadgen.FullOptions()
	if *smoke {
		opts = loadgen.SmokeOptions()
	}
	if *owners > 0 {
		opts.Owners = *owners
	}
	if *ops > 0 {
		opts.Ops = *ops
	}
	opts.Seed = *seed

	names := loadgen.ScenarioNames()
	if *scenarios != "" {
		names = strings.Split(*scenarios, ",")
		for _, name := range names {
			if _, ok := loadgen.Scenarios[name]; !ok {
				log.Fatalf("loadgen: unknown scenario %q (have %s)",
					name, strings.Join(loadgen.ScenarioNames(), ", "))
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := runScenarios(ctx, names, opts); err != nil {
		log.Fatalf("loadgen: %v", err)
	}
}

func runScenarios(ctx context.Context, names []string, opts loadgen.Options) error {
	workDir, err := os.MkdirTemp("", "loadgen-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	log.Printf("building amserver...")
	binary, err := loadgen.BuildServer(ctx, workDir)
	if err != nil {
		return err
	}

	for _, name := range names {
		log.Printf("=== scenario %s (owners=%d ops=%d seed=%d)", name, opts.Owners, opts.Ops, opts.Seed)
		dir := filepath.Join(workDir, name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		// A fresh cluster per scenario: kill_migration leaves migrated
		// owners and restarted processes behind, and isolation keeps the
		// per-scenario numbers comparable run over run.
		rig, err := loadgen.StartCluster(ctx, binary, dir, log.Printf, loadgen.ScenarioExtraArgs(name)...)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", name, err)
		}
		rec, err := loadgen.Scenarios[name](ctx, rig, opts)
		rig.Stop()
		if err != nil {
			return fmt.Errorf("scenario %s: %w", name, err)
		}
		if lost := rec.TotalLost(); lost != 0 {
			return fmt.Errorf("scenario %s lost %d acknowledged writes", name, lost)
		}
		for _, r := range rec.Records() {
			log.Printf("  %-45s n=%-5d p50=%-12s p99=%-12s %8.1f ops/s errs=%d",
				r.Name, r.N, time.Duration(r.P50Ns), time.Duration(r.P99Ns), r.OpsPerSec, r.Errors)
		}
	}
	return nil
}
