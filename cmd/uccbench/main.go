// Command uccbench runs the paper-reproduction experiments and prints their
// tables/series (`uccbench -list` is the experiment index; see
// docs/ARCHITECTURE.md).
//
// Usage:
//
//	uccbench                 # run every experiment
//	uccbench -exp EXP-1      # run one experiment
//	uccbench -quick          # smaller sweeps (CI-scale)
//	uccbench -seed 7         # change the random seed
//	uccbench -list           # list experiments
//
// Bench-gate mode (CI):
//
//	go test -run '^$' -bench ... | tee bench.out
//	uccbench -check bench.out -baseline BENCH_baseline.json -tolerance 0.20
//
// compares the measured count/ratio metrics against the checked-in baseline
// and exits 1 on a regression beyond the tolerance — or on a baseline
// benchmark missing from the output entirely (pass -require <regexp> to scope
// which entries a deliberately-partial run owes).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ucc/internal/experiments"
)

func main() {
	var (
		expID = flag.String("exp", "", "run a single experiment by id (e.g. EXP-1)")
		quick = flag.Bool("quick", false, "smaller sweeps and horizons")
		seed  = flag.Int64("seed", 1988, "random seed")
		list  = flag.Bool("list", false, "list experiments and exit")

		checkFile = flag.String("check", "", "bench-gate mode: compare this `go test -bench` output against -baseline and exit 1 on regression")
		baseline  = flag.String("baseline", "BENCH_baseline.json", "baseline file for -check")
		tolerance = flag.Float64("tolerance", 0.20, "relative metric regression that fails -check")
		require   = flag.String("require", "", "regexp of baseline benchmark names that must appear in the -check output; empty requires ALL of them — a baseline entry missing from the run fails loudly instead of being skipped")
	)
	flag.Parse()

	if *checkFile != "" {
		os.Exit(check(*checkFile, *baseline, *tolerance, *require))
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-7s %s\n        claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return
	}

	cfg := experiments.RunConfig{Quick: *quick, Seed: *seed}
	var todo []experiments.Experiment
	if *expID != "" {
		e, ok := experiments.ByID(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "uccbench: unknown experiment %q (try -list)\n", *expID)
			os.Exit(2)
		}
		todo = []experiments.Experiment{e}
	} else {
		todo = experiments.All()
	}

	for _, e := range todo {
		start := time.Now()
		res := e.Run(cfg)
		fmt.Print(res.String())
		fmt.Printf("(%s in %.1fs)\n\n", e.ID, time.Since(start).Seconds())
	}
}
