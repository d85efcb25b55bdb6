// Command bench is the repository's benchmark: it assembles, in one
// process, the deployment cmd/uccnode and cmd/uccclient describe — three
// site runtimes and one client runtime, each behind its own transport.Node
// on a loopback TCP port — drives it with a seeded closed-loop load
// generator, checks the outputs, and reports end-to-end and per-layer
// metrics by the names BENCHMARK.json lists. README.md documents the
// workloads, the metrics and how they interact.
//
//	go run ./bench                                  # every workload, measured: end-to-end metrics
//	go run ./bench -trace 1                         # every workload, traced: per-layer metrics, drills
//	go run ./bench -workload hotspot_rw -trace 1    # one traced run
//	go run ./bench -selfcheck 2                     # same code twice, compared against the bounds
//
// The program under test is used only through its public constructors,
// counters and interfaces; all instrumentation lives in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
)

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "workload name, or all")
		seed         = flag.Int64("seed", 1, "seed of the transaction-shape generator")
		seconds      = flag.Int("seconds", runSeconds, "measured seconds per run; the schedule is fixed, so no other value is accepted")
		trace        = flag.Int("trace", 0, "0: measured run, end-to-end metrics; 1: traced run and drills, per-layer metrics")
		traceOut     = flag.String("trace-out", "", "with -trace 1 and one workload: also keep one span per actor call and write them, with the summary, to this JSON file")
		out          = flag.String("out", "", "write every run's result to this JSON file")
		selfcheck    = flag.Int("selfcheck", 0, "run the measured benchmark this many times (at least 2) and compare the sets against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *seconds != runSeconds {
		fatalf("-seconds %d: every run measures %d seconds, so that runs can be compared", *seconds, runSeconds)
	}
	if *trace != 0 && *trace != 1 {
		fatalf("-trace %d: want 0 or 1", *trace)
	}
	traced := *trace == 1
	selected := workloads
	if *workloadFlag != "all" {
		w, ok := workloadByName(*workloadFlag)
		if !ok {
			fatalf("unknown workload %q", *workloadFlag)
		}
		selected = []workload{w}
	}
	if *traceOut != "" && (!traced || len(selected) != 1) {
		fatalf("-trace-out wants -trace 1 and a single -workload")
	}
	if *selfcheck != 0 && (*selfcheck < 2 || traced) {
		fatalf("-selfcheck wants at least 2 sets and compares measured runs only")
	}
	fmt.Printf("host: %d cpus, GOMAXPROCS %d, %s %s/%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	if *selfcheck != 0 {
		os.Exit(runSelfcheck(selected, *seed, *selfcheck, *out))
	}

	var results []*result
	for _, w := range selected {
		res, err := runWorkload(w, *seed, fullSchedule, traced, *traceOut)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		printResult(res, defs)
		if traced {
			printTrace(res)
			printReconciliation(res)
		} else {
			printUngated(res)
		}
		fmt.Println(res.contractJSON(defs))
		results = append(results, res)
	}
	if *out != "" {
		if err := writeJSON(*out, results); err != nil {
			fatalf("%v", err)
		}
	}
	for _, res := range results {
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// contractJSON renders the one-line result the benchmark driver reads: the
// last line a run prints, holding exactly the metrics of defs.
func (r *result) contractJSON(defs []metricDef) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range defs {
		v := r.Metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		line.Metrics[d.name] = value{v, d.unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatalf("encode result: %v", err) // finite floats and strings only: cannot happen
	}
	return string(b)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// printResult prints every metric of defs by name, with its unit.
func printResult(res *result, defs []metricDef) {
	kind := "measured"
	if res.Traced {
		kind = "traced"
	}
	verdict := "checks passed"
	if !res.Correct {
		verdict = "CHECKS FAILED"
	}
	fmt.Printf("\n== %s (%s run, seed %d): %d submitted, %d failed, %s\n", res.Workload, kind, res.Seed, res.Attempted, res.Failed, verdict)
	for _, p := range res.Problems {
		fmt.Printf("   problem: %s\n", p)
	}
	if res.Traced {
		fmt.Printf("   latency samples: plain windows %d\n", res.Samples["plain"])
	} else {
		fmt.Printf("   latency samples: sat %d, light %d; %d set-ups\n", res.Samples["sat"], res.Samples["light"], len(res.SetupSeconds))
	}
	for _, d := range defs {
		note := d.better + " is better"
		if d.bound > 0 {
			note += fmt.Sprintf(", bound %.0f%%", 100*d.bound)
		}
		fmt.Printf("   %-34s %14.4f %-6s (%s; %s)\n", d.name, res.Metrics[d.name], d.unit, note, d.from)
	}
}

// printUngated prints the measured run's numbers that are not gated.
func printUngated(res *result) {
	fmt.Println("   also measured, not gated:")
	for _, d := range ungated {
		fmt.Printf("   %-34s %14.4f %-6s (%s is better; %s)\n", d.name, res.Metrics[d.name], d.unit, d.better, d.from)
	}
}

// printTrace prints the heaviest (layer, site, message type) rows.
func printTrace(res *result) {
	const top = 15
	fmt.Printf("   trace: busiest of %d (layer, site, message) rows\n", len(res.Trace))
	for i, r := range res.Trace {
		if i == top {
			break
		}
		fmt.Printf("     %-8s site %2d %-18s %9d calls %12.0f us busy %9.1f us max\n", r.Layer, r.Site, r.Msg, r.Calls, r.BusyUs, r.MaxUs)
	}
}

// printReconciliation prints the row that says how much of the CPU per
// transaction the per-layer numbers explain.
func printReconciliation(res *result) {
	m := res.Metrics
	fmt.Printf("   reconciliation: proc.cpu_us_per_txn %.1f = actors %.1f (ri %.1f + qm %.1f + wal journal %.1f + deadlock %.1f + bench %.1f)"+
		" + transport %.1f (%.2f msgs x %.2f us) + local %.1f (%.2f deliveries x %.3f us) + unattributed %.1f\n",
		m["proc.cpu_us_per_txn"], actorBusy(m),
		m["ri.busy_us_per_txn"], m["qm.busy_us_per_txn"], m["wal.journal_us_per_txn"], m["deadlock.busy_us_per_txn"], m["bench.client_busy_us_per_txn"],
		transportTerm(m), m["transport.msgs_per_txn"], m["transport.stream_cpu_us_per_msg"],
		localTerm(m), m["engine.local_deliveries_per_txn"], m["engine.local_hop_ns"]/1e3,
		m["proc.unattributed_us_per_txn"])
}

// runSelfcheck runs the measured benchmark sets times on the same code and
// compares every (end-to-end metric, workload) pairing of each later set
// with the first against the metric's bound. It returns the exit code.
func runSelfcheck(selected []workload, seed int64, sets int, out string) int {
	all := make([][]*result, sets)
	for s := range all {
		for _, w := range selected {
			res, err := runWorkload(w, seed, fullSchedule, false, "")
			if err != nil {
				fatalf("selfcheck set %d, %s: %v", s+1, w.name, err)
			}
			printResult(res, endToEnd)
			all[s] = append(all[s], res)
		}
	}
	if out != "" {
		if err := writeJSON(out, all); err != nil {
			fatalf("%v", err)
		}
	}
	code := 0
	fmt.Printf("\n== selfcheck: %d sets of the same code, each later set against set 1\n", sets)
	fmt.Printf("   %-15s %-20s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set n", "worse by", "bound")
	for wi, w := range selected {
		first := all[0][wi]
		if !first.Correct {
			code = 1
		}
		for s := 1; s < sets; s++ {
			other := all[s][wi]
			if !other.Correct {
				code = 1
			}
			for _, d := range endToEnd {
				a, b := first.Metrics[d.name], other.Metrics[d.name]
				// The difference counts in either direction: the two sets
				// are the same code, so neither is the better one.
				diff := math.Abs(b-a) / math.Min(math.Abs(a), math.Abs(b))
				mark := ""
				switch {
				case diff <= d.bound:
				case d.name == "setup_s":
					// The gate compares set-up time between medians of many
					// runs only; a single run's does not repeat that well
					// (README.md, "Baseline").
					mark = "  exceeds bound (not enforced on single runs)"
				default:
					mark = "  EXCEEDS BOUND"
					code = 1
				}
				fmt.Printf("   %-15s %-20s %14.4f %14.4f %8.1f%% %6.0f%%%s\n", w.name, d.name, a, b, 100*diff, 100*d.bound, mark)
			}
		}
	}
	if code != 0 {
		fmt.Println(strings.ToUpper("selfcheck failed"))
	}
	return code
}
