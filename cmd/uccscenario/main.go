// Command uccscenario runs declarative system scenarios from the
// internal/scenario library: phased workloads, scheduled faults, and
// invariant checkpoints, reported as a console table or a machine-diffable
// JSON run record.
//
// Usage:
//
//	uccscenario -list                 # list scenarios
//	uccscenario -run flash-crowd      # run one scenario
//	uccscenario -smoke                # run the CI smoke set (scenario.Smoke)
//	uccscenario -all                  # run the whole library
//	uccscenario -run diurnal -json    # emit the JSON run record on stdout
//	uccscenario -all -out dir/        # also write one JSON record per run
//	uccscenario -run ycsb-a -seed 7   # override the scenario seed
//
// Exit status: 0 when every executed scenario passed its checkpoints, 1 when
// any check failed, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ucc/internal/scenario"
)

func main() {
	var (
		list   = flag.Bool("list", false, "list scenarios and exit")
		run    = flag.String("run", "", "run a single scenario by name")
		all    = flag.Bool("all", false, "run every scenario in the library")
		smoke  = flag.Bool("smoke", false, "run the CI smoke set (overload, crash-and-recover, failover and rebalance scenarios)")
		asJSON = flag.Bool("json", false, "emit JSON run records on stdout instead of console tables")
		outDir = flag.String("out", "", "also write one <scenario>.json run record per scenario into this directory")
		seed   = flag.Int64("seed", 0, "override the scenario seed (0 keeps each scenario's own)")
	)
	flag.Parse()

	if *list {
		for _, s := range scenario.Library() {
			fmt.Printf("%-24s %s\n", s.Name, s.Description)
		}
		return
	}

	var todo []scenario.Scenario
	switch {
	case *run != "":
		s, ok := scenario.ByName(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "uccscenario: unknown scenario %q (try -list)\n", *run)
			os.Exit(2)
		}
		todo = []scenario.Scenario{s}
	case *smoke:
		todo = scenario.Smoke()
	case *all:
		todo = scenario.Library()
	default:
		fmt.Fprintln(os.Stderr, "uccscenario: nothing to do (use -list, -run <name>, -smoke, or -all)")
		os.Exit(2)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "uccscenario: %v\n", err)
			os.Exit(2)
		}
	}

	failed := false
	for _, s := range todo {
		start := time.Now()
		rec, err := scenario.Run(s, scenario.Options{Seed: *seed})
		if err != nil {
			fmt.Fprintf(os.Stderr, "uccscenario: %s: %v\n", s.Name, err)
			os.Exit(2)
		}
		if !rec.Passed {
			failed = true
		}
		if *asJSON {
			b, err := rec.JSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "uccscenario: %s: %v\n", s.Name, err)
				os.Exit(2)
			}
			fmt.Println(string(b))
		} else {
			rec.WriteText(os.Stdout)
			fmt.Printf("(%s in %.1fs)\n\n", s.Name, time.Since(start).Seconds())
		}
		if *outDir != "" {
			b, err := rec.JSON()
			if err == nil {
				err = os.WriteFile(filepath.Join(*outDir, s.Name+".json"), append(b, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "uccscenario: %s: %v\n", s.Name, err)
				os.Exit(2)
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}
