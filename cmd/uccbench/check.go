// Bench-gate mode: compare a `go test -bench` output file against the
// checked-in baseline (BENCH_baseline.json) and fail on a >tolerance
// throughput drop. This is what turns BENCH_baseline.json from a write-only
// artifact into a CI gate.
//
// What is gated: the benchmarks' custom metrics (txn/s, txns/op,
// commits/sync, …) — throughput-like, higher-is-better numbers by default. A
// baseline entry can list metric keys under "lower_is_better" (cost metrics
// like allocs_per_committed_txn) to invert the gate: those fail when the
// candidate value GROWS beyond tolerance. For the
// simulator benchmarks they measure virtual-time throughput and are
// near-deterministic across hardware; for ratio metrics (commits per sync)
// they are hardware-robust by construction. ns/op is not compared:
// wall-clock per-op cost does not transfer between runner generations, and
// timing belongs to bench/ (BENCHMARK.json).
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchSample is one parsed `go test -bench` result line.
type benchSample struct {
	Name    string
	NsPerOp float64
	Metrics map[string]float64
}

// baselineFile mirrors BENCH_baseline.json's flat benchmark list (the extra
// sections of that file are documentation; the gate reads only this).
type baselineFile struct {
	Benchmarks []baselineEntry `json:"benchmarks"`
}

type baselineEntry struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// LowerIsBetter lists the metric keys (normalized form, e.g.
	// "allocs_per_committed_txn") whose gate direction is inverted: an
	// INCREASE beyond tolerance fails, a decrease is an improvement. Metrics
	// not listed keep the default higher-is-better throughput semantics.
	LowerIsBetter []string `json:"lower_is_better,omitempty"`
}

// lowerIsBetter reports whether the entry gates key in the inverted
// direction.
func (b baselineEntry) lowerIsBetter(key string) bool {
	for _, k := range b.LowerIsBetter {
		if k == key {
			return true
		}
	}
	return false
}

// benchLine matches e.g.
//
//	BenchmarkReadPathThroughput-4   3   123456 ns/op   456.7 txn/s
//	BenchmarkReadWriteThroughput/shards=4-8   1   99 ns/op   1000 txn/s
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.e+]+) ns/op((?:\s+[\d.e+]+ \S+)*)\s*$`)

// metricPair matches the trailing custom metrics of a bench line.
var metricPair = regexp.MustCompile(`([\d.e+]+) (\S+)`)

// normalizeMetric converts a go-bench metric unit to a baseline JSON key:
// "txns/op" → "txns_per_op", "txn/s" → "txn_per_s".
func normalizeMetric(unit string) string {
	return strings.ReplaceAll(unit, "/", "_per_")
}

// parseBenchOutput extracts samples from `go test -bench` output. Repeated
// runs of the same benchmark keep the LAST sample (matching `-count`
// semantics where later runs are warmed).
func parseBenchOutput(r io.Reader) ([]benchSample, error) {
	byName := map[string]int{}
	var out []benchSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		s := benchSample{Name: m[1], NsPerOp: ns, Metrics: map[string]float64{}}
		for _, mp := range metricPair.FindAllStringSubmatch(m[3], -1) {
			if v, err := strconv.ParseFloat(mp[1], 64); err == nil {
				s.Metrics[normalizeMetric(mp[2])] = v
			}
		}
		if i, dup := byName[s.Name]; dup {
			out[i] = s
		} else {
			byName[s.Name] = len(out)
			out = append(out, s)
		}
	}
	return out, sc.Err()
}

// checkResult is one delta-table row: a metric comparison (kind empty, what
// names the metric), a "missing" row (baseline entry absent from the run:
// fails unless scoped out), or a "new" row (run benchmark absent from the
// baseline: informational, so freshly added benchmarks are visible in the
// log before their baseline lands). kind is a separate field so a metric
// that happens to be named "missing" or "new" cannot collide with the row
// types.
type checkResult struct {
	name   string
	kind   string // "" (metric comparison), "missing", or "new"
	what   string // metric key
	base   float64
	got    float64
	change float64 // relative change of the measured value vs the baseline
	lower  bool    // gate direction: true = an increase is the regression
	failed bool
}

// improved reports whether the change moved in the metric's good direction.
func (r checkResult) improved() bool {
	if r.change == 0 {
		return false
	}
	return (r.change > 0) != r.lower
}

// runCheck compares samples against the baseline. A baseline entry missing
// from the candidate output FAILS the gate (reported as "MISS") unless its
// name is excluded by `require`: a benchmark silently skipped is a benchmark
// silently ungated, which is how a renamed or typo'd bench regex turns the
// gate green while gating nothing. `require` (nil = every baseline entry)
// lets a CI job that deliberately runs a subset say which entries it owes.
func runCheck(base baselineFile, samples []benchSample, tolerance float64, require *regexp.Regexp) ([]checkResult, error) {
	byName := map[string]benchSample{}
	for _, s := range samples {
		byName[s.Name] = s
	}
	var out []checkResult
	matched := 0
	for _, b := range base.Benchmarks {
		s, ok := byName[b.Name]
		if !ok {
			if require == nil || require.MatchString(b.Name) {
				out = append(out, checkResult{
					name: b.Name, kind: "missing", failed: true,
				})
			}
			continue
		}
		matched++
		for key, bv := range b.Metrics {
			gv, ok := s.Metrics[key]
			if !ok || bv <= 0 {
				continue
			}
			change := gv/bv - 1
			lower := b.lowerIsBetter(key)
			failed := change < -tolerance
			if lower {
				// Inverted direction (cost metrics like allocs per committed
				// txn): growing beyond tolerance is the regression.
				failed = change > tolerance
			}
			out = append(out, checkResult{
				name: b.Name, what: key, base: bv, got: gv, change: change,
				lower: lower, failed: failed,
			})
		}
	}
	// Samples without a baseline entry print as informational "new" rows:
	// the full delta table always shows everything the run measured, so CI
	// logs carry the perf trajectory of fresh benchmarks from day one.
	known := map[string]bool{}
	for _, b := range base.Benchmarks {
		known[b.Name] = true
	}
	for _, s := range samples {
		// parseBenchOutput already dedupes by name; the known-map guard also
		// keeps this loop one-row-per-benchmark for any direct caller.
		if !known[s.Name] {
			known[s.Name] = true
			out = append(out, checkResult{name: s.Name, kind: "new", got: s.NsPerOp})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].what < out[j].what
	})
	if matched == 0 {
		return out, fmt.Errorf("no benchmark in the output matches any baseline entry")
	}
	return out, nil
}

// check is the -check entry point; returns the process exit code.
// requireExpr scopes which baseline entries MUST be present in the bench
// output ("" requires all of them — missing is a loud failure, not a skip).
func check(benchFile, basePath string, tolerance float64, requireExpr string) int {
	var require *regexp.Regexp
	if requireExpr != "" {
		re, err := regexp.Compile(requireExpr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "uccbench: -require: %v\n", err)
			return 2
		}
		require = re
	}
	f, err := os.Open(benchFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "uccbench: %v\n", err)
		return 2
	}
	defer f.Close()
	samples, err := parseBenchOutput(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "uccbench: parse %s: %v\n", benchFile, err)
		return 2
	}
	raw, err := os.ReadFile(basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "uccbench: %v\n", err)
		return 2
	}
	var base baselineFile
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "uccbench: parse %s: %v\n", basePath, err)
		return 2
	}
	results, checkErr := runCheck(base, samples, tolerance, require)
	// The full delta table prints on pass AND fail — including the
	// zero-matches failure, where the MISS/NEW rows are exactly what reveals
	// a renamed suite or typo'd -bench regex.
	// A green gate whose log
	// shows only "pass" hides the perf trajectory — steady −5% drifts that
	// never individually trip the tolerance stay invisible until they have
	// compounded into a regression nobody can bisect.
	failures, compared, improved, regressed, fresh := 0, 0, 0, 0, 0
	fmt.Printf("bench gate: %s vs %s (tolerance %.0f%%)\n", benchFile, basePath, tolerance*100)
	for _, r := range results {
		switch r.kind {
		case "missing":
			failures++
			fmt.Printf("  MISS %-45s not in the bench output (renamed? typo'd -bench regex? scope with -require)\n", r.name)
			continue
		case "new":
			fresh++
			fmt.Printf("  NEW  %-45s %-16s %32.1f ns/op (no baseline entry yet)\n", r.name, "", r.got)
			continue
		}
		compared++
		switch {
		case r.improved():
			improved++
		case r.change != 0:
			regressed++
		}
		verdict := "ok"
		if r.failed {
			verdict = "FAIL"
			failures++
		}
		what := r.what
		if r.lower {
			what += " (lower=better)"
		}
		fmt.Printf("  %-4s %-45s %-30s base %14.1f  got %14.1f  (%+.1f%%)\n",
			verdict, r.name, what, r.base, r.got, r.change*100)
	}
	fmt.Printf("bench gate: %d comparison(s): %d improved, %d regressed, %d new benchmark(s) without baseline\n",
		compared, improved, regressed, fresh)
	if checkErr != nil {
		fmt.Fprintf(os.Stderr, "uccbench: check: %v\n", checkErr)
		return 1
	}
	if failures > 0 {
		fmt.Printf("bench gate: %d failure(s) (regressions beyond %.0f%% or missing benchmarks)\n", failures, tolerance*100)
		return 1
	}
	fmt.Println("bench gate: pass")
	return 0
}
