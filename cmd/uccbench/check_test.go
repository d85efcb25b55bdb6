package main

import (
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const sampleBenchOutput = `
goos: linux
goarch: amd64
pkg: ucc
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkReadPathThroughput-4         	       3	 512345678 ns/op	       500.0 txn/s
BenchmarkReadWriteThroughput/shards=1-4 	       1	1844275177 ns/op	         0.38 allocs/committed_txn	    274599 txn/s
BenchmarkReadWriteThroughput/shards=4-4 	       1	 922137588 ns/op	    549198 txn/s
BenchmarkCommitGroup16-4              	    2000	    240193 ns/op	         4.706 commits/sync
PASS
ok  	ucc	3.753s
`

func parsedSamples(t *testing.T) []benchSample {
	t.Helper()
	samples, err := parseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	return samples
}

func TestParseBenchOutput(t *testing.T) {
	samples := parsedSamples(t)
	if len(samples) != 4 {
		t.Fatalf("parsed %d samples, want 4: %+v", len(samples), samples)
	}
	byName := map[string]benchSample{}
	for _, s := range samples {
		byName[s.Name] = s
	}
	rp, ok := byName["BenchmarkReadPathThroughput"]
	if !ok {
		t.Fatalf("proc-count suffix not stripped: %+v", samples)
	}
	if rp.Metrics["txn_per_s"] != 500.0 {
		t.Fatalf("metric not normalized: %+v", rp.Metrics)
	}
	sub, ok := byName["BenchmarkReadWriteThroughput/shards=4"]
	if !ok || sub.Metrics["txn_per_s"] != 549198 {
		t.Fatalf("sub-benchmark parse wrong: %+v", sub)
	}
	if byName["BenchmarkCommitGroup16"].Metrics["commits_per_sync"] != 4.706 {
		t.Fatalf("ratio metric lost: %+v", byName["BenchmarkCommitGroup16"])
	}
}

func TestCheckPassesAgainstHonestBaseline(t *testing.T) {
	base := baselineFile{Benchmarks: []baselineEntry{
		{Name: "BenchmarkReadPathThroughput",
			Metrics: map[string]float64{"txn_per_s": 480}}, // we measure 500: improvement
		{Name: "BenchmarkCommitGroup16",
			Metrics: map[string]float64{"commits_per_sync": 4.5}},
		{Name: "BenchmarkNotRunThisTime", // scoped out by -require below
			Metrics: map[string]float64{"txn_per_s": 1e9}},
	}}
	results, err := runCheck(base, parsedSamples(t), 0.20,
		regexp.MustCompile("ReadPathThroughput|CommitGroup16"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.failed {
			t.Fatalf("unexpected failure: %+v", r)
		}
	}
}

// TestCheckFailsAgainstDegradedBaseline is the gate's own acceptance
// criterion: fed a baseline that claims much higher throughput than
// measured (equivalently: a PR that regressed throughput >20%), the check
// must fail.
func TestCheckFailsAgainstDegradedBaseline(t *testing.T) {
	base := baselineFile{Benchmarks: []baselineEntry{
		{Name: "BenchmarkReadPathThroughput",
			Metrics: map[string]float64{"txn_per_s": 1000}}, // measured 500 → −50%
	}}
	results, err := runCheck(base, parsedSamples(t), 0.20, nil)
	if err != nil {
		t.Fatal(err)
	}
	failed := false
	for _, r := range results {
		if r.failed && r.name == "BenchmarkReadPathThroughput" && r.what == "txn_per_s" {
			failed = true
		}
	}
	if !failed {
		t.Fatalf("50%% throughput drop passed the 20%% gate: %+v", results)
	}
}

// TestCheckToleranceBoundary: a drop inside the tolerance passes, one just
// beyond fails.
func TestCheckToleranceBoundary(t *testing.T) {
	mk := func(baselineTxn float64) []checkResult {
		base := baselineFile{Benchmarks: []baselineEntry{
			{Name: "BenchmarkReadPathThroughput", Metrics: map[string]float64{"txn_per_s": baselineTxn}},
		}}
		res, err := runCheck(base, parsedSamples(t), 0.20, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, r := range mk(600) { // measured 500 = −16.7%: inside
		if r.failed {
			t.Fatalf("−16.7%% drop failed a 20%% gate: %+v", r)
		}
	}
	var sawFail bool
	for _, r := range mk(640) { // measured 500 = −21.9%: beyond
		if r.failed {
			sawFail = true
		}
	}
	if !sawFail {
		t.Fatal("−21.9% drop passed a 20% gate")
	}
}

// TestCheckLowerIsBetterFailsOnIncrease is the allocs-gate acceptance
// criterion: a lower_is_better metric that GREW beyond tolerance (a PR that
// re-introduced per-txn allocations) must fail, even though the same delta
// would read as an improvement under throughput semantics.
func TestCheckLowerIsBetterFailsOnIncrease(t *testing.T) {
	base := baselineFile{Benchmarks: []baselineEntry{
		{Name: "BenchmarkReadWriteThroughput/shards=1",
			Metrics:       map[string]float64{"allocs_per_committed_txn": 0.2}, // measured 0.38 → +90%
			LowerIsBetter: []string{"allocs_per_committed_txn"}},
	}}
	results, err := runCheck(base, parsedSamples(t), 0.20, nil)
	if err != nil {
		t.Fatal(err)
	}
	var failed bool
	for _, r := range results {
		if r.what == "allocs_per_committed_txn" {
			if !r.lower {
				t.Fatalf("direction not inverted: %+v", r)
			}
			failed = failed || r.failed
		}
	}
	if !failed {
		t.Fatalf("+90%% alloc growth passed the 20%% gate: %+v", results)
	}
}

// TestCheckLowerIsBetterPassesOnDecrease: shrinking a cost metric is an
// improvement, never a failure — the exact delta that would fail a
// throughput metric.
func TestCheckLowerIsBetterPassesOnDecrease(t *testing.T) {
	base := baselineFile{Benchmarks: []baselineEntry{
		{Name: "BenchmarkReadWriteThroughput/shards=1",
			Metrics:       map[string]float64{"allocs_per_committed_txn": 10}, // measured 0.38 → −96%
			LowerIsBetter: []string{"allocs_per_committed_txn"}},
	}}
	results, err := runCheck(base, parsedSamples(t), 0.20, nil)
	if err != nil {
		t.Fatal(err)
	}
	var saw bool
	for _, r := range results {
		if r.what != "allocs_per_committed_txn" {
			continue
		}
		saw = true
		if r.failed {
			t.Fatalf("−96%% alloc drop failed a lower-is-better gate: %+v", r)
		}
		if !r.improved() {
			t.Fatalf("alloc drop not counted as an improvement: %+v", r)
		}
	}
	if !saw {
		t.Fatalf("allocs_per_committed_txn not compared: %+v", results)
	}
}

// TestCheckLowerIsBetterDirectionIsPerEntry: the same metric key in an entry
// WITHOUT lower_is_better keeps throughput semantics — the direction flag is
// per-baseline-entry data, not a global metric-name registry.
func TestCheckLowerIsBetterDirectionIsPerEntry(t *testing.T) {
	base := baselineFile{Benchmarks: []baselineEntry{
		{Name: "BenchmarkReadWriteThroughput/shards=1",
			Metrics: map[string]float64{"allocs_per_committed_txn": 10}}, // measured 0.38 → −96%
	}}
	results, err := runCheck(base, parsedSamples(t), 0.20, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sawFail bool
	for _, r := range results {
		if r.what == "allocs_per_committed_txn" {
			sawFail = sawFail || r.failed
		}
	}
	if !sawFail {
		t.Fatal("undeclared direction treated a −96% drop as passing under higher-is-better semantics")
	}
}

// TestCheckLowerIsBetterMissingFailsUnderRequire: a lower_is_better baseline
// entry whose benchmark never ran must fail loudly when -require names it —
// an alloc gate that silently stops running is an alloc gate that silently
// stopped gating.
func TestCheckLowerIsBetterMissingFailsUnderRequire(t *testing.T) {
	base := baselineFile{Benchmarks: []baselineEntry{
		{Name: "BenchmarkAllocGateRenamedAway",
			Metrics:       map[string]float64{"allocs_per_committed_txn": 0.4},
			LowerIsBetter: []string{"allocs_per_committed_txn"}},
		{Name: "BenchmarkReadPathThroughput",
			Metrics: map[string]float64{"txn_per_s": 480}},
	}}
	results, err := runCheck(base, parsedSamples(t), 0.20,
		regexp.MustCompile("AllocGate|ReadPathThroughput"))
	if err != nil {
		t.Fatal(err)
	}
	var missFailed bool
	for _, r := range results {
		if r.name == "BenchmarkAllocGateRenamedAway" {
			if !r.failed || r.kind != "missing" {
				t.Fatalf("missing alloc-gated benchmark not failed: %+v", r)
			}
			missFailed = true
		}
	}
	if !missFailed {
		t.Fatal("missing alloc-gated benchmark was silently skipped under -require")
	}
}

// TestCheckEmptyIntersectionFails: a typo'd -bench regex must not produce a
// silently green gate.
func TestCheckEmptyIntersectionFails(t *testing.T) {
	base := baselineFile{Benchmarks: []baselineEntry{
		{Name: "BenchmarkSomethingElse", Metrics: map[string]float64{"txn_per_s": 1}},
	}}
	if _, err := runCheck(base, parsedSamples(t), 0.20, nil); err == nil {
		t.Fatal("empty baseline∩output intersection must error")
	}
}

// TestCheckMissingBaselineFailsLoudly: a baseline entry absent from the
// candidate run must FAIL the gate by default — a silently skipped benchmark
// is a silently ungated one (the renamed-benchmark / typo'd-regex trap).
func TestCheckMissingBaselineFailsLoudly(t *testing.T) {
	base := baselineFile{Benchmarks: []baselineEntry{
		{Name: "BenchmarkReadPathThroughput",
			Metrics: map[string]float64{"txn_per_s": 480}},
		{Name: "BenchmarkRenamedAway",
			Metrics: map[string]float64{"txn_per_s": 100}},
	}}
	results, err := runCheck(base, parsedSamples(t), 0.20, nil)
	if err != nil {
		t.Fatal(err)
	}
	var missFailed bool
	for _, r := range results {
		if r.name == "BenchmarkRenamedAway" {
			if !r.failed || r.kind != "missing" {
				t.Fatalf("missing baseline not failed: %+v", r)
			}
			missFailed = true
		}
	}
	if !missFailed {
		t.Fatal("missing baseline entry was silently skipped")
	}
}

// TestCheckRequireScopesMissing: -require lets a deliberate-subset CI job
// name what it owes; baseline entries outside the scope may be absent, ones
// inside may not.
func TestCheckRequireScopesMissing(t *testing.T) {
	base := baselineFile{Benchmarks: []baselineEntry{
		{Name: "BenchmarkReadPathThroughput",
			Metrics: map[string]float64{"txn_per_s": 480}},
		{Name: "BenchmarkNightlyOnly",
			Metrics: map[string]float64{"txn_per_s": 100}},
	}}
	results, err := runCheck(base, parsedSamples(t), 0.20,
		regexp.MustCompile("^BenchmarkReadPath"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.failed {
			t.Fatalf("out-of-scope absence failed the gate: %+v", r)
		}
	}
	// The same scope with the required benchmark absent must fail.
	base2 := baselineFile{Benchmarks: []baselineEntry{
		{Name: "BenchmarkReadPathGone",
			Metrics: map[string]float64{"txn_per_s": 480}},
		{Name: "BenchmarkCommitGroup16",
			Metrics: map[string]float64{"commits_per_sync": 4.5}},
	}}
	results, err = runCheck(base2, parsedSamples(t), 0.20,
		regexp.MustCompile("^BenchmarkReadPath"))
	if err != nil {
		t.Fatal(err)
	}
	var sawMiss bool
	for _, r := range results {
		sawMiss = sawMiss || (r.failed && r.kind == "missing")
	}
	if !sawMiss {
		t.Fatal("in-scope missing benchmark did not fail")
	}
}

// TestCheckReportsNewBenchmarks: a run benchmark without a baseline entry
// appears as an informational "new" row (never a failure) so fresh
// benchmarks are visible in CI logs before their baseline lands.
func TestCheckReportsNewBenchmarks(t *testing.T) {
	base := baselineFile{Benchmarks: []baselineEntry{
		{Name: "BenchmarkReadPathThroughput", Metrics: map[string]float64{"txn_per_s": 480}},
	}}
	results, err := runCheck(base, parsedSamples(t), 0.20, nil)
	if err != nil {
		t.Fatal(err)
	}
	newRows := map[string]bool{}
	for _, r := range results {
		if r.kind == "new" {
			if r.failed {
				t.Fatalf("a new benchmark failed the gate: %+v", r)
			}
			newRows[r.name] = true
		}
	}
	for _, want := range []string{"BenchmarkCommitGroup16", "BenchmarkReadWriteThroughput/shards=1", "BenchmarkReadWriteThroughput/shards=4"} {
		if !newRows[want] {
			t.Fatalf("%s not reported as new; rows: %+v", want, results)
		}
	}
}

// TestCheckResultsSorted: the delta table is sorted by benchmark name so
// successive CI logs diff cleanly (the perf-trajectory reading the table
// exists for).
func TestCheckResultsSorted(t *testing.T) {
	base := baselineFile{Benchmarks: []baselineEntry{
		{Name: "BenchmarkReadPathThroughput", Metrics: map[string]float64{"txn_per_s": 480}},
		{Name: "BenchmarkCommitGroup16", Metrics: map[string]float64{"commits_per_sync": 4.5}},
	}}
	results, err := runCheck(base, parsedSamples(t), 0.20, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(results); i++ {
		if results[i].name < results[i-1].name {
			t.Fatalf("results out of order at %d: %q after %q", i, results[i].name, results[i-1].name)
		}
	}
}

// TestCheckPrintsDeltaTableOnPass: the fix this PR carries — a passing gate
// must still print every per-benchmark delta, not just the verdict.
func TestCheckPrintsDeltaTableOnPass(t *testing.T) {
	dir := t.TempDir()
	benchPath := filepath.Join(dir, "bench.out")
	basePath := filepath.Join(dir, "base.json")
	if err := os.WriteFile(benchPath, []byte(sampleBenchOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	baseJSON := `{"benchmarks": [
		{"name": "BenchmarkReadPathThroughput", "metrics": {"txn_per_s": 480}},
		{"name": "BenchmarkCommitGroup16", "metrics": {"commits_per_sync": 4.5}}
	]}`
	if err := os.WriteFile(basePath, []byte(baseJSON), 0o644); err != nil {
		t.Fatal(err)
	}

	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	code := check(benchPath, basePath, 0.20, "ReadPathThroughput|CommitGroup16")
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("gate failed (exit %d):\n%s", code, out)
	}
	text := string(out)
	for _, want := range []string{
		"BenchmarkReadPathThroughput", "txn_per_s",
		"BenchmarkCommitGroup16", "commits_per_sync",
		"NEW", "BenchmarkReadWriteThroughput/shards=4",
		"improved", "bench gate: pass",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("pass output missing %q:\n%s", want, text)
		}
	}
}

// TestCheckZeroMatchesStillPrintsTable: when nothing in the output matches
// the baseline (renamed suite, typo'd -bench regex), the gate fails AND the
// MISS/NEW rows print — they are exactly what reveals the rename.
func TestCheckZeroMatchesStillPrintsTable(t *testing.T) {
	dir := t.TempDir()
	benchPath := filepath.Join(dir, "bench.out")
	basePath := filepath.Join(dir, "base.json")
	if err := os.WriteFile(benchPath, []byte(sampleBenchOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	baseJSON := `{"benchmarks": [{"name": "BenchmarkRenamedAway", "metrics": {"txn_per_s": 100}}]}`
	if err := os.WriteFile(basePath, []byte(baseJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	code := check(benchPath, basePath, 0.20, "")
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("zero-intersection gate exited %d, want 1", code)
	}
	for _, want := range []string{"MISS", "BenchmarkRenamedAway", "NEW", "BenchmarkReadPathThroughput"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("zero-matches output missing %q:\n%s", want, out)
		}
	}
}
