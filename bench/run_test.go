package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// smokeSchedule is about one second of every part of fullSchedule.
var smokeSchedule = schedule{
	warm:       125 * time.Millisecond,
	sat:        600 * time.Millisecond,
	light:      400 * time.Millisecond,
	window:     100 * time.Millisecond,
	rounds:     3,
	setups:     3,
	drillScale: 0.005,
}

// smokeWorkload runs about one second of w and requires every correctness check
// to pass and every metric of defs to be present and finite.
func smokeWorkload(t *testing.T, name string, traced bool, defs []metricDef) *result {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	res, err := runWorkload(w, 1, smokeSchedule, traced, "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d problems=%v", res.Correct, res.Attempted, res.Failed, res.Problems)
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s: present=%v value=%v", d.name, ok, v)
		}
	}
	return res
}

func TestSmokeUniform(t *testing.T) {
	t.Parallel()
	res := smokeWorkload(t, "uniform_rw", false, endToEnd)
	for _, d := range endToEnd {
		if res.Metrics[d.name] <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", d.name, res.Metrics[d.name])
		}
	}
	line := res.contractJSON(endToEnd)
	var got struct {
		Correct   *bool
		Attempted *uint64
		Failed    *uint64
		Metrics   map[string]struct {
			Value *float64
			Unit  *string
		}
	}
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("contract line %q: %v", line, err)
	}
	if got.Correct == nil || got.Attempted == nil || got.Failed == nil || len(got.Metrics) != len(endToEnd) {
		t.Fatalf("contract line lacks keys or metrics: %s", line)
	}
	for _, d := range endToEnd {
		m, ok := got.Metrics[d.name]
		if !ok || m.Value == nil || m.Unit == nil || *m.Unit != d.unit {
			t.Errorf("contract line: metric %s missing or wrong unit", d.name)
		}
	}
}

// The durable workload exercises the checks the others skip: replicas agree
// after settling and survive discarding every unsynced byte.
func TestSmokeDurable(t *testing.T) {
	t.Parallel()
	smokeWorkload(t, "durable_quorum", false, endToEnd)
}

func TestSmokeTraced(t *testing.T) {
	t.Parallel()
	res := smokeWorkload(t, "snapshot_read", true, perLayer)
	if res.Metrics["ri.calls_per_txn"] <= 0 || res.Metrics["qm.snap_reads_per_txn"] <= 0 || res.Metrics["transport.hop_us"] <= 0 {
		t.Errorf("traced run recorded nothing: %v", res.Metrics)
	}
	if len(res.Trace) == 0 {
		t.Error("no trace rows")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the tables in this
// package equal: workloads, metrics, units, directions, bounds, run length.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the package's runSeconds is %d", spec.RunSeconds, runSeconds)
	}
	if measured := fullSchedule.sat + fullSchedule.light; measured != runSeconds*time.Second {
		t.Errorf("fullSchedule measures %v, want %d s", measured, runSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the package", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, package has %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	compare := func(what string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the package", what, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, package has %+v", what, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25)) {
				t.Errorf("%s %s: bound in BENCHMARK.json %v, in the package %v", what, d.name, g.Bound, d.bound)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
}
