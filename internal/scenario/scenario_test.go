package scenario

import (
	"bytes"
	"flag"
	"fmt"
	"slices"
	"strings"
	"testing"

	"ucc/internal/cluster"
	"ucc/internal/deploy"
	"ucc/internal/engine"
	"ucc/internal/golden"
	"ucc/internal/workload"
)

// tiny returns a minimal fast scenario for runner-behavior tests: 2 sites,
// one 300ms phase of light PA load, short settle.
func tiny() Scenario {
	return Scenario{
		Name:        "tiny",
		Description: "runner-behavior fixture",
		Cluster: cluster.Config{
			Config:  deploy.Config{Sites: 2, Items: 8},
			Seed:    1,
			Latency: engine.UniformLatency{MinMicros: 500, MaxMicros: 1_500, LocalMicros: 50},
		},
		SettleMicros: 2_000_000,
		Phases: []Phase{{
			Name:           "only",
			DurationMicros: 300_000,
			Workload: func(int) workload.Spec {
				return workload.Spec{ArrivalPerSec: 40, Items: 8, Size: 2, SharePA: 1, ComputeMicros: 500}
			},
			Checks: []Check{MinCommitted(1)},
		}},
		Final: []Check{Serializable(), NoUnfinished(), OfferedAccounted()},
	}
}

// TestLibraryShape pins the library contract the CLI relies on: at least six
// scenarios, unique names, each validating, each with final checks, ByName
// round-trips, and the smoke set is a subset of the library.
func TestLibraryShape(t *testing.T) {
	lib := Library()
	if len(lib) < 6 {
		t.Fatalf("library has %d scenarios, want ≥6", len(lib))
	}
	seen := map[string]bool{}
	for i := range lib {
		sc := &lib[i]
		if seen[sc.Name] {
			t.Fatalf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if sc.Description == "" {
			t.Errorf("scenario %q has no description", sc.Name)
		}
		if err := sc.Validate(); err != nil {
			t.Errorf("scenario %q invalid: %v", sc.Name, err)
		}
		if len(sc.Final) == 0 {
			t.Errorf("scenario %q declares no final checks", sc.Name)
		}
		got, ok := ByName(sc.Name)
		if !ok || got.Name != sc.Name {
			t.Errorf("ByName(%q) failed", sc.Name)
		}
	}
	for _, sc := range Smoke() {
		if !seen[sc.Name] {
			t.Errorf("smoke scenario %q is not in the library", sc.Name)
		}
	}
	if _, ok := ByName("no-such-scenario"); ok {
		t.Error("ByName invented a scenario")
	}
}

// TestRunTiny: the runner executes a valid scenario, all checks pass, and the
// record carries the phase metrics and JSON/text renderings.
func TestRunTiny(t *testing.T) {
	rec, err := Run(tiny(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Passed {
		t.Fatalf("tiny scenario failed: %v", rec.Failures)
	}
	if len(rec.Phases) != 1 || rec.Phases[0].Committed == 0 {
		t.Fatalf("phase record empty: %+v", rec.Phases)
	}
	if rec.Final.Committed == 0 || rec.Final.Serializable == nil || !*rec.Final.Serializable {
		t.Fatalf("final record wrong: %+v", rec.Final)
	}
	js, err := rec.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(js, []byte(`"scenario": "tiny"`)) {
		t.Fatalf("JSON missing scenario name: %s", js[:120])
	}
	var sb strings.Builder
	rec.WriteText(&sb)
	if !strings.Contains(sb.String(), "only") {
		t.Fatalf("text report missing phase name:\n%s", sb.String())
	}
}

// TestDeterminism: same scenario + same seed → byte-identical JSON records;
// a different seed must change the numbers (or the seed isn't wired).
func TestDeterminism(t *testing.T) {
	a, err := Run(tiny(), Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tiny(), Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := a.JSON()
	jb, _ := b.JSON()
	if !bytes.Equal(ja, jb) {
		t.Fatalf("same seed produced different records:\n%s\n---\n%s", ja, jb)
	}
	c, err := Run(tiny(), Options{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	jc, _ := c.JSON()
	if bytes.Equal(ja, jc) {
		t.Fatal("different seeds produced identical records — Options.Seed is not wired through")
	}
}

// TestCheckFailureIsData: an impossible checkpoint fails the run but is NOT a
// run error — later phases still execute and the report names the failure.
func TestCheckFailureIsData(t *testing.T) {
	sc := tiny()
	sc.Phases[0].Checks = []Check{MinCommitted(1 << 40)}
	sc.Phases = append(sc.Phases, Phase{
		Name:           "after",
		DurationMicros: 200_000,
		Workload:       sc.Phases[0].Workload,
		Checks:         []Check{MinCommitted(1)},
	})
	rec, err := Run(sc, Options{})
	if err != nil {
		t.Fatalf("a failed check must not be a run error: %v", err)
	}
	if rec.Passed {
		t.Fatal("run passed despite an impossible checkpoint")
	}
	if len(rec.Failures) == 0 || !strings.Contains(rec.Failures[0], "committed") {
		t.Fatalf("failures don't name the check: %v", rec.Failures)
	}
	if len(rec.Phases) != 2 {
		t.Fatalf("failure stopped the run: %d of 2 phases ran", len(rec.Phases))
	}
	if !rec.Phases[1].Checks[0].Passed {
		t.Fatal("the later phase's passing check was not evaluated")
	}
}

// TestMisplacedChecks: a phase check listed under Final (and vice versa) must
// fail with a message telling the author where the check belongs.
func TestMisplacedChecks(t *testing.T) {
	sc := tiny()
	sc.Phases[0].Checks = []Check{Serializable()}
	sc.Final = []Check{MinCommitted(1)}
	rec, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Passed {
		t.Fatal("misplaced checks passed")
	}
	joined := strings.Join(rec.Failures, "\n")
	if !strings.Contains(joined, "Scenario.Final") || !strings.Contains(joined, "Phase.Checks") {
		t.Fatalf("failures don't explain the misplacement:\n%s", joined)
	}
}

// TestRunValidationErrors: malformed scenarios error out of Run before any
// cluster is built.
func TestRunValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"no name", func(s *Scenario) { s.Name = "" }},
		{"no phases", func(s *Scenario) { s.Phases = nil }},
		{"no sites", func(s *Scenario) { s.Cluster.Sites = 0 }},
		{"nil workload", func(s *Scenario) { s.Phases[0].Workload = nil }},
		{"bad spec", func(s *Scenario) {
			s.Phases[0].Workload = func(int) workload.Spec {
				return workload.Spec{ArrivalPerSec: 10, Items: 8, ReadFrac: 2}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := tiny()
			tc.mut(&sc)
			if _, err := Run(sc, Options{}); err == nil {
				t.Fatal("malformed scenario ran")
			}
		})
	}
}

var update = flag.Bool("update", false, "rewrite testdata/smoke.golden.json from this run")

const smokeGolden = "testdata/smoke.golden.json"

// TestSmokeScenariosPass runs the CI smoke set end to end — the same set
// the scenario-smoke CI job runs via `uccscenario -smoke`. Skipped in -short
// (the crash scenarios simulate ~17s of engine time). The JSON records,
// exactly as `uccscenario -smoke -json` prints them, must then equal
// testdata/smoke.golden.json byte for byte, so a change that moves seeded
// output shows up as a diff of that file; -update rewrites it.
func TestSmokeScenariosPass(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke scenarios skipped in -short")
	}
	smoke := Smoke()
	records := make([]string, len(smoke))
	for i, sc := range smoke {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			rec, err := Run(sc, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Passed {
				t.Fatalf("smoke scenario %s failed:\n%s", sc.Name, strings.Join(rec.Failures, "\n"))
			}
			b, err := rec.JSON()
			if err != nil {
				t.Fatal(err)
			}
			records[i] = string(b) + "\n"
		})
	}
	if t.Failed() || slices.Contains(records, "") {
		return // a failed or filtered-out scenario: nothing whole to compare
	}
	got := strings.Join(records, "")
	golden.Check(t, smokeGolden, got, *update)
}

// TestLibraryScenariosPass runs every library scenario at its own seed, as
// `uccscenario -all` does, and requires each to pass: the scenarios outside
// the smoke set are the only ones that apply the slow-disk, degraded-link
// and latency-restore faults. Skipped in -short, like the smoke set.
func TestLibraryScenariosPass(t *testing.T) {
	if testing.Short() {
		t.Skip("library scenarios skipped in -short")
	}
	for _, sc := range Library() {
		t.Run(sc.Name, func(t *testing.T) {
			rec, err := Run(sc, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Passed {
				t.Fatalf("library scenario %s failed:\n%s", sc.Name, strings.Join(rec.Failures, "\n"))
			}
		})
	}
}

// TestFaultClamping: fault offsets beyond the phase end are clamped into the
// phase, recorded at their actual fire time, and still applied.
func TestFaultClamping(t *testing.T) {
	sc := tiny()
	fired := false
	sc.Phases[0].Faults = []Fault{{
		Name:     "late",
		AtMicros: 10_000_000, // far past the 300ms phase
		Apply:    func(*cluster.Cluster) { fired = true },
	}}
	rec, err := Run(sc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("clamped fault never applied")
	}
	fr := rec.Phases[0].Faults
	if len(fr) != 1 || fr[0].AtMicros > sc.Phases[0].DurationMicros {
		t.Fatalf("fault record not clamped into the phase: %+v", fr)
	}
}

// seeds is the battery the library scenarios must pass on, not just their
// own default seed.
var seeds = []int64{1, 2, 3, 7, 42, 1988}

// runSeed runs one library scenario at one seed, fails the test on any
// failed check, and returns the record for scenario-specific assertions.
func runSeed(t *testing.T, name string, seed int64) *RunRecord {
	t.Helper()
	sc, ok := ByName(name)
	if !ok {
		t.Fatalf("scenario %q missing", name)
	}
	rec, err := Run(sc, Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Passed {
		t.Fatalf("%s seed %d failed:\n%s", name, seed, strings.Join(rec.Failures, "\n"))
	}
	return rec
}

// TestLiveRebalanceAcrossSeeds runs the online-rebalance scenario across the
// seed battery: the move of the hot set must keep half the steady rate and
// preserve serializability, exactly-once commits, and final-map replica
// agreement under every arrival pattern, and the transfer plane must
// actually fill the gained copies.
func TestLiveRebalanceAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short")
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rec := runSeed(t, "live-rebalance", seed)
			var installs uint64
			for _, p := range rec.Phases {
				installs += p.QM.MapInstalls
			}
			if installs == 0 {
				t.Error("no map installs recorded — the move fault never published")
			}
			if rec.Phases[1].QM.TransferApplied == 0 {
				t.Error("no transfer records applied in the move phase — the gained copies were never filled")
			}
		})
	}
}

// TestQuorumScenariosAcrossSeeds runs the quorum scenarios across the seed
// battery: the failover, catch-up and crash-inside-the-commit-window stories
// must hold under every arrival pattern, not just the library default, and
// the failover's recovered site must catch up through log shipping.
func TestQuorumScenariosAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short")
	}
	for _, name := range []string{"quorum-failover", "replica-catchup", "crash-in-commit-window"} {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				rec := runSeed(t, name, seed)
				if name == "quorum-failover" && rec.Phases[2].QM.ReplApplied == 0 {
					t.Error("no shipped records applied in the recovered phase — the catch-up plane never ran")
				}
			})
		}
	}
}

// TestWriteAllCrashInCommitWindowConverges is crash-in-commit-window under
// read-one/write-all: 4 sites, two copies per item, no Quorum. Site 1
// crashes at one of 31 instants 13 ms apart, under three seeds, and the
// crash may land inside its 20 ms group-commit window, losing writes its
// peer copy kept. The crash phase ends just after the recovery and the
// cooldown only reads, so no later write repairs a copy that lost one: the
// catch-up plane must, without letting a shipped record overtake its
// writer's own release (the history must stay serializable).
func TestWriteAllCrashInCommitWindowConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("crash sweep skipped in -short")
	}
	base := crashInCommitWindow()
	spec := base.Phases[0].Workload(0)
	readOnly := spec
	readOnly.ReadFrac = 1
	for seed := int64(1); seed <= 3; seed++ {
		for at := int64(300_000); at <= 690_000; at += 13_000 {
			sc := base
			sc.Cluster.Sites, sc.Cluster.Replicas, sc.Cluster.Quorum = 4, 2, nil
			sc.Phases = []Phase{
				{Name: "crash", DurationMicros: 750_000, Workload: flat(spec), Faults: []Fault{
					CrashSite(1, at),
					RecoverSite(1, 720_000),
				}},
				{Name: "cooldown", DurationMicros: 300_000, Workload: flat(readOnly)},
			}
			sc.SettleMicros = 2_000_000
			sc.Final = []Check{ReplicasAgree(), Serializable()}
			rec, err := Run(sc, Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Passed {
				t.Errorf("seed %d, crash at %d µs:\n%s", seed, at, strings.Join(rec.Failures, "\n"))
			}
		}
	}
}

// TestReadOnlyScenariosAcrossSeeds runs the read-only snapshot scenarios
// across part of the seed battery: their reads travel in per-mailbox batches,
// and every check, serializability included, must hold on each seed.
func TestReadOnlyScenariosAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short")
	}
	for _, name := range []string{"ycsb-b", "ycsb-c", "tpcc-mix"} {
		for _, seed := range []int64{1, 7, 42, 1988} {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				rec := runSeed(t, name, seed)
				if s := rec.Final.Serializable; s == nil || !*s {
					t.Fatalf("%s seed %d: serializability not established (%v)", name, seed, s)
				}
			})
		}
	}
}

// TestOverloadAcrossSeeds runs the overload scenario across the seed
// battery: at 4x capacity every seed must shed, keep its queues capped and
// its tail bounded, and hold 80% of the at-capacity commit rate.
func TestOverloadAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short")
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runSeed(t, "overload", seed)
		})
	}
}

// TestRetainsRate: the check passes when the later phase keeps the
// reference phase's rate, fails naming both phases and both rates when it
// collapses to a tenth, and errors on a reference that is not an earlier
// phase.
func TestRetainsRate(t *testing.T) {
	cases := []struct {
		name    string
		rate    float64 // second phase's per-site arrival rate
		ref     string
		wantErr string // "" = pass
	}{
		{"same rate", 40, "only", ""},
		{"tenth of the rate", 4, "only", `phase "second"`},
		{"unknown ref", 40, "nope", `no phase "nope"`},
		{"ref is current phase", 40, "second", `no phase "second"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := tiny()
			sc.Phases[0].DurationMicros = 1_000_000
			sc.Phases = append(sc.Phases, Phase{
				Name:           "second",
				DurationMicros: 1_000_000,
				Workload: func(int) workload.Spec {
					return workload.Spec{ArrivalPerSec: tc.rate, Items: 8, Size: 2, SharePA: 1, ComputeMicros: 500}
				},
				Checks: []Check{RetainsRate(tc.ref, 0.5)},
			})
			rec, err := Run(sc, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := rec.Phases[1].Checks[0]
			if tc.wantErr == "" {
				if !got.Passed {
					t.Fatalf("check failed: %s", got.Detail)
				}
				return
			}
			if got.Passed {
				t.Fatal("check passed")
			}
			if !strings.Contains(got.Detail, tc.wantErr) {
				t.Fatalf("detail %q does not contain %q", got.Detail, tc.wantErr)
			}
			if tc.ref == "only" && !strings.Contains(got.Detail, `phase "only"`) {
				t.Fatalf("detail %q does not name the reference phase", got.Detail)
			}
		})
	}
}

// TestRateGates pins each library rate gate to its phase and threshold: the
// seed batteries prove the checks pass, this proves they are still there and
// were not loosened.
func TestRateGates(t *testing.T) {
	for _, tc := range []struct {
		scenario, phase, ref string
		frac                 float64
	}{
		{"quorum-failover", "dead-site", "steady", 0.3},
		{"live-rebalance", "move", "steady", 0.5},
		{"overload", "4x", "at-capacity", 0.8},
	} {
		t.Run(tc.scenario, func(t *testing.T) {
			sc, ok := ByName(tc.scenario)
			if !ok {
				t.Fatalf("scenario %q missing", tc.scenario)
			}
			want := RetainsRate(tc.ref, tc.frac).Name
			for _, p := range sc.Phases {
				if p.Name != tc.phase {
					continue
				}
				for _, c := range p.Checks {
					if c.Name == want {
						return
					}
				}
				t.Fatalf("phase %q has no %s check", tc.phase, want)
			}
			t.Fatalf("scenario %q has no phase %q", tc.scenario, tc.phase)
		})
	}
}
