package scenario

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ucc/internal/cluster"
	"ucc/internal/engine"
	"ucc/internal/workload"
)

// tiny returns a minimal fast scenario for runner-behavior tests: 2 sites,
// one 300ms phase of light PA load, short settle.
func tiny() Scenario {
	return Scenario{
		Name:        "tiny",
		Description: "runner-behavior fixture",
		Cluster: cluster.Config{
			Sites: 2, Items: 8, Seed: 1,
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

// TestLibraryShape pins the library contract the CLI and EXP-13 rely on:
// at least six scenarios, unique names, each validating, each with final
// checks, ByName round-trips, and the smoke pair is a subset of the library.
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

// TestSmokeScenariosPass runs the CI smoke pair end to end — the same pair
// the scenario-smoke CI job runs via cmd/uccscenario. Skipped in -short (the
// crash scenario simulates ~17s of engine time).
func TestSmokeScenariosPass(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke scenarios skipped in -short")
	}
	for _, sc := range Smoke() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			rec, err := Run(sc, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Passed {
				t.Fatalf("smoke scenario %s failed:\n%s", sc.Name, strings.Join(rec.Failures, "\n"))
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

// TestLiveRebalanceAcrossSeeds runs the online-rebalance scenario across the
// seed battery: the move of the hot set must preserve serializability,
// exactly-once commits, and final-map replica agreement under every arrival
// pattern, not just the library default.
func TestLiveRebalanceAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short")
	}
	sc, ok := ByName("live-rebalance")
	if !ok {
		t.Fatal("scenario live-rebalance missing")
	}
	for _, seed := range []int64{1, 2, 3, 7, 42, 1988} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rec, err := Run(sc, Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Passed {
				t.Fatalf("seed %d failed:\n%s", seed, strings.Join(rec.Failures, "\n"))
			}
			// The move must actually have exercised the placement plane.
			var installs, moved uint64
			for _, p := range rec.Phases {
				installs += p.QM.MapInstalls
			}
			moved = rec.Phases[1].QM.ItemsGained
			if installs == 0 {
				t.Error("no map installs recorded — the move fault never published")
			}
			_ = moved // gained may be 0 if dst already held every copy; installs is the hard signal
		})
	}
}

// TestQuorumScenariosAcrossSeeds runs the quorum scenarios across the seed
// battery: the failover, catch-up and crash-inside-the-commit-window stories
// must hold under every arrival pattern, not just the library default.
func TestQuorumScenariosAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep skipped in -short")
	}
	for _, name := range []string{"quorum-failover", "replica-catchup", "crash-in-commit-window"} {
		sc, ok := ByName(name)
		if !ok {
			t.Fatalf("scenario %q missing", name)
		}
		for _, seed := range []int64{1, 2, 3, 7, 42, 1988} {
			sc, seed := sc, seed
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				rec, err := Run(sc, Options{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Passed {
					t.Fatalf("seed %d failed:\n%s", seed, strings.Join(rec.Failures, "\n"))
				}
			})
		}
	}
}
