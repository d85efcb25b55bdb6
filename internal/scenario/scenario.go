// Package scenario turns whole-system experiments into data: a Scenario is a
// declarative phase list — workload shapes, scheduled faults, and invariant
// checkpoints — executed against a live cluster by Run. See doc.go.
package scenario

import (
	"fmt"

	"ucc/internal/cluster"
	"ucc/internal/metrics"
	"ucc/internal/workload"
)

// Scenario is a complete declarative system test: a cluster shape, a phased
// workload with scheduled faults, per-phase checkpoints, and final (post-
// drain) checks. Scenarios are plain data — the library in library.go is a
// list of them, and building a new one needs no runner code.
type Scenario struct {
	// Name identifies the scenario (`uccscenario -run <name>`).
	Name string
	// Description is one line for -list output.
	Description string

	// Cluster is the system under test. Run forces Record=true
	// (serializability checking is the point of the harness); Seed may be
	// overridden per run.
	Cluster cluster.Config

	// Phases execute in order from engine time zero. Every site runs the
	// same phase clock; per-site workload differences come from the
	// Workload(site) function.
	Phases []Phase

	// SettleMicros runs the cluster past the last phase before the drain,
	// letting in-flight transactions finish on their own clock (default
	// 5s of engine time).
	SettleMicros int64

	// Final checks run after the drain against the complete run —
	// serializability, replica agreement, unfinished-transaction counts.
	Final []Check
}

// Phase is one segment of scenario time: a workload shape held for a
// duration, faults injected at offsets within it, and checkpoints evaluated
// over exactly the events of this phase (metric deltas, not run cumulatives).
type Phase struct {
	// Name labels the phase in reports ("calm", "spike", "aftermath").
	Name string
	// DurationMicros is the phase length in engine time.
	DurationMicros int64
	// Workload returns the spec site `site` runs during this phase
	// (heterogeneous mixes return different specs per site). Phase specs
	// are open-loop; see workload.ValidatePhases.
	Workload func(site int) workload.Spec
	// Faults fire at their offsets within the phase, in offset order.
	Faults []Fault
	// Checks run at the phase boundary against this phase's metric delta.
	Checks []Check
}

// Fault is a scheduled intervention: at AtMicros past the phase start the
// runner advances the engine to that instant and calls Apply on the live
// cluster (crash a site, widen a WAL window, swap the latency model).
type Fault struct {
	// Name labels the fault in reports.
	Name string
	// AtMicros is the offset from the phase start (clamped into the phase).
	AtMicros int64
	// Apply performs the intervention. It runs between engine steps, so it
	// may mutate sim-side state directly (cluster.SetLatency,
	// cluster.SetGroupCommitWindow) or post events (cluster.CrashSite with
	// atMicros 0 fires at the current virtual instant).
	Apply func(*cluster.Cluster)
}

// Check is a named invariant evaluated by the runner: nil error = pass.
// Phase checks see the phase's metric delta; final checks see the drained
// cluster.Result. A failed check marks the run failed but never stops it —
// later phases still execute, so one report shows every violated invariant.
type Check struct {
	Name string
	Eval func(*Ctx) error
}

// Ctx is what a check can see. Phase checks get Phase (with its metric
// delta) and a nil Final; final checks get Final and a nil Phase. Cluster is
// always the live cluster (post-drain for final checks), and Run holds every
// phase record completed so far — a check may compare its phase against an
// earlier one.
type Ctx struct {
	Scenario *Scenario
	Cluster  *cluster.Cluster
	Run      *RunRecord
	Phase    *PhaseRecord
	Final    *cluster.Result
}

// delta returns the phase's metric delta, or an error for a check placed in
// the wrong position.
func (c *Ctx) delta() (metrics.Summary, error) {
	if c.Phase == nil {
		return metrics.Summary{}, fmt.Errorf("phase check evaluated outside a phase (list it under Phase.Checks, not Scenario.Final)")
	}
	return c.Phase.delta, nil
}

// final returns the run result, or an error for a misplaced check.
func (c *Ctx) final() (*cluster.Result, error) {
	if c.Final == nil {
		return nil, fmt.Errorf("final check evaluated inside a phase (list it under Scenario.Final, not Phase.Checks)")
	}
	return c.Final, nil
}

// Validate checks the scenario is well-formed: named, at least one phase,
// every phase with a workload function, and every per-site phase list
// accepted by workload.ValidatePhases (strict knob validation). The cluster
// config itself is validated by cluster.NewSim at run time.
func (s *Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: Name is empty")
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("scenario %s: no phases", s.Name)
	}
	if s.Cluster.Sites <= 0 {
		return fmt.Errorf("scenario %s: Cluster.Sites must be positive", s.Name)
	}
	for i := range s.Phases {
		if s.Phases[i].Workload == nil {
			return fmt.Errorf("scenario %s: phase %d (%q) has no Workload function", s.Name, i, s.Phases[i].Name)
		}
	}
	for site := 0; site < s.Cluster.Sites; site++ {
		if err := workload.ValidatePhases(s.sitePhases(site)); err != nil {
			return fmt.Errorf("scenario %s: site %d: %w", s.Name, site, err)
		}
	}
	return nil
}

// sitePhases materializes the per-site workload phase list.
func (s *Scenario) sitePhases(site int) []workload.Phase {
	out := make([]workload.Phase, len(s.Phases))
	for i, p := range s.Phases {
		out[i] = workload.Phase{
			Name:           p.Name,
			DurationMicros: p.DurationMicros,
			Spec:           p.Workload(site),
		}
	}
	return out
}

// TotalMicros is the scheduled scenario length (sum of phase durations,
// excluding the settle window).
func (s *Scenario) TotalMicros() int64 {
	var t int64
	for i := range s.Phases {
		t += s.Phases[i].DurationMicros
	}
	return t
}
