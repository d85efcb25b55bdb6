package experiments

import (
	"fmt"
	"strings"

	"ucc/internal/cluster"
	"ucc/internal/deadlock"
	"ucc/internal/deploy"
	"ucc/internal/engine"
	"ucc/internal/metrics"
	"ucc/internal/model"
	"ucc/internal/qm"
	"ucc/internal/ri"
	"ucc/internal/workload"
)

// RunConfig scales an experiment.
type RunConfig struct {
	// Quick shrinks sweeps and horizons (used by `go test -short` and the
	// benchmark loop).
	Quick bool
	Seed  int64
}

// Result is one experiment's rendered output. Experiment.Run sets ID, Title
// and Claim from the registry.
type Result struct {
	ID     string
	Title  string
	Claim  string
	Tables []*metrics.Table
	Series []metrics.Series
	Notes  []string
}

// String renders the result for the bench harness / CLI.
func (r Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	fmt.Fprintf(&b, "paper claim: %s\n\n", r.Claim)
	for _, t := range r.Tables {
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is a registered reproduction target. The registry (All) is
// the only place its ID, Title and Claim are declared.
type Experiment struct {
	ID    string
	Title string
	Claim string
	run   func(RunConfig) Result
}

// Run runs the experiment; the result carries the registry's ID, Title and
// Claim.
func (e Experiment) Run(cfg RunConfig) Result {
	r := e.run(cfg)
	r.ID, r.Title, r.Claim = e.ID, e.Title, e.Claim
	return r
}

// All returns every experiment in index order.
func All() []Experiment {
	return []Experiment{
		{ID: "EXP-1", Title: "System time S vs arrival rate λ", Claim: "2PL best at low λ and collapses at high λ (blocking); T/O grows steadily and wins at high λ; PA tracks the better of the two and wins at moderate λ", run: Exp1},
		{ID: "EXP-2", Title: "System time S vs transaction size st", Claim: "T/O degrades fastest as st grows (restart probability ≈ 1−(1−p)^st); 2PL and PA handle large transactions better", run: Exp2},
		{ID: "EXP-3", Title: "Deadlocks vs blocking under 2PL", Claim: "the number of directly deadlocked transactions grows slowly with λ, but S rises dramatically because other transactions block behind them", run: Exp3},
		{ID: "EXP-4", Title: "Restart/back-off/message costs", Claim: "T/O pays restarts, PA pays extra negotiation messages that grow with load, 2PL pays deadlock aborts", run: Exp4},
		{ID: "EXP-5", Title: "Unified mixed-protocol execution", Claim: "every mixed execution is conflict serializable (Thm 2); deadlock cycles always contain a 2PL transaction (Cor 2); PA alone never deadlocks or restarts (Cor 1)", run: Exp5},
		{ID: "EXP-6", Title: "Dynamic min-STL selection", Claim: "choosing the protocol that minimizes STL per transaction matches or beats the best static choice across the load range", run: Exp6},
		{ID: "EXP-7", Title: "STL' evaluation and ranking accuracy", Claim: "STL' is efficiently computable by dynamic programming and its protocol ranking tracks the measured ranking", run: Exp7},
		{ID: "EXP-8", Title: "Workload archetypes: static vs dynamic", Claim: "'the best concurrency control algorithm' is transaction dependent (§1); the selector's chosen mix differs per workload shape", run: Exp8},
		{ID: "EXP-10", Title: "Read-only snapshot fast path on/off", Claim: "beyond the paper: on a ≥90%-read mix, serving read-only transactions from bounded version chains at a site-local snapshot timestamp at least doubles committed throughput vs queueing them, with zero restarts and conflict serializability preserved", run: Exp10},
		{ID: "EXP-11", Title: "Queue-manager sharding: throughput scaling", Claim: "beyond the paper: partitioning a site's queue manager by item hash scales conflict-free read-write throughput with cores (≥1.5x at 4 shards on 4+ cores), while a hot-shard skew defeats it — and every execution stays conflict serializable", run: Exp11},
		{ID: "ABL-1", Title: "Semi-locks vs lock-everything", Claim: "the semi-lock protocol preserves T/O's concurrency; the simpler all-locking unification sacrifices it", run: Abl1},
		{ID: "ABL-2", Title: "PA back-off interval sensitivity", Claim: "the INT back-off granularity trades spurious waiting against re-negotiation positioning", run: Abl2},
		{ID: "ABL-3", Title: "Deadlock detection period sensitivity", Claim: "2PL's system time under contention is dominated by detection latency", run: Abl3},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// --------------------------------------------------------------------------
// shared machinery
// --------------------------------------------------------------------------

// runSpec is one simulated cluster run.
type runSpec struct {
	seed      int64
	sites     int
	items     int
	replicas  int
	arrival   float64 // per-site λ, txns/sec
	size      int
	readFrac  float64
	share     [3]float64 // protocol shares
	compute   int64
	horizonUs int64
	settleUs  int64
	semiLocks bool
	detPeriod int64
	paInt     model.Timestamp
	choose    ri.ChooseFunc
	estimates bool // enable stats + estimate broadcasting
	record    bool
	latMin    int64
	latMax    int64
	restartUs int64
}

func defaultSpec(seed int64) runSpec {
	return runSpec{
		seed:      seed,
		sites:     4,
		items:     24,
		replicas:  1,
		arrival:   20,
		size:      4,
		readFrac:  0.5,
		share:     [3]float64{1, 0, 0},
		compute:   3_000,
		horizonUs: 8_000_000,
		settleUs:  6_000_000,
		semiLocks: true,
		detPeriod: 50_000,
		paInt:     2_000,
		latMin:    1_000,
		latMax:    5_000,
		restartUs: 20_000,
	}
}

// runOutcome bundles everything an experiment reads from a run.
type runOutcome struct {
	res cluster.Result
	cl  *cluster.Cluster
}

func execute(s runSpec) (runOutcome, error) {
	cfg := cluster.Config{
		Config: deploy.Config{
			Sites: s.sites, Items: s.items, Replicas: s.replicas,
			QM: qm.Options{DisableSemiLocks: !s.semiLocks},
			RI: ri.Options{
				PAIntervalMicros:     s.paInt,
				RestartDelayMicros:   s.restartUs,
				DefaultComputeMicros: s.compute,
			},
			Detector: deadlock.Options{PeriodMicros: s.detPeriod, PersistRounds: 2},
		},
		Seed:    s.seed,
		Record:  s.record,
		Latency: engine.UniformLatency{MinMicros: s.latMin, MaxMicros: s.latMax, LocalMicros: 50},
		Choose:  s.choose,
	}
	if s.estimates {
		cfg.QM.StatsPeriodMicros = 100_000
		cfg.Collector.EstimatePeriodMicros = 100_000
	}
	cl, err := cluster.NewSim(cfg)
	if err != nil {
		return runOutcome{}, err
	}
	for i := 0; i < s.sites; i++ {
		if err := cl.AddDriver(model.SiteID(i), workload.Spec{
			ArrivalPerSec: s.arrival,
			HorizonMicros: s.horizonUs,
			Items:         s.items,
			Size:          s.size,
			ReadFrac:      s.readFrac,
			Share2PL:      s.share[model.TwoPL],
			ShareTO:       s.share[model.TO],
			SharePA:       s.share[model.PA],
			ComputeMicros: s.compute,
		}); err != nil {
			return runOutcome{}, err
		}
	}
	res := cl.Run(s.horizonUs, s.settleUs)
	return runOutcome{res: res, cl: cl}, nil
}

func mustExecute(s runSpec) runOutcome {
	out, err := execute(s)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return out
}

// pureShare returns the share vector for a single protocol.
func pureShare(p model.Protocol) [3]float64 {
	var s [3]float64
	s[p] = 1
	return s
}

// lambdaSweep returns the per-site arrival rates for load sweeps.
func lambdaSweep(quick bool) []float64 {
	if quick {
		return []float64{10, 30, 60}
	}
	return []float64{5, 10, 20, 30, 45, 60, 80}
}

func sizeSweep(quick bool) []int {
	if quick {
		return []int{2, 6, 10}
	}
	return []int{1, 2, 4, 6, 8, 10, 12}
}

// meanS extracts the mean system time (ms) of one protocol from a run.
func meanS(out runOutcome, p model.Protocol) float64 {
	return out.res.Summary.Protocols[p].SystemTime.Mean() / 1000
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
