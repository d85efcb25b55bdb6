package experiments

import (
	"fmt"

	"ucc/internal/cluster"
	"ucc/internal/deadlock"
	"ucc/internal/deploy"
	"ucc/internal/engine"
	"ucc/internal/metrics"
	"ucc/internal/model"
	"ucc/internal/ri"
	"ucc/internal/selector"
	"ucc/internal/workload"
)

// Exp8 runs the named workload archetypes (the shapes §1 motivates dynamic
// concurrency control with) under each static protocol and under dynamic
// min-STL selection: the "best protocol is transaction dependent" argument,
// measured.
func Exp8(cfg RunConfig) Result {
	table := &metrics.Table{Header: []string{
		"scenario", "S 2PL (ms)", "S T/O (ms)", "S PA (ms)", "S dynamic (ms)", "dyn mix 2PL/TO/PA %",
	}}
	horizon := int64(6_000_000)
	if cfg.Quick {
		horizon = 2_000_000
	}
	for _, sc := range workload.Scenarios(32, 22) {
		var s [3]float64
		for _, p := range model.Protocols {
			out := runScenario(cfg.Seed, sc, horizon, selector.Static(p), false)
			s[p] = scenarioMeanS(out)
		}
		dyn := selector.NewDynamic(selector.Options{Fallback: model.PA})
		out := runScenario(cfg.Seed, sc, horizon, dyn.Choose, true)
		sDyn := scenarioMeanS(out)
		var total uint64
		for _, d := range dyn.Decisions {
			total += d
		}
		mix := "-"
		if total > 0 {
			mix = fmt.Sprintf("%d/%d/%d",
				100*dyn.Decisions[model.TwoPL]/total,
				100*dyn.Decisions[model.TO]/total,
				100*dyn.Decisions[model.PA]/total)
		}
		table.AddRow(sc.Name, metrics.F(s[0]), metrics.F(s[1]), metrics.F(s[2]),
			metrics.F(sDyn), mix)
	}
	return Result{
		Tables: []*metrics.Table{table},
	}
}

func runScenario(seed int64, sc workload.Scenario, horizon int64, choose ri.ChooseFunc, estimates bool) runOutcome {
	cfg := cluster.Config{
		Config: deploy.Config{
			Sites: 4, Items: 32,
			RI: ri.Options{
				PAIntervalMicros:     2_000,
				RestartDelayMicros:   20_000,
				DefaultComputeMicros: 1_000,
			},
			Detector: deadlock.Options{PeriodMicros: 10_000, PersistRounds: 2},
		},
		Seed:    seed,
		Latency: engine.UniformLatency{MinMicros: 1_000, MaxMicros: 5_000, LocalMicros: 50},
		Choose:  choose,
	}
	cfg.QM.StatsPeriodMicros = 100_000
	if estimates {
		cfg.Collector.EstimatePeriodMicros = 100_000
	}
	cl, err := cluster.NewSim(cfg)
	if err != nil {
		panic(err)
	}
	for i := 0; i < cfg.Sites; i++ {
		spec := sc.PerSite(i)
		spec.HorizonMicros = horizon
		if err := cl.AddDriver(model.SiteID(i), spec); err != nil {
			panic(err)
		}
	}
	res := cl.Run(horizon, 6_000_000)
	return runOutcome{res: res, cl: cl}
}

func scenarioMeanS(out runOutcome) float64 {
	var sum float64
	var n uint64
	for _, ps := range out.res.Summary.Protocols {
		sum += ps.SystemTime.Mean() * float64(ps.SystemTime.N())
		n += ps.SystemTime.N()
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) / 1000
}
