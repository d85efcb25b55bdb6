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
	"ucc/internal/workload"
)

// Exp10 measures the read-only snapshot fast path (beyond the paper): a
// read-heavy closed-loop mix (90% read-only scans, 10% small updates, ≥90%
// of operations are reads) swept over per-site concurrency, run twice —
// with the fast path on (scans read versioned snapshots, no queueing) and
// off (the same scans demoted to PA read locks). The load is closed-loop
// because capacity is the question: an open loop drained to quiescence
// commits every arrival no matter how slow the path, hiding the difference.
// The claim under test: at fixed pressure the fast path at least doubles
// committed throughput, because scans stop serializing the data queues,
// while every execution stays conflict serializable (snapshot reads are
// recorded into the history logs at the version they observed).
func Exp10(cfg RunConfig) Result {
	horizon := int64(4_000_000)
	concurrency := []int{2, 4, 8, 16}
	if cfg.Quick {
		horizon = 2_000_000
		concurrency = []int{4, 16}
	}

	run := func(inflight int, fastPath bool) (cluster.Result, *cluster.Cluster) {
		cl, err := cluster.NewSim(cluster.Config{
			Config: deploy.Config{
				Sites: 4, Items: 16,
				RI: ri.Options{
					PAIntervalMicros:     2_000,
					RestartDelayMicros:   20_000,
					DefaultComputeMicros: 1_000,
					DisableROFastPath:    !fastPath,
				},
				Detector: deadlock.Options{PeriodMicros: 50_000, PersistRounds: 2},
			},
			Seed:    cfg.Seed,
			Record:  true,
			Latency: engine.UniformLatency{MinMicros: 1_000, MaxMicros: 5_000, LocalMicros: 50},
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		scenario := workload.ReadHeavy(16, 0, 0.9, 8)
		for i := 0; i < 4; i++ {
			spec := scenario.PerSite(i)
			spec.ClosedLoop = inflight
			spec.HorizonMicros = horizon
			if err := cl.AddDriver(model.SiteID(i), spec); err != nil {
				panic(fmt.Sprintf("experiments: %v", err))
			}
		}
		return cl.Run(horizon, 4_000_000), cl
	}

	table := &metrics.Table{Header: []string{
		"inflight/site", "thr on (txn/s)", "thr off (txn/s)", "speedup",
		"RO mean S on (ms)", "RO mean S off (ms)", "snap reads", "stale", "serializable",
	}}
	var notes []string
	for _, inflight := range concurrency {
		on, clOn := run(inflight, true)
		off, _ := run(inflight, false)
		serOn := on.Serializability != nil && on.Serializability.Serializable
		serOff := off.Serializability != nil && off.Serializability.Serializable
		speedup := 0.0
		if off.Summary.Throughput() > 0 {
			speedup = on.Summary.Throughput() / off.Summary.Throughput()
		}
		qt := clOn.QMTotals()
		table.AddRow(
			fmt.Sprint(inflight),
			metrics.F(on.Summary.Throughput()),
			metrics.F(off.Summary.Throughput()),
			metrics.F(speedup),
			metrics.F(on.Summary.Protocols[model.ROSnapshot].SystemTime.Mean()/1000),
			metrics.F(off.Summary.Protocols[model.PA].SystemTime.Mean()/1000),
			fmt.Sprint(qt.SnapReads),
			fmt.Sprint(qt.SnapStale),
			yesNo(serOn)+"/"+yesNo(serOff),
		)
		if !serOn || !serOff {
			notes = append(notes, fmt.Sprintf("VIOLATION at inflight=%d (on=%v off=%v)", inflight, serOn, serOff))
		}
		if qt.SnapStale > 0 {
			notes = append(notes, fmt.Sprintf("STALE snapshot reads at inflight=%d: chain GC outran the staleness margin", inflight))
		}
	}
	notes = append(notes,
		"off = identical workload with ROSnapshot demoted to PA read locks (ri.Options.DisableROFastPath)",
		"with the fast path off, read-only scans hold read locks across their compute phase, convoying every queue they touch; on, they never enter a queue",
		"RO 'mean S off' reads the PA row because the demoted scans commit as PA transactions there")
	return Result{
		Tables: []*metrics.Table{table},
		Notes:  notes,
	}
}
