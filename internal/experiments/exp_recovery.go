package experiments

import (
	"fmt"

	"ucc/internal/cluster"
	"ucc/internal/deadlock"
	"ucc/internal/engine"
	"ucc/internal/metrics"
	"ucc/internal/model"
	"ucc/internal/ri"
	"ucc/internal/workload"
)

// Exp9 measures the durability subsystem beyond the paper's failure-free
// model (§2): a mid-run site crash with WAL/snapshot recovery, swept over
// outage length, plus the group-commit sync amortization. Every run must
// remain conflict serializable and converge its replicas — the unified
// protocol's guarantees survive a crash/restart cycle.
func Exp9(cfg RunConfig) Result {
	horizon := int64(6_000_000)
	crashAt := int64(2_000_000)
	if cfg.Quick {
		horizon = 3_000_000
		crashAt = 1_000_000
	}

	run := func(outageUs int64, gcWindowUs int64) (cluster.Result, *cluster.Cluster) {
		cl, err := cluster.NewSim(cluster.Config{
			Sites:    4,
			Items:    24,
			Replicas: 2,
			Seed:     cfg.Seed,
			Record:   true,
			Latency:  engine.UniformLatency{MinMicros: 1_000, MaxMicros: 5_000, LocalMicros: 50},
			RI: ri.Options{
				PAIntervalMicros:     2_000,
				RestartDelayMicros:   20_000,
				DefaultComputeMicros: 1_000,
			},
			Detector: deadlock.Options{PeriodMicros: 50_000, PersistRounds: 2},
			Durability: &cluster.Durability{
				SnapshotEvery:     300,
				GroupCommitMicros: gcWindowUs,
			},
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		for i := 0; i < 4; i++ {
			if err := cl.AddDriver(model.SiteID(i), workload.Spec{
				ArrivalPerSec: 25,
				HorizonMicros: horizon,
				Items:         24,
				Size:          3,
				ReadFrac:      0.4,
				Share2PL:      1, ShareTO: 1, SharePA: 1,
				ComputeMicros: 1_000,
			}); err != nil {
				panic(fmt.Sprintf("experiments: %v", err))
			}
		}
		if outageUs >= 0 {
			cl.CrashSite(1, crashAt)
			cl.RecoverSite(1, crashAt+outageUs)
		}
		return cl.Run(horizon, 10_000_000), cl
	}

	replicasConverged := func(cl *cluster.Cluster) bool {
		for item := 0; item < 24; item++ {
			sites := cl.CurrentMap().Replicas(model.ItemID(item))
			v0, _ := cl.Stores[sites[0]].Read(model.ItemID(item))
			for _, s := range sites[1:] {
				if v, _ := cl.Stores[s].Read(model.ItemID(item)); v != v0 {
					return false
				}
			}
		}
		return true
	}

	crashTable := &metrics.Table{Header: []string{
		"outage (ms)", "committed", "unfinished", "deferred msgs", "replayed recs", "serializable", "replicas agree",
	}}
	outages := []int64{-1, 0, 100_000, 300_000, 1_000_000}
	if cfg.Quick {
		outages = []int64{-1, 100_000, 300_000}
	}
	var notes []string
	for _, outage := range outages {
		res, cl := run(outage, 0)
		label := "none"
		if outage >= 0 {
			label = fmt.Sprintf("%.0f", float64(outage)/1000)
		}
		ser := res.Serializability != nil && res.Serializability.Serializable
		agree := replicasConverged(cl)
		crashTable.AddRow(label,
			fmt.Sprint(res.Summary.TotalCommitted()),
			fmt.Sprint(res.Unfinished),
			fmt.Sprint(cl.QMTotals().Deferred),
			fmt.Sprint(cl.WALTotals().Replayed),
			yesNo(ser), yesNo(agree))
		if !ser || !agree {
			notes = append(notes, fmt.Sprintf("VIOLATION at outage %s ms", label))
		}
	}

	gcTable := &metrics.Table{Header: []string{
		"group-commit window (ms)", "journaled writes", "WAL syncs", "writes/sync",
	}}
	for _, w := range []int64{0, 2_000, 10_000, 20_000} {
		_, cl := run(-1, w)
		appends := cl.WALTotals().Appends
		syncs := cl.QMTotals().WALSyncs
		ratio := "-"
		if syncs > 0 {
			ratio = metrics.F(float64(appends) / float64(syncs))
		}
		gcTable.AddRow(fmt.Sprintf("%.0f", float64(w)/1000),
			fmt.Sprint(appends), fmt.Sprint(syncs), ratio)
	}

	notes = append(notes,
		"outage 'none' is the durable-but-never-crashed baseline; its cost vs the volatile engine is the journaling overhead",
		"deferred msgs = traffic that arrived during the outage and was replayed to the recovered site in order",
		"a wider group-commit window amortizes more writes per sync; the written items' grants wait for that sync at every window, so the cost is latency, not exposure")
	return Result{
		ID:     "EXP-9",
		Title:  "Site crash, WAL recovery, and group commit",
		Claim:  "beyond the paper: a crashed site rebuilds its partition from snapshot + checksummed log tail; serializability and replica agreement survive the outage; group commit amortizes sync cost across concurrently committing transactions",
		Tables: []*metrics.Table{crashTable, gcTable},
		Notes:  notes,
	}
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
