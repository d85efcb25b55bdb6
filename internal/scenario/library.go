package scenario

import (
	"sort"

	"ucc/internal/cluster"
	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/ri"
	"ucc/internal/workload"
)

// flat lifts one spec into a per-site workload function (homogeneous sites).
func flat(spec workload.Spec) func(int) workload.Spec {
	return func(int) workload.Spec { return spec }
}

// baseLatency is the library's explicit network model (the cluster default,
// written out so latency faults can restore it).
var baseLatency = engine.UniformLatency{MinMicros: 1_000, MaxMicros: 3_000, LocalMicros: 50}

// Library returns every named scenario, sorted by name. Each entry is pure
// data: run one with Run, list them with `uccscenario -list`.
func Library() []Scenario {
	out := []Scenario{
		ycsbA(),
		ycsbB(),
		ycsbC(),
		tpccMix(),
		diurnal(),
		flashCrowd(),
		crashMidSpike(),
		crashInCommitWindow(),
		slowDiskWAL(),
		degradedLink(),
		quorumFailover(),
		replicaCatchup(),
		liveRebalance(),
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ByName finds one scenario.
func ByName(name string) (Scenario, bool) {
	for _, s := range Library() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// Smoke returns the fast set CI runs on every PR: one fault-free overload
// scenario, one write-all crash-and-recover scenario, one crash inside a
// group-commit window, one quorum failover scenario, and one online-rebalance
// scenario.
func Smoke() []Scenario {
	var out []Scenario
	for _, name := range []string{"flash-crowd", "crash-mid-spike", "crash-in-commit-window", "quorum-failover", "live-rebalance"} {
		sc, _ := ByName(name)
		out = append(out, sc)
	}
	return out
}

// ycsbA is the YCSB-A shape: update-heavy (50/50 read/write), Zipf-skewed
// access, all three queued protocols sharing the mix.
func ycsbA() Scenario {
	spec := workload.Spec{
		ArrivalPerSec: 30,
		Items:         256,
		Size:          4,
		ReadFrac:      0.5,
		Access:        workload.AccessZipf,
		Share2PL:      1, ShareTO: 1, SharePA: 1,
		ComputeMicros: 1_000,
	}
	return Scenario{
		Name:        "ycsb-a",
		Description: "YCSB-A: 50/50 read/write, Zipf-skewed, 2PL/TO/PA mix",
		Cluster:     cluster.Config{Sites: 4, Items: 256, Seed: 1, Latency: baseLatency},
		Phases: []Phase{
			{Name: "warm", DurationMicros: 2_000_000, Workload: flat(spec)},
			{Name: "measure", DurationMicros: 6_000_000, Workload: flat(spec), Checks: []Check{
				MinCommitted(400),
				P99Below(500_000),
			}},
		},
		Final: []Check{Serializable(), NoUnfinished(), OfferedAccounted()},
	}
}

// ycsbB is the YCSB-B shape: read-mostly — 95% reads inside locked
// transactions plus a read-only snapshot share on the no-lock fast path.
func ycsbB() Scenario {
	spec := workload.Spec{
		ArrivalPerSec: 40,
		Items:         256,
		Size:          4,
		ReadFrac:      0.95,
		Access:        workload.AccessZipf,
		Share2PL:      0.7, ShareRO: 0.3,
		ROSize:        8,
		ComputeMicros: 1_000,
	}
	return Scenario{
		Name:        "ycsb-b",
		Description: "YCSB-B: read-mostly, 30% read-only snapshot scans on the fast path",
		Cluster:     cluster.Config{Sites: 4, Items: 256, Seed: 1, Latency: baseLatency},
		Phases: []Phase{
			{Name: "warm", DurationMicros: 2_000_000, Workload: flat(spec)},
			{Name: "measure", DurationMicros: 6_000_000, Workload: flat(spec), Checks: []Check{
				MinCommitted(500),
				ROFastPathUsed(100),
				P99Below(400_000),
			}},
		},
		Final: []Check{Serializable(), NoUnfinished(), OfferedAccounted()},
	}
}

// ycsbC is the YCSB-C shape: 100% reads, all on the snapshot fast path —
// the lock-free ceiling.
func ycsbC() Scenario {
	spec := workload.Spec{
		ArrivalPerSec: 60,
		Items:         256,
		ShareRO:       1,
		ROSize:        8,
		ComputeMicros: 500,
	}
	return Scenario{
		Name:        "ycsb-c",
		Description: "YCSB-C: pure read-only snapshot traffic (no-lock fast path ceiling)",
		Cluster:     cluster.Config{Sites: 4, Items: 256, Seed: 1, Latency: baseLatency},
		Phases: []Phase{
			{Name: "warm", DurationMicros: 1_000_000, Workload: flat(spec)},
			{Name: "measure", DurationMicros: 5_000_000, Workload: flat(spec), Checks: []Check{
				MinCommitted(800),
				ROFastPathUsed(800),
				P99Below(100_000),
			}},
		},
		Final: []Check{Serializable(), NoUnfinished(), OfferedAccounted()},
	}
}

// tpccMix is a TPC-C-shaped heterogeneous graph: each site runs a different
// transaction class against the shared database — big read-write new-orders,
// small hot payments, and two read-only classes of very different size.
func tpccMix() Scenario {
	perSite := func(site int) workload.Spec {
		switch site % 4 {
		case 0: // new-order: large read-write
			return workload.Spec{
				ArrivalPerSec: 20, Items: 512,
				SizeDist: workload.SizeUniform, SizeMin: 5, SizeMax: 15,
				ReadFrac: 0.4, Share2PL: 1, ComputeMicros: 2_000, Class: "new-order",
			}
		case 1: // payment: small, hot, PA
			return workload.Spec{
				ArrivalPerSec: 40, Items: 512, Size: 2,
				ReadFrac: 0.25, SharePA: 1,
				Access: workload.AccessHotspot, HotItems: 32, HotFrac: 0.8,
				ComputeMicros: 500, Class: "payment",
			}
		case 2: // order-status: small read-only lookups
			return workload.Spec{
				ArrivalPerSec: 30, Items: 512, ShareRO: 1, ROSize: 6,
				ComputeMicros: 500, Class: "order-status",
			}
		default: // stock-level: big read-only scans
			return workload.Spec{
				ArrivalPerSec: 10, Items: 512, ShareRO: 1, ROSize: 24,
				ROComputeMicros: 3_000, ComputeMicros: 1_000, Class: "stock-level",
			}
		}
	}
	return Scenario{
		Name:        "tpcc-mix",
		Description: "TPC-C-shaped heterogeneous mix: new-order/payment/order-status/stock-level, one class per site",
		Cluster:     cluster.Config{Sites: 4, Items: 512, Seed: 1, Latency: baseLatency},
		Phases: []Phase{
			{Name: "warm", DurationMicros: 2_000_000, Workload: perSite},
			{Name: "steady", DurationMicros: 6_000_000, Workload: perSite, Checks: []Check{
				MinCommitted(400),
				ROFastPathUsed(150),
			}},
		},
		Final: []Check{Serializable(), NoUnfinished(), OfferedAccounted()},
	}
}

// diurnal is a day-shaped arrival curve that crosses the admission-control
// token rate twice: both peaks must shed, the opening trough must not.
func diurnal() Scenario {
	at := func(rate float64) workload.Spec {
		return workload.Spec{
			ArrivalPerSec: rate,
			Items:         256,
			Size:          4,
			ReadFrac:      0.6,
			Share2PL:      1, ShareTO: 1,
			ComputeMicros: 1_000,
		}
	}
	cfg := cluster.Config{Sites: 4, Items: 256, Seed: 1, Latency: baseLatency}
	cfg.RI.Admission = ri.AdmissionOptions{Enabled: true, TokensPerSec: 60}
	return Scenario{
		Name:        "diurnal",
		Description: "day-shaped load crossing the 60/s admission token rate twice: peaks shed, troughs don't",
		Cluster:     cfg,
		Phases: []Phase{
			{Name: "night", DurationMicros: 1_500_000, Workload: flat(at(20)), Checks: []Check{
				ShedsNone(),
			}},
			{Name: "morning-peak", DurationMicros: 2_000_000, Workload: flat(at(110)), Checks: []Check{
				ShedsSome(20),
			}},
			{Name: "midday", DurationMicros: 1_500_000, Workload: flat(at(35)), Checks: []Check{
				MinCommitted(100),
			}},
			{Name: "evening-peak", DurationMicros: 2_000_000, Workload: flat(at(120)), Checks: []Check{
				ShedsSome(20),
			}},
			{Name: "late-night", DurationMicros: 1_000_000, Workload: flat(at(15)), Checks: []Check{
				MinCommitted(30),
			}},
		},
		Final: []Check{Serializable(), NoUnfinished(), OfferedAccounted()},
	}
}

// flashCrowd is a sudden 8× hotspot spike against a capped, admission-
// controlled cluster: the spike must shed (not queue without bound), queue
// depths must stay under the cap, and service must recover afterwards.
func flashCrowd() Scenario {
	calm := workload.Spec{
		ArrivalPerSec: 20, Items: 256, Size: 4, ReadFrac: 0.6,
		Share2PL: 1, ShareTO: 1, ComputeMicros: 1_000,
	}
	spike := workload.Spec{
		ArrivalPerSec: 160, Items: 256, Size: 4, ReadFrac: 0.6,
		Share2PL: 1, ShareTO: 1, ComputeMicros: 1_000,
		Access: workload.AccessHotspot, HotItems: 16, HotFrac: 0.9,
	}
	cfg := cluster.Config{Sites: 4, Items: 256, Seed: 1, Latency: baseLatency}
	cfg.QM.MaxQueueDepth = 64
	cfg.RI.Admission = ri.AdmissionOptions{Enabled: true, TokensPerSec: 80}
	return Scenario{
		Name:        "flash-crowd",
		Description: "8x hotspot spike against admission control + bounded queues; sheds, stays capped, recovers",
		Cluster:     cfg,
		Phases: []Phase{
			{Name: "calm", DurationMicros: 2_000_000, Workload: flat(calm), Checks: []Check{
				ShedsNone(),
				MinCommitted(80),
			}},
			{Name: "spike", DurationMicros: 2_000_000, Workload: flat(spike), Checks: []Check{
				ShedsSome(20),
				DepthWithinCap(),
			}},
			{Name: "aftermath", DurationMicros: 3_000_000, Workload: flat(calm), Checks: []Check{
				MinCommitted(100),
				DepthWithinCap(),
			}},
		},
		Final: []Check{Serializable(), NoUnfinished(), OfferedAccounted()},
	}
}

// crashMidSpike crashes a replicated durable site in the middle of a load
// spike and recovers it two virtual seconds later: the run must stay
// serializable, drain clean, and end with every replica pair agreeing.
func crashMidSpike() Scenario {
	normal := workload.Spec{
		ArrivalPerSec: 25, Items: 24, Size: 3, ReadFrac: 0.5,
		Share2PL: 1, ShareTO: 1, SharePA: 1, ComputeMicros: 1_000,
	}
	spike := normal
	spike.ArrivalPerSec = 50
	cooldown := normal
	cooldown.ArrivalPerSec = 15
	cfg := cluster.Config{
		Sites: 4, Items: 24, Replicas: 2, Seed: 1, Latency: baseLatency,
		// In-memory media, zero group-commit window. Write-all replication has
		// no catch-up plane, so this scenario keeps the window at zero, where
		// under the simulator no crash can fall between a write's journaling
		// and its sync (see cluster.Durability.GroupCommitMicros);
		// crash-in-commit-window is the nonzero-window counterpart.
		Durability: &cluster.Durability{},
	}
	return Scenario{
		Name:         "crash-mid-spike",
		Description:  "site crash in the middle of a 2x spike, recovery 2s later; replicas must re-converge",
		Cluster:      cfg,
		SettleMicros: 10_000_000,
		Phases: []Phase{
			{Name: "normal", DurationMicros: 2_000_000, Workload: flat(normal), Checks: []Check{
				MinCommitted(100),
			}},
			{Name: "spike", DurationMicros: 3_000_000, Workload: flat(spike), Faults: []Fault{
				CrashSite(3, 500_000),
				RecoverSite(3, 2_500_000),
			}},
			{Name: "cooldown", DurationMicros: 2_000_000, Workload: flat(cooldown), Checks: []Check{
				MinCommitted(50),
			}},
		},
		Final: []Check{
			Serializable(),
			NoUnfinished(),
			ReplicasAgree(),
			OfferedAccounted(),
			TotalCommittedAtLeast(300),
		},
	}
}

// crashInCommitWindow crashes a quorum-replicated site while its 20 ms
// group-commit window holds journaled, unsynced writes, with load still
// arriving, and recovers it a second later. The window's writes were parked
// — nothing was granted past them at that site — so the crash destroys only
// state nobody observed there: the history stays serializable, nothing is
// left unfinished, and the copy that lost them converges again by log
// shipping from its quorum peers.
func crashInCommitWindow() Scenario {
	spec := workload.Spec{
		ArrivalPerSec: 30, Items: 24, Size: 3, ReadFrac: 0.4,
		Share2PL: 1, ShareTO: 1, SharePA: 1, ComputeMicros: 1_000,
	}
	cooldown := spec
	cooldown.ArrivalPerSec = 10
	cfg := cluster.Config{
		Sites: 3, Items: 24, Replicas: 3, Seed: 1, Latency: baseLatency,
		Durability: &cluster.Durability{GroupCommitMicros: 20_000},
		Quorum:     &model.Quorum{N: 3, W: 2, R: 2},
	}
	return Scenario{
		Name:         "crash-in-commit-window",
		Description:  "quorum site crashes inside a 20ms group-commit window under load; only unobserved writes are lost, replicas re-converge",
		Cluster:      cfg,
		SettleMicros: 10_000_000,
		Phases: []Phase{
			{Name: "steady", DurationMicros: 2_000_000, Workload: flat(spec), Checks: []Check{
				MinCommitted(100),
				WALBatchingAtLeast(1.5),
			}},
			{Name: "crash", DurationMicros: 3_000_000, Workload: flat(spec), Faults: []Fault{
				CrashSite(1, 500_000),
				RecoverSite(1, 1_500_000),
			}, Checks: []Check{
				MinCommitted(100),
			}},
			{Name: "cooldown", DurationMicros: 2_000_000, Workload: flat(cooldown), Checks: []Check{
				MinCommitted(30),
			}},
		},
		Final: []Check{
			Serializable(),
			NoUnfinished(),
			ReplicasAgree(),
			OfferedAccounted(),
			TotalCommittedAtLeast(300),
		},
	}
}

// quorumFailover is the tentpole failover story as a declarative scenario: a
// 3-site, 3-way-replicated quorum cluster (N=3, W=2, R=2) loses a site for a
// full virtual second in the middle of steady load. The dead-site phase has
// its own commit floor — the surviving pair forms every quorum, so the dip
// must stay bounded, not stall — and the finals require serializability,
// full replica convergence (the dead site catches up via WAL log shipping),
// and the offered-load accounting identity.
func quorumFailover() Scenario {
	spec := workload.Spec{
		ArrivalPerSec: 25, Items: 24, Size: 3, ReadFrac: 0.5,
		Share2PL: 1, ShareTO: 1, SharePA: 1, ComputeMicros: 1_000,
	}
	cfg := cluster.Config{
		Sites: 3, Items: 24, Replicas: 3, Seed: 1, Latency: baseLatency,
		Durability: &cluster.Durability{},
		Quorum:     &model.Quorum{N: 3, W: 2, R: 2},
	}
	return Scenario{
		Name:        "quorum-failover",
		Description: "N=3/W=2/R=2 quorum loses a site for 1s mid-run; commits continue on the surviving pair, dead site converges via log shipping",
		Cluster:     cfg,
		// The settle window must cover several 150ms pull periods so the
		// recovered site's final catch-up batches land before the checks.
		SettleMicros: 10_000_000,
		Phases: []Phase{
			{Name: "steady", DurationMicros: 2_000_000, Workload: flat(spec), Checks: []Check{
				MinCommitted(100),
			}},
			{Name: "dead-site", DurationMicros: 2_000_000, Workload: flat(spec), Faults: []Fault{
				CrashSite(1, 100_000),
			}, Checks: []Check{
				MinCommitted(60),
			}},
			{Name: "recovered", DurationMicros: 2_000_000, Workload: flat(spec), Faults: []Fault{
				RecoverSite(1, 100_000),
			}, Checks: []Check{
				MinCommitted(80),
			}},
		},
		Final: []Check{
			Serializable(),
			NoUnfinished(),
			ReplicasAgree(),
			OfferedAccounted(),
			TotalCommittedAtLeast(300),
		},
	}
}

// liveRebalance is the versioned-placement tentpole as a declarative
// scenario: a replicated cluster under a hotspot workload moves a quarter of
// its items — the entire hot set included — to one site in the middle of
// steady load. Commits must keep flowing in the move phase (the refusal
// window while the transferred state is in flight is the only allowed dip),
// the post-move phase must recover, and the finals require serializability
// (no transaction committed twice or half-applied across the flip) plus
// replica agreement resolved against the FINAL map.
func liveRebalance() Scenario {
	spec := workload.Spec{
		ArrivalPerSec: 25, Items: 24, Size: 3, ReadFrac: 0.5,
		Share2PL: 1, ShareTO: 1, SharePA: 1, ComputeMicros: 1_000,
		Access: workload.AccessHotspot, HotItems: 6, HotFrac: 0.7,
	}
	cfg := cluster.Config{
		Sites: 3, Items: 24, Replicas: 2, Seed: 1, Latency: baseLatency,
		Durability: &cluster.Durability{},
	}
	// A quarter of the items, covering the whole hot set (items 0..5).
	moved := []model.ItemID{0, 1, 2, 3, 4, 5}
	return Scenario{
		Name:        "live-rebalance",
		Description: "25% of items (incl. the hot set) move to one site mid-run; commits continue, serializability and replica agreement survive the flip",
		Cluster:     cfg,
		// The settle window covers the transfer retry period several times
		// over, so late sessions finish before the finals.
		SettleMicros: 10_000_000,
		Phases: []Phase{
			{Name: "steady", DurationMicros: 2_000_000, Workload: flat(spec), Checks: []Check{
				MinCommitted(100),
			}},
			{Name: "move", DurationMicros: 2_000_000, Workload: flat(spec), Faults: []Fault{
				MoveItems(500_000, moved, 2),
			}, Checks: []Check{
				MinCommitted(60),
			}},
			{Name: "after", DurationMicros: 2_000_000, Workload: flat(spec), Checks: []Check{
				MinCommitted(80),
			}},
		},
		Final: []Check{
			Serializable(),
			NoUnfinished(),
			ReplicasAgree(),
			OfferedAccounted(),
			TotalCommittedAtLeast(300),
		},
	}
}

// replicaCatchup stresses the catch-up plane rather than the failover dip: a
// long outage under write-heavy load builds a deep replication lag, then the
// scenario gives the recovered site a quiet cooldown phase in which log
// shipping must close the whole gap before the final convergence check.
func replicaCatchup() Scenario {
	heavy := workload.Spec{
		ArrivalPerSec: 35, Items: 16, Size: 3, ReadFrac: 0.2,
		Share2PL: 1, ShareTO: 1, SharePA: 1, ComputeMicros: 500,
	}
	light := heavy
	light.ArrivalPerSec = 10
	cfg := cluster.Config{
		Sites: 3, Items: 16, Replicas: 3, Seed: 1, Latency: baseLatency,
		Durability: &cluster.Durability{},
		Quorum:     &model.Quorum{N: 3, W: 2, R: 2},
	}
	return Scenario{
		Name:         "replica-catchup",
		Description:  "write-heavy load through a 2.5s outage builds deep lag; the recovered site must close the gap by log shipping alone",
		Cluster:      cfg,
		SettleMicros: 10_000_000,
		Phases: []Phase{
			{Name: "warm", DurationMicros: 1_000_000, Workload: flat(heavy), Checks: []Check{
				MinCommitted(50),
			}},
			{Name: "lag-building", DurationMicros: 3_000_000, Workload: flat(heavy), Faults: []Fault{
				CrashSite(2, 500_000),
			}, Checks: []Check{
				MinCommitted(100),
			}},
			{Name: "cooldown", DurationMicros: 2_000_000, Workload: flat(light), Faults: []Fault{
				RecoverSite(2, 100_000),
			}, Checks: []Check{
				MinCommitted(30),
			}},
		},
		Final: []Check{
			Serializable(),
			NoUnfinished(),
			ReplicasAgree(),
			OfferedAccounted(),
		},
	}
}

// slowDiskWAL widens every site's group-commit window mid-run — the slow
// disk that batches harder — then restores it: syncs-per-commit must drop
// during the wide window and recover after.
func slowDiskWAL() Scenario {
	spec := workload.Spec{
		ArrivalPerSec: 30, Items: 128, Size: 3, ReadFrac: 0.4,
		Share2PL: 1, ComputeMicros: 1_000,
	}
	cfg := cluster.Config{
		Sites: 4, Items: 128, Seed: 1, Latency: baseLatency,
		Durability: &cluster.Durability{},
	}
	return Scenario{
		Name:        "slow-disk-wal",
		Description: "group-commit window widened to 20ms mid-run (slow disk), then restored; sync rate must track",
		Cluster:     cfg,
		Phases: []Phase{
			{Name: "baseline", DurationMicros: 2_000_000, Workload: flat(spec), Checks: []Check{
				MinCommitted(100),
				WALBatchingAtMost(1.2),
			}},
			{Name: "degraded", DurationMicros: 3_000_000, Workload: flat(spec), Faults: []Fault{
				SlowWALAll(0, 20_000),
			}, Checks: []Check{
				MinCommitted(100),
				WALBatchingAtLeast(1.5),
			}},
			{Name: "restored", DurationMicros: 2_000_000, Workload: flat(spec), Faults: []Fault{
				SlowWALAll(0, 0),
			}, Checks: []Check{
				MinCommitted(100),
			}},
		},
		Final: []Check{Serializable(), NoUnfinished(), OfferedAccounted()},
	}
}

// degradedLink makes one site's network asymmetric and slow mid-run: tail
// latency must visibly degrade, then heal when the link does.
func degradedLink() Scenario {
	spec := workload.Spec{
		ArrivalPerSec: 30, Items: 256, Size: 4, ReadFrac: 0.6,
		Share2PL: 1, ShareTO: 1, ComputeMicros: 1_000,
	}
	cfg := cluster.Config{Sites: 4, Items: 256, Seed: 1, Latency: baseLatency}
	return Scenario{
		Name:        "degraded-link",
		Description: "one site's link gains +15ms each way mid-run, then heals; p99 must degrade and recover",
		Cluster:     cfg,
		Phases: []Phase{
			{Name: "healthy", DurationMicros: 2_000_000, Workload: flat(spec), Checks: []Check{
				MinCommitted(100),
				P99Below(200_000),
			}},
			{Name: "degraded", DurationMicros: 3_000_000, Workload: flat(spec), Faults: []Fault{
				DegradeLink(2, 0, baseLatency, 15_000, 15_000),
			}, Checks: []Check{
				MinCommitted(100),
				P99Above(30_000),
			}},
			{Name: "healed", DurationMicros: 2_000_000, Workload: flat(spec), Faults: []Fault{
				RestoreLatency(0, baseLatency),
			}, Checks: []Check{
				MinCommitted(100),
			}},
		},
		Final: []Check{Serializable(), NoUnfinished(), OfferedAccounted()},
	}
}
