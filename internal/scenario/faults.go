package scenario

import (
	"fmt"
	"math/rand"

	"ucc/internal/cluster"
	"ucc/internal/engine"
	"ucc/internal/model"
)

// CrashSite is a fault that destroys site's volatile state atMicros into the
// phase (the store and unsynced WAL tail are lost; until recovery the site
// defers every message). The scenario's cluster must set Durability. Any
// group-commit window is inside the checked envelope; ReplicasAgree after a
// crash inside a nonzero window relies on the catch-up plane, which runs
// whenever items have more than one copy (see
// deploy.Durability.GroupCommitMicros).
func CrashSite(site model.SiteID, atMicros int64) Fault {
	return Fault{
		Name:     fmt.Sprintf("crash-site-%d", site),
		AtMicros: atMicros,
		Apply: func(cl *cluster.Cluster) {
			// The runner advanced the engine to the fault instant; an offset
			// of 0 posts the crash at the current virtual time.
			cl.CrashSite(site, 0)
		},
	}
}

// RecoverSite is a fault that rebuilds site from snapshot + WAL replay
// atMicros into the phase; deferred messages are then processed in arrival
// order.
func RecoverSite(site model.SiteID, atMicros int64) Fault {
	return Fault{
		Name:     fmt.Sprintf("recover-site-%d", site),
		AtMicros: atMicros,
		Apply: func(cl *cluster.Cluster) {
			cl.RecoverSite(site, 0)
		},
	}
}

// SlowWALAll is a fault that widens every site's group-commit window to
// windowMicros atMicros into the phase — the "disk got slow, batch harder"
// model: commits wait up to the window for their sync, and each sync covers
// more of them. Restore with another SlowWALAll carrying window 0.
func SlowWALAll(atMicros, windowMicros int64) Fault {
	name := "slow-wal-all"
	if windowMicros == 0 {
		name = "restore-wal-all"
	}
	return Fault{
		Name:     name,
		AtMicros: atMicros,
		Apply: func(cl *cluster.Cluster) {
			for s := 0; s < cl.Cfg.Sites; s++ {
				cl.SetGroupCommitWindow(model.SiteID(s), windowMicros)
			}
		},
	}
}

// MoveItems is a fault that publishes a new partition-map epoch atMicros into
// the phase, re-homing items so dst is their primary: the online-rebalance
// intervention. In-flight transactions drain at the old owners while the new
// owner fills its copies from the old owners' logs; traffic routed by the stale map gets the
// wrong-epoch NAK and restarts against the new one.
func MoveItems(atMicros int64, items []model.ItemID, dst model.SiteID) Fault {
	return Fault{
		Name:     fmt.Sprintf("move-%d-items-to-site-%d", len(items), dst),
		AtMicros: atMicros,
		Apply: func(cl *cluster.Cluster) {
			// The runner advanced the engine to the fault instant; offset 0
			// publishes at the current virtual time.
			if err := cl.MoveItems(0, items, dst); err != nil {
				panic(fmt.Sprintf("scenario: move fault: %v", err))
			}
		},
	}
}

// AddSite is a fault that brings a standby site (empty under the epoch-0
// layout, see cluster.Config.DataSites) into the active placement atMicros
// into the phase.
func AddSite(site model.SiteID, atMicros int64) Fault {
	return Fault{
		Name:     fmt.Sprintf("add-site-%d", site),
		AtMicros: atMicros,
		Apply: func(cl *cluster.Cluster) {
			if err := cl.AddSite(0, site); err != nil {
				panic(fmt.Sprintf("scenario: add-site fault: %v", err))
			}
		},
	}
}

// DrainSite is a fault that evacuates a site from the active placement
// atMicros into the phase: its copies re-home to the surviving sites.
func DrainSite(site model.SiteID, atMicros int64) Fault {
	return Fault{
		Name:     fmt.Sprintf("drain-site-%d", site),
		AtMicros: atMicros,
		Apply: func(cl *cluster.Cluster) {
			if err := cl.DrainSite(0, site); err != nil {
				panic(fmt.Sprintf("scenario: drain-site fault: %v", err))
			}
		},
	}
}

// RebalanceHot is a fault that moves the hottest frac of items — ranked by
// observed grant counts — to the least-loaded site atMicros into the phase.
func RebalanceHot(atMicros int64, frac float64) Fault {
	return Fault{
		Name:     fmt.Sprintf("rebalance-hot-%.0f%%", frac*100),
		AtMicros: atMicros,
		Apply: func(cl *cluster.Cluster) {
			if _, err := cl.RebalanceHot(0, frac, -1); err != nil {
				panic(fmt.Sprintf("scenario: hot-rebalance fault: %v", err))
			}
		},
	}
}

// DegradeLink is a fault that swaps the cluster's latency model atMicros
// into the phase for one where every message into or out of site pays an
// extra asymmetric delay on top of base (messages in flight keep their
// already-scheduled delivery times). Restore with RestoreLatency.
func DegradeLink(site model.SiteID, atMicros int64, base engine.LatencyModel, extraToMicros, extraFromMicros int64) Fault {
	return Fault{
		Name:     fmt.Sprintf("degrade-link-site-%d", site),
		AtMicros: atMicros,
		Apply: func(cl *cluster.Cluster) {
			cl.SetLatency(AsymmetricLatency{
				Base:            base,
				SlowSite:        site,
				ExtraToMicros:   extraToMicros,
				ExtraFromMicros: extraFromMicros,
			})
		},
	}
}

// RestoreLatency is a fault that puts the given latency model back atMicros
// into the phase.
func RestoreLatency(atMicros int64, m engine.LatencyModel) Fault {
	return Fault{
		Name:     "restore-latency",
		AtMicros: atMicros,
		Apply: func(cl *cluster.Cluster) {
			cl.SetLatency(m)
		},
	}
}

// AsymmetricLatency wraps a base latency model and adds directional delay
// for one slow site — the degraded-link fault shape: a congested uplink
// (ExtraFromMicros), a congested downlink (ExtraToMicros), or both. Local
// (same-site) delivery is never penalized.
type AsymmetricLatency struct {
	Base            engine.LatencyModel
	SlowSite        model.SiteID
	ExtraToMicros   int64
	ExtraFromMicros int64
}

// DelayMicros implements engine.LatencyModel.
func (a AsymmetricLatency) DelayMicros(src, dst engine.Addr, rng *rand.Rand) int64 {
	d := a.Base.DelayMicros(src, dst, rng)
	if src.ID == dst.ID {
		return d
	}
	if dst.ID == a.SlowSite {
		d += a.ExtraToMicros
	}
	if src.ID == a.SlowSite {
		d += a.ExtraFromMicros
	}
	return d
}
