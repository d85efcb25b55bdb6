package scenario

import (
	"fmt"

	"ucc/internal/metrics"
	"ucc/internal/model"
)

// --- Phase checks: evaluated at a phase boundary over that phase's delta ---

// MinCommitted asserts at least n transactions committed during the phase.
func MinCommitted(n uint64) Check {
	return Check{
		Name: fmt.Sprintf("committed>=%d", n),
		Eval: func(c *Ctx) error {
			d, err := c.delta()
			if err != nil {
				return err
			}
			if got := d.TotalCommitted(); got < n {
				return fmt.Errorf("committed %d < %d", got, n)
			}
			return nil
		},
	}
}

// P99Below asserts the phase's p99 commit latency (system time, all
// protocols merged, histogram resolution) is at most micros.
func P99Below(micros int64) Check {
	return Check{
		Name: fmt.Sprintf("p99<=%dms", micros/1000),
		Eval: func(c *Ctx) error {
			d, err := c.delta()
			if err != nil {
				return err
			}
			h := mergedLatency(d)
			if h.Count() == 0 {
				return fmt.Errorf("no commits in phase to bound p99 over")
			}
			if got := h.Quantile(0.99); got > float64(micros) {
				return fmt.Errorf("p99 %.0fµs > %dµs", got, micros)
			}
			return nil
		},
	}
}

// P99Above asserts the phase's p99 commit latency is at least micros — the
// assertion that a degradation fault actually degraded service.
func P99Above(micros int64) Check {
	return Check{
		Name: fmt.Sprintf("p99>=%dms", micros/1000),
		Eval: func(c *Ctx) error {
			d, err := c.delta()
			if err != nil {
				return err
			}
			h := mergedLatency(d)
			if h.Count() == 0 {
				return fmt.Errorf("no commits in phase to bound p99 over")
			}
			if got := h.Quantile(0.99); got < float64(micros) {
				return fmt.Errorf("p99 %.0fµs < %dµs", got, micros)
			}
			return nil
		},
	}
}

// SLOGoodput asserts that of everything offered during the phase (committed
// + shed + busy-NAK'd), at least minFrac committed within sloMicros — the
// overload experiments' goodput measure (metrics.Summary.CommittedWithin)
// as a checkpoint.
func SLOGoodput(sloMicros int64, minFrac float64) Check {
	return Check{
		Name: fmt.Sprintf("goodput(SLO %dms)>=%.0f%%", sloMicros/1000, minFrac*100),
		Eval: func(c *Ctx) error {
			d, err := c.delta()
			if err != nil {
				return err
			}
			offered := d.TotalCommitted() + d.TotalShed() + d.TotalBusy()
			if offered == 0 {
				return fmt.Errorf("nothing offered in phase")
			}
			good := d.CommittedWithin(sloMicros)
			if frac := float64(good) / float64(offered); frac < minFrac {
				return fmt.Errorf("goodput %d/%d = %.1f%% < %.1f%%", good, offered, frac*100, minFrac*100)
			}
			return nil
		},
	}
}

// ShedsSome asserts admission control refused at least n arrivals during the
// phase — the positive assertion that an overload phase actually crossed the
// admission threshold.
func ShedsSome(n uint64) Check {
	return Check{
		Name: fmt.Sprintf("shed>=%d", n),
		Eval: func(c *Ctx) error {
			d, err := c.delta()
			if err != nil {
				return err
			}
			if got := d.TotalShed(); got < n {
				return fmt.Errorf("shed %d < %d", got, n)
			}
			return nil
		},
	}
}

// ShedsNone asserts admission control refused nothing during the phase — the
// under-threshold half of the diurnal curve.
func ShedsNone() Check {
	return Check{
		Name: "shed==0",
		Eval: func(c *Ctx) error {
			d, err := c.delta()
			if err != nil {
				return err
			}
			if got := d.TotalShed(); got != 0 {
				return fmt.Errorf("shed %d arrivals in a phase that must not shed", got)
			}
			return nil
		},
	}
}

// DepthWithinCap asserts no data queue has ever exceeded the configured
// qm.Options.MaxQueueDepth (a high-water mark, so by the last phase it
// covers the whole run). Errors if the cluster has no cap configured.
func DepthWithinCap() Check {
	return Check{
		Name: "queue-depth<=cap",
		Eval: func(c *Ctx) error {
			limit := c.Cluster.Cfg.QM.MaxQueueDepth
			if limit <= 0 {
				return fmt.Errorf("cluster has no MaxQueueDepth cap to check against")
			}
			if got := c.Cluster.DepthHighWater(); got > limit {
				return fmt.Errorf("queue depth high-water %d > cap %d", got, limit)
			}
			return nil
		},
	}
}

// ROFastPathUsed asserts at least n read-only snapshot transactions
// committed during the phase.
func ROFastPathUsed(n uint64) Check {
	return Check{
		Name: fmt.Sprintf("ro-committed>=%d", n),
		Eval: func(c *Ctx) error {
			if c.Phase == nil {
				return fmt.Errorf("phase check evaluated outside a phase")
			}
			if got := c.Phase.RI.ROCommitted; got < n {
				return fmt.Errorf("read-only fast-path commits %d < %d", got, n)
			}
			return nil
		},
	}
}

// WALBatchingAtLeast asserts the phase's WAL batching factor — journal
// appends per media sync — is at least factor. With a wide group-commit
// window many writes share one sync, so the factor rises well above what
// the sparse simulated load reaches at window zero: the slow-disk
// scenario's signature.
func WALBatchingAtLeast(factor float64) Check {
	return Check{
		Name: fmt.Sprintf("wal-appends/sync>=%.1f", factor),
		Eval: func(c *Ctx) error {
			if c.Phase == nil {
				return fmt.Errorf("phase check evaluated outside a phase")
			}
			appends, syncs := c.Phase.WAL.Appends, c.Phase.WAL.Syncs
			if syncs == 0 {
				return fmt.Errorf("no WAL syncs in phase (durability not configured?)")
			}
			if got := float64(appends) / float64(syncs); got < factor {
				return fmt.Errorf("%d appends / %d syncs = %.2f < %.2f", appends, syncs, got, factor)
			}
			return nil
		},
	}
}

// WALBatchingAtMost bounds the same factor from above — a load-shape
// assertion, not a durability one. The zero-window invariant is "synced
// before exposed", and it says nothing about how many writes one sync
// covers: a shard syncs once per drain of what is already in its mailbox.
// Only because the simulated scenarios deliver releases at distinct virtual
// instants does a zero window keep the factor near 1 there, which is what
// lets slow-disk-wal tell its baseline phase from its widened one.
func WALBatchingAtMost(factor float64) Check {
	return Check{
		Name: fmt.Sprintf("wal-appends/sync<=%.1f", factor),
		Eval: func(c *Ctx) error {
			if c.Phase == nil {
				return fmt.Errorf("phase check evaluated outside a phase")
			}
			appends, syncs := c.Phase.WAL.Appends, c.Phase.WAL.Syncs
			if syncs == 0 {
				return fmt.Errorf("no WAL syncs in phase (durability not configured?)")
			}
			if got := float64(appends) / float64(syncs); got > factor {
				return fmt.Errorf("%d appends / %d syncs = %.2f > %.2f", appends, syncs, got, factor)
			}
			return nil
		},
	}
}

// --- Final checks: evaluated after the drain over the whole run ---

// Serializable asserts the recorded history has an acyclic conflict graph.
func Serializable() Check {
	return Check{
		Name: "serializable",
		Eval: func(c *Ctx) error {
			f, err := c.final()
			if err != nil {
				return err
			}
			if f.Serializability == nil {
				return fmt.Errorf("no history was recorded")
			}
			if !f.Serializability.Serializable {
				return fmt.Errorf("conflict cycle over %d txns: %v", f.Serializability.Txns, f.Serializability.Cycle)
			}
			return nil
		},
	}
}

// NoUnfinished asserts the drain left no transaction live — nothing stuck in
// an undetected deadlock, nothing leaked.
func NoUnfinished() Check {
	return Check{
		Name: "no-unfinished",
		Eval: func(c *Ctx) error {
			f, err := c.final()
			if err != nil {
				return err
			}
			if f.Unfinished != 0 {
				return fmt.Errorf("%d transactions still live after drain", f.Unfinished)
			}
			return nil
		},
	}
}

// TotalCommittedAtLeast asserts the whole run committed at least n.
func TotalCommittedAtLeast(n uint64) Check {
	return Check{
		Name: fmt.Sprintf("total-committed>=%d", n),
		Eval: func(c *Ctx) error {
			f, err := c.final()
			if err != nil {
				return err
			}
			if got := f.Summary.TotalCommitted(); got < n {
				return fmt.Errorf("total committed %d < %d", got, n)
			}
			return nil
		},
	}
}

// ReplicasAgree asserts every item's live physical copies hold the same
// value and that every copy is live — after recovery, replicas must have
// converged and no site may still be down. Copies are counted against the
// cluster's FINAL partition map, not the static config: a rebalance mid-run
// may have changed which sites hold an item (the degree is preserved, but
// the old owner's leftover state is not a copy any more). Meaningful only
// after the drain (in-flight write-all updates would trip it mid-run).
func ReplicasAgree() Check {
	return Check{
		Name: "replicas-agree",
		Eval: func(c *Ctx) error {
			if _, err := c.final(); err != nil {
				return err
			}
			pm := c.Cluster.CurrentMap()
			for i := 0; i < c.Cluster.Cfg.Items; i++ {
				want := len(pm.Replicas(model.ItemID(i)))
				vals := c.Cluster.ReplicaValues(model.ItemID(i))
				if len(vals) != want {
					return fmt.Errorf("item %d: %d of %d copies live (a site is still crashed)", i, len(vals), want)
				}
				for _, v := range vals[1:] {
					if v != vals[0] {
						return fmt.Errorf("item %d replicas diverge: %v", i, vals)
					}
				}
			}
			return nil
		},
	}
}

// OfferedAccounted asserts the issuer ledger balances over the whole run:
// submitted = committed + shed + roBusyShed + dropped + active. The same
// identity Result.Offered documents; here it is an executable checkpoint.
func OfferedAccounted() Check {
	return Check{
		Name: "offered-accounted",
		Eval: func(c *Ctx) error {
			if _, err := c.final(); err != nil {
				return err
			}
			t := c.Cluster.RITotals()
			sum := t.Committed + t.Shed + t.ROBusyShed + t.Dropped + uint64(t.Active)
			if t.Submitted != sum {
				return fmt.Errorf("submitted %d != committed %d + shed %d + roBusyShed %d + dropped %d + active %d",
					t.Submitted, t.Committed, t.Shed, t.ROBusyShed, t.Dropped, t.Active)
			}
			return nil
		},
	}
}

// mergedLatency folds every protocol's per-phase system-time histogram into
// one distribution.
func mergedLatency(d metrics.Summary) metrics.Histogram {
	var h metrics.Histogram
	for i := range d.Protocols {
		h.Merge(d.Protocols[i].SystemTimeH)
	}
	return h
}
