package workload

import (
	"fmt"

	"ucc/internal/model"
)

// Scenario names a reusable workload shape: a per-site Spec generator, so
// heterogeneous sites (e.g. a reporting site among OLTP sites) are
// expressible. Scenarios capture the workload archetypes the paper's
// introduction motivates for dynamic concurrency control.
type Scenario struct {
	Name string
	// PerSite builds the spec for one user site.
	PerSite func(site int) Spec
}

// OLTP is a uniform small-transaction update mix: the generic benchmark
// workload (size 3, 60% reads).
func OLTP(items int, rate float64) Scenario {
	return Scenario{
		Name: "oltp",
		PerSite: func(int) Spec {
			return Spec{
				ArrivalPerSec: rate,
				Items:         items,
				Size:          3,
				ReadFrac:      0.6,
				ComputeMicros: 1_000,
				Class:         "oltp",
			}
		},
	}
}

// Transfers is the banking shape: two-item read-modify-write transactions
// (debit/credit), no pure reads — the workload where 2PL's single-item
// superiority disappears and deadlocks become possible.
func Transfers(accounts int, rate float64) Scenario {
	return Scenario{
		Name: "transfers",
		PerSite: func(int) Spec {
			return Spec{
				ArrivalPerSec: rate,
				Items:         accounts,
				Size:          2,
				ReadFrac:      0, // RMW: items land in the write set
				ComputeMicros: 500,
				Class:         "transfer",
			}
		},
	}
}

// FlashSale is the inventory shape: write-heavy traffic concentrated on a
// few hot items (size 3, 40% reads, 80% of accesses on hotItems).
func FlashSale(items, hotItems int, rate float64) Scenario {
	return Scenario{
		Name: "flash-sale",
		PerSite: func(int) Spec {
			return Spec{
				ArrivalPerSec: rate,
				Items:         items,
				Size:          3,
				ReadFrac:      0.4,
				Access:        AccessHotspot,
				HotItems:      hotItems,
				HotFrac:       0.8,
				ComputeMicros: 800,
				Class:         "order",
			}
		},
	}
}

// MixedAnalytics models one reporting site issuing large read-only
// transactions among OLTP sites — the individual-differences argument of
// §1: the reporting transactions want a different protocol than the small
// updates.
func MixedAnalytics(items int, oltpRate, reportRate float64) Scenario {
	return Scenario{
		Name: "mixed-analytics",
		PerSite: func(site int) Spec {
			if site == 0 {
				return Spec{
					ArrivalPerSec: reportRate,
					Items:         items,
					SizeDist:      SizeUniform,
					SizeMin:       8,
					SizeMax:       16,
					ReadFrac:      1,
					ComputeMicros: 5_000,
					Class:         "report",
				}
			}
			return Spec{
				ArrivalPerSec: oltpRate,
				Items:         items,
				Size:          3,
				ReadFrac:      0.5,
				ComputeMicros: 1_000,
				Class:         "oltp",
			}
		},
	}
}

// ReadHeavy is the dashboard/read-mostly shape the RO snapshot fast path
// exists for: roShare of the traffic is read-only scans (size roSize, run
// under model.ROSnapshot), the rest are small updates whose accessed items
// are mostly written (so the read-only traffic is what the queues would
// otherwise choke on). roShare 0.9 gives the ≥90%-read mix of EXP-10.
func ReadHeavy(items int, rate float64, roShare float64, roSize int) Scenario {
	if roShare <= 0 || roShare > 1 {
		roShare = 0.9 // roShare == 1 (a pure read-only mix) is legal
	}
	if roSize <= 0 {
		roSize = 6
	}
	return Scenario{
		Name: "read-heavy",
		PerSite: func(int) Spec {
			return Spec{
				ArrivalPerSec:   rate,
				Items:           items,
				Size:            3,
				ROSize:          roSize,
				ReadFrac:        0.2, // the non-RO remainder is update-heavy
				SharePA:         1 - roShare,
				ShareRO:         roShare,
				ComputeMicros:   1_000,
				ROComputeMicros: 5_000, // scans crunch what they read
				Class:           "read-heavy",
			}
		},
	}
}

// HotShard is the anti-sharding shape: every access lands on items that all
// hash to ONE queue-manager shard (shard 0 of shards), so partitioning the
// queue manager buys nothing — the hot shard's mutex and mailbox stay the
// serial bottleneck however many shards exist. It is the workload EXP-11
// uses to show where sharding does NOT help: skew, not core count, is the
// limit, and the fix is spreading the keys (or the hotspot) — not more
// shards. Update-heavy so the hot queues actually serialize.
func HotShard(items int, rate float64, shards int) Scenario {
	if shards < 1 {
		shards = 1
	}
	var hot []model.ItemID
	for i := 0; i < items; i++ {
		if model.ShardOfItem(model.ItemID(i), shards) == 0 {
			hot = append(hot, model.ItemID(i))
		}
	}
	if len(hot) == 0 {
		hot = []model.ItemID{0} // degenerate hash split; keep the spec valid
	}
	return Scenario{
		Name: "hot-shard",
		PerSite: func(int) Spec {
			return Spec{
				ArrivalPerSec: rate,
				Items:         items,
				Size:          3,
				ReadFrac:      0.4,
				Access:        AccessFixedSet,
				ItemSet:       hot,
				ComputeMicros: 800,
				Class:         "hot-shard",
			}
		},
	}
}

// Scenarios lists the named scenarios (CLI discovery). HotShard is
// deliberately absent: its item set is a function of the cluster's actual
// shard count, so callers must construct it with that count rather than
// have a hardcoded split silently disagree with the cluster under test.
func Scenarios(items int, rate float64) []Scenario {
	return []Scenario{
		OLTP(items, rate),
		Transfers(items, rate),
		FlashSale(items, max(1, items/8), rate),
		MixedAnalytics(items, rate, rate/5),
		ReadHeavy(items, rate, 0.9, 6),
	}
}

// ByName finds a named scenario.
func ByName(name string, items int, rate float64) (Scenario, error) {
	for _, s := range Scenarios(items, rate) {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("workload: unknown scenario %q", name)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
