package model

import (
	"fmt"
	"slices"
)

// PartitionMap is the versioned item→copies placement: the single source of
// truth for which sites hold which items, replacing the static startup
// catalog. A map value is immutable once published — rebalancing builds a new
// map with Epoch+1 and distributes it (MapInstallMsg to queue managers,
// MapUpdateMsg to issuers), so every component can compare epochs and a stale
// router is told it is stale (WrongEpochMsg carrying the new map) instead of
// silently reaching the wrong owner.
type PartitionMap struct {
	// Epoch orders map versions; higher wins everywhere a map is installed.
	Epoch uint64
	// Assignments[i] lists the sites holding copies of item i, primary
	// first. Every item has at least one copy; per-item copy counts may
	// differ after rebalancing.
	Assignments [][]SiteID
}

// Items returns the number of logical items the map places.
func (pm *PartitionMap) Items() int { return len(pm.Assignments) }

// Replicas returns the sites holding copies of item, primary first. The
// returned slice is the map's own backing array — callers must not mutate it.
func (pm *PartitionMap) Replicas(item ItemID) []SiteID {
	if uint(item) >= uint(len(pm.Assignments)) || len(pm.Assignments[item]) == 0 {
		panic(fmt.Sprintf("partition map epoch %d: no copies for item %d", pm.Epoch, item))
	}
	return pm.Assignments[item]
}

// Primary returns the primary copy's site for item.
func (pm *PartitionMap) Primary(item ItemID) SiteID { return pm.Replicas(item)[0] }

// Owns reports whether site holds a copy of item. False for items outside the
// map, negative ones included (a router built against a larger map than this
// one, or a frame naming an item no map places, must not panic).
func (pm *PartitionMap) Owns(item ItemID, site SiteID) bool {
	if uint(item) >= uint(len(pm.Assignments)) {
		return false
	}
	for _, s := range pm.Assignments[item] {
		if s == site {
			return true
		}
	}
	return false
}

// CopiesAt returns the ascending list of items with a copy at site.
func (pm *PartitionMap) CopiesAt(site SiteID) []ItemID {
	var out []ItemID
	for i := range pm.Assignments {
		if pm.Owns(ItemID(i), site) {
			out = append(out, ItemID(i))
		}
	}
	return out
}

// Sharing returns the ascending list of the other sites holding a copy of
// an item site also holds: the peers a durable replicated site pulls from.
func (pm *PartitionMap) Sharing(site SiteID) []SiteID {
	var out []SiteID
	for _, reps := range pm.Assignments {
		if !slices.Contains(reps, site) {
			continue
		}
		for _, s := range reps {
			if s != site && !slices.Contains(out, s) {
				out = append(out, s)
			}
		}
	}
	slices.Sort(out)
	return out
}

// Sites returns the ascending list of sites owning at least one copy.
func (pm *PartitionMap) Sites() []SiteID {
	seen := map[SiteID]bool{}
	for _, reps := range pm.Assignments {
		for _, s := range reps {
			seen[s] = true
		}
	}
	out := make([]SiteID, 0, len(seen))
	var max SiteID = -1
	for s := range seen {
		if s > max {
			max = s
		}
	}
	for s := SiteID(0); s <= max; s++ {
		if seen[s] {
			out = append(out, s)
		}
	}
	return out
}

// Clone deep-copies the map (planners mutate the copy, bump Epoch, publish).
func (pm *PartitionMap) Clone() *PartitionMap {
	out := &PartitionMap{Epoch: pm.Epoch, Assignments: make([][]SiteID, len(pm.Assignments))}
	for i, reps := range pm.Assignments {
		out.Assignments[i] = append([]SiteID(nil), reps...)
	}
	return out
}
