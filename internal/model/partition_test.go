package model

import (
	"slices"
	"testing"
)

// roundRobin places each of items on copies consecutive sites of sites,
// starting at item mod len(sites), the way placement.RoundRobin does.
func roundRobin(items, copies int, sites ...SiteID) *PartitionMap {
	pm := &PartitionMap{Assignments: make([][]SiteID, items)}
	for i := range pm.Assignments {
		for c := 0; c < copies; c++ {
			pm.Assignments[i] = append(pm.Assignments[i], sites[(i+c)%len(sites)])
		}
	}
	return pm
}

// TestPartitionMapSharing: a site's catch-up peers are exactly the other
// sites holding a copy of an item it holds, ascending.
func TestPartitionMapSharing(t *testing.T) {
	sites := []SiteID{0, 1, 2, 3}
	// Full replication: everyone pulls from everyone else.
	if got := roundRobin(8, 4, sites...).Sharing(1); !slices.Equal(got, []SiteID{0, 2, 3}) {
		t.Fatalf("full replication peers = %v, want [0 2 3]", got)
	}
	// Single copy: no shared items, no peers, pull plane idle.
	single := roundRobin(8, 1, sites...)
	for _, self := range sites {
		if got := single.Sharing(self); len(got) != 0 {
			t.Fatalf("site %d of an unreplicated map has peers: %v", self, got)
		}
	}
	// A standby site (outside the data sites) holds no copy, so it shares
	// nothing.
	if got := roundRobin(8, 2, 0, 1, 2).Sharing(3); len(got) != 0 {
		t.Fatalf("standby site has peers: %v", got)
	}
	// Partial replication: peers are exactly the sites sharing an item.
	partial := roundRobin(8, 2, sites...)
	for _, self := range sites {
		var want []SiteID
		for item := 0; item < partial.Items(); item++ {
			reps := partial.Replicas(ItemID(item))
			if !slices.Contains(reps, self) {
				continue
			}
			for _, s := range reps {
				if s != self && !slices.Contains(want, s) {
					want = append(want, s)
				}
			}
		}
		slices.Sort(want)
		if got := partial.Sharing(self); !slices.Equal(got, want) {
			t.Fatalf("site %d peers = %v, want %v", self, got, want)
		}
	}
}
