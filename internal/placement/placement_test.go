package placement

import (
	"testing"
	"testing/quick"

	"ucc/internal/model"
)

func siteIDs(n int) []model.SiteID {
	sites := make([]model.SiteID, n)
	for i := range sites {
		sites[i] = model.SiteID(i)
	}
	return sites
}

func TestRoundRobinPlacement(t *testing.T) {
	pm := Build(RoundRobin, 9, siteIDs(3), 2)
	if pm.Items() != 9 {
		t.Fatalf("items = %d", pm.Items())
	}
	if pm.Epoch != 0 {
		t.Fatalf("Build produced epoch %d, want 0", pm.Epoch)
	}
	for i := 0; i < 9; i++ {
		reps := pm.Replicas(model.ItemID(i))
		if len(reps) != 2 {
			t.Fatalf("item %d: %d replicas", i, len(reps))
		}
		if reps[0] == reps[1] {
			t.Fatalf("item %d: replicas on same site", i)
		}
		if pm.Primary(model.ItemID(i)) != reps[0] {
			t.Fatalf("primary mismatch for %d", i)
		}
	}
}

func TestReplicasClamped(t *testing.T) {
	pm := Build(RoundRobin, 4, siteIDs(2), 5)
	if got := len(pm.Replicas(0)); got != 2 {
		t.Fatalf("replicas = %d, want clamp to 2 sites", got)
	}
	pm2 := Build(RoundRobin, 4, siteIDs(2), 0)
	if got := len(pm2.Replicas(0)); got != 1 {
		t.Fatalf("replicas = %d, want min 1", got)
	}
}

// Property: the round-robin layout is item i's r-th copy at
// sites[(i+r) mod n] — over arbitrary (non-contiguous) site ids — every item
// is stored somewhere, and CopiesAt inverts Replicas.
func TestRoundRobinProperties(t *testing.T) {
	f := func(nItems, nSites, reps, stride uint8) bool {
		I := int(nItems%40) + 1
		S := int(nSites%6) + 1
		R := int(reps%4) + 1
		sites := make([]model.SiteID, S)
		for i := range sites {
			sites[i] = model.SiteID(i * (int(stride%3) + 1))
		}
		pm := Build(RoundRobin, I, sites, R)
		// Round-trip: item ∈ CopiesAt(s) ⇔ s ∈ Replicas(item).
		have := map[model.CopyID]bool{}
		for _, s := range sites {
			for _, it := range pm.CopiesAt(s) {
				have[model.CopyID{Item: it, Site: s}] = true
			}
		}
		wantR := min(R, S)
		for i := 0; i < I; i++ {
			reps := pm.Replicas(model.ItemID(i))
			if len(reps) != wantR {
				return false
			}
			for r, s := range reps {
				if s != sites[(i+r)%S] {
					return false
				}
				if !have[model.CopyID{Item: model.ItemID(i), Site: s}] {
					return false
				}
				delete(have, model.CopyID{Item: model.ItemID(i), Site: s})
			}
		}
		return len(have) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
