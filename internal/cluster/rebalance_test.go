package cluster

import (
	"testing"

	"ucc/internal/deploy"
	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/placement"
	"ucc/internal/workload"
)

// TestMoveItemsExactlyOnce is the epoch-race commit test: a stream of
// read-modify-write increments on one item runs across an ownership flip of
// that item. Every transaction must commit exactly once — an increment lost
// (applied at the old owner but not transferred) or doubled (applied at both
// owners) shows up as a final value different from the commit count.
func TestMoveItemsExactlyOnce(t *testing.T) {
	const n = 40
	cl, err := NewSim(Config{
		Config: deploy.Config{
			Sites:    3,
			Items:    8,
			Replicas: 1,
		},
		Seed:   1,
		Record: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// n increment transactions on item 0, spread across the move window,
	// submitted from all three sites.
	for i := 0; i < n; i++ {
		txn := model.NewTxn(model.TxnID{Site: model.SiteID(i % 3), Seq: uint64(i + 1)},
			model.TwoPL, nil, []model.ItemID{0}, 500)
		cl.Eng.PostAfter(int64(i)*60_000, engine.RIAddr(txn.ID.Site), model.SubmitTxnMsg{Txn: txn})
	}
	// Mid-stream, items 0–2 (including the contended one) move to site 2.
	if err := cl.MoveItems(1_200_000, []model.ItemID{0, 1, 2}, 2); err != nil {
		t.Fatal(err)
	}
	res := cl.Run(2_500_000, 10_000_000)

	if !res.Serializability.Serializable {
		t.Fatalf("execution across the flip NOT serializable; cycle=%v", res.Serializability.Cycle)
	}
	if res.Unfinished != 0 {
		t.Fatalf("%d transactions unfinished after drain", res.Unfinished)
	}
	rit := cl.RITotals()
	if rit.Committed != n || rit.Dropped != 0 {
		t.Fatalf("committed=%d dropped=%d, want %d/0 — a transaction died crossing the flip", rit.Committed, rit.Dropped, n)
	}
	if got := cl.CurrentMap().Primary(0); got != 2 {
		t.Fatalf("item 0 primary = %d, want 2 after the move", got)
	}
	if !cl.Stores[2].Has(0) {
		t.Fatal("new owner's store has no copy of item 0")
	}
	vals := cl.ReplicaValues(0)
	if len(vals) != 1 || vals[0] != n {
		t.Fatalf("item 0 final value = %v, want [%d]: increments were lost or doubled across the flip", vals, n)
	}
	qt := cl.QMTotals()
	if qt.MapInstalls != 3 {
		t.Errorf("MapInstalls = %d, want 3 (one per site)", qt.MapInstalls)
	}
	if qt.TransferApplied == 0 {
		t.Error("no transfer records applied — the moved item's history never shipped")
	}
	if cl.RITotals().MapUpdates != 3 {
		t.Errorf("issuer MapUpdates = %d, want 3", cl.RITotals().MapUpdates)
	}
	// Item 2 was already primaried at site 2 under round-robin, so only two
	// primaries actually changed.
	if st := cl.Rebalance(); st.EpochsPublished != 1 || st.ItemsMoved != 2 {
		t.Errorf("rebalance stats = %+v, want 1 epoch / 2 items moved", st)
	}
}

// TestRebalanceUnderLoadReplicaAgreement is the regression for the static
// placement assumption in divergence checks: after a mid-run move, replica
// agreement must be judged against the FINAL map (the old owner's leftover
// state is not a copy any more). It also checks the replication degree
// survives the move.
func TestRebalanceUnderLoadReplicaAgreement(t *testing.T) {
	cfg := base(7)
	cfg.Items = 12
	cfg.Replicas = 2
	cl, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < cfg.Sites; s++ {
		if err := cl.AddDriver(model.SiteID(s), workload.Spec{
			ArrivalPerSec: 20,
			HorizonMicros: 2_500_000,
			Items:         cfg.Items,
			Size:          3,
			ReadFrac:      0.4,
			Share2PL:      1, ShareTO: 1, SharePA: 1,
			ComputeMicros: 500,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.MoveItems(1_200_000, []model.ItemID{0, 1, 2}, 2); err != nil {
		t.Fatal(err)
	}
	res := cl.Run(2_500_000, 10_000_000)
	checkRun(t, "rebalance-load", res, 100)
	pm := cl.CurrentMap()
	for item := 0; item < cfg.Items; item++ {
		it := model.ItemID(item)
		if reps := pm.Replicas(it); len(reps) != cfg.Replicas {
			t.Fatalf("item %d has %d copies after move, want %d", item, len(reps), cfg.Replicas)
		}
		vals := cl.ReplicaValues(it)
		if len(vals) != cfg.Replicas {
			t.Fatalf("item %d: ReplicaValues returned %d values, want %d (resolved against the final map)", item, len(vals), cfg.Replicas)
		}
		for i := 1; i < len(vals); i++ {
			if vals[i] != vals[0] {
				t.Fatalf("item %d replicas diverged after move: %v", item, vals)
			}
		}
	}
}

// TestAddSiteJoins starts site 2 empty (DataSites bounds the epoch-0 layout
// to sites 0–1) and brings it in mid-run: it must end up owning its share via
// snapshot transfer, with the run serializable throughout.
func TestAddSiteJoins(t *testing.T) {
	cl, err := NewSim(Config{
		Config: deploy.Config{
			Sites:     3,
			DataSites: 2,
			Items:     12,
			Replicas:  2,
		},
		Seed:   3,
		Record: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		if err := cl.AddDriver(model.SiteID(s), workload.Spec{
			ArrivalPerSec: 15,
			HorizonMicros: 2_500_000,
			Items:         12,
			Size:          2,
			ReadFrac:      0.5,
			Share2PL:      1, ShareTO: 1,
			ComputeMicros: 500,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(cl.CurrentMap().CopiesAt(2)); n != 0 {
		t.Fatalf("standby site 2 starts with %d copies, want 0", n)
	}
	if err := cl.AddSite(1_000_000, 2); err != nil {
		t.Fatal(err)
	}
	res := cl.Run(2_500_000, 10_000_000)
	checkRun(t, "add-site", res, 60)
	pm := cl.CurrentMap()
	gained := pm.CopiesAt(2)
	if len(gained) == 0 {
		t.Fatal("joined site owns nothing after AddSite")
	}
	for _, it := range gained {
		if !cl.Stores[2].Has(it) {
			t.Fatalf("joined site's store missing item %d", it)
		}
	}
	for item := 0; item < 12; item++ {
		vals := cl.ReplicaValues(model.ItemID(item))
		for i := 1; i < len(vals); i++ {
			if vals[i] != vals[0] {
				t.Fatalf("item %d replicas diverged after join: %v", item, vals)
			}
		}
	}
}

// TestDrainSiteEvacuates removes a site from every assignment mid-run: the
// final map must not reference it, every item keeps its replication degree,
// and the replicas (per the final map) agree.
func TestDrainSiteEvacuates(t *testing.T) {
	cfg := base(11)
	cfg.Items = 12
	cfg.Replicas = 2
	cl, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < cfg.Sites; s++ {
		if err := cl.AddDriver(model.SiteID(s), workload.Spec{
			ArrivalPerSec: 15,
			HorizonMicros: 2_500_000,
			Items:         cfg.Items,
			Size:          2,
			ReadFrac:      0.5,
			Share2PL:      1, ShareTO: 1,
			ComputeMicros: 500,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.DrainSite(1_000_000, 0); err != nil {
		t.Fatal(err)
	}
	res := cl.Run(2_500_000, 10_000_000)
	checkRun(t, "drain-site", res, 60)
	pm := cl.CurrentMap()
	for _, s := range pm.Sites() {
		if s == 0 {
			t.Fatal("drained site 0 still owns copies in the final map")
		}
	}
	for item := 0; item < cfg.Items; item++ {
		it := model.ItemID(item)
		if reps := pm.Replicas(it); len(reps) != cfg.Replicas {
			t.Fatalf("item %d has %d copies after drain, want %d", item, len(reps), cfg.Replicas)
		}
		vals := cl.ReplicaValues(it)
		if len(vals) != cfg.Replicas {
			t.Fatalf("item %d: %d live copies after drain, want %d", item, len(vals), cfg.Replicas)
		}
		for i := 1; i < len(vals); i++ {
			if vals[i] != vals[0] {
				t.Fatalf("item %d replicas diverged after drain: %v", item, vals)
			}
		}
	}
}

// TestRebalanceHotMovesLoad drives a skewed workload, then asks the
// hotness-driven rebalancer to relocate the hottest quarter of the items: the
// moved set must contain the hot item and the run must stay correct.
func TestRebalanceHotMovesLoad(t *testing.T) {
	cfg := base(5)
	cfg.Items = 8
	cl, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// All sites hammer item 0 (plus a cold tail) — hand-built submissions so
	// the hot set is unambiguous.
	for i := 0; i < 60; i++ {
		item := model.ItemID(0)
		if i%6 == 5 {
			item = model.ItemID(1 + i%7)
		}
		txn := model.NewTxn(model.TxnID{Site: model.SiteID(i % cfg.Sites), Seq: uint64(i + 1)},
			model.TwoPL, nil, []model.ItemID{item}, 500)
		cl.Eng.PostAfter(int64(i)*30_000, engine.RIAddr(txn.ID.Site), model.SubmitTxnMsg{Txn: txn})
	}
	// Let the first half run, then rebalance on observed heat.
	cl.Start()
	cl.Eng.RunUntil(1_000_000)
	moved, err := cl.RebalanceHot(0, 0.25, -1)
	if err != nil {
		t.Fatal(err)
	}
	hotMoved := false
	for _, it := range moved {
		if it == 0 {
			hotMoved = true
		}
	}
	if !hotMoved {
		t.Fatalf("hot rebalance moved %v, want the hot item 0 included", moved)
	}
	cl.Eng.RunUntil(2_500_000)
	res := cl.Finish()
	if !res.Serializability.Serializable {
		t.Fatalf("NOT serializable after hot rebalance; cycle=%v", res.Serializability.Cycle)
	}
	if res.Unfinished != 0 {
		t.Fatalf("%d unfinished after hot rebalance", res.Unfinished)
	}
	if cl.RITotals().Committed != 60 {
		t.Fatalf("committed=%d want 60", cl.RITotals().Committed)
	}
}

// TestPlacementConfigValidation is the simulator entry point of the
// placement rules in deploy.Config.Validate (the ucc facade and uccnode's
// flags have their own).
func TestPlacementConfigValidation(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr bool
	}{
		{"default", func(c *Config) {}, false},
		{"round-robin", func(c *Config) { c.Placement = placement.RoundRobin }, false},
		{"range", func(c *Config) { c.Placement = placement.Range }, false},
		{"hash", func(c *Config) { c.Placement = placement.Hash }, false},
		{"unknown policy", func(c *Config) { c.Placement = "zigzag" }, true},
		{"data sites negative", func(c *Config) { c.DataSites = -1 }, true},
		{"data sites beyond sites", func(c *Config) { c.DataSites = 5 }, true},
		{"data sites subset", func(c *Config) { c.DataSites = 2 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Config: deploy.Config{Sites: 4, Items: 8, Replicas: 2}, Seed: 1}
			tc.mutate(&cfg)
			_, err := NewSim(cfg)
			if tc.wantErr && err == nil {
				t.Fatal("want error, got nil")
			}
			if !tc.wantErr && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
		})
	}
}
