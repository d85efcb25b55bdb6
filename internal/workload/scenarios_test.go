package workload

import (
	"testing"

	"ucc/internal/model"
)

func TestScenariosValidate(t *testing.T) {
	for _, sc := range Scenarios(64, 20) {
		for site := 0; site < 4; site++ {
			spec := sc.PerSite(site)
			spec.HorizonMicros = 1_000_000
			if err := spec.Validate(); err != nil {
				t.Errorf("%s site %d: %v", sc.Name, site, err)
			}
		}
	}
}

func TestTransfersAreRMW(t *testing.T) {
	spec := Transfers(32, 10).PerSite(0)
	txns := drive(t, spec, 100)
	for _, tx := range txns {
		if tx.NumReads() != 0 || tx.NumWrites() != 2 {
			t.Fatalf("transfer shape wrong: r=%d w=%d", tx.NumReads(), tx.NumWrites())
		}
	}
}

func TestMixedAnalyticsHeterogeneous(t *testing.T) {
	sc := MixedAnalytics(64, 20, 4)
	report := sc.PerSite(0)
	oltp := sc.PerSite(1)
	if report.ReadFrac != 1 || report.SizeMin < 8 {
		t.Fatalf("site 0 must be the reporting site: %+v", report)
	}
	if oltp.Class != "oltp" || oltp.Size != 3 {
		t.Fatalf("other sites must be OLTP: %+v", oltp)
	}
	// Reporting transactions are pure reads.
	txns := drive(t, report, 50)
	for _, tx := range txns {
		if tx.NumWrites() != 0 {
			t.Fatalf("report txn writes: %v", tx)
		}
		if tx.Size() < 8 {
			t.Fatalf("report txn too small: %d", tx.Size())
		}
	}
}

// TestHotShardConcentratesOnOneShard: every access the scenario generates
// must hash to shard 0 of the shard count it was built for — the premise of
// the "sharding cannot help skew" demonstration.
func TestHotShardConcentratesOnOneShard(t *testing.T) {
	const items, shards = 64, 4
	spec := HotShard(items, 20, shards).PerSite(0)
	txns := drive(t, spec, 200)
	accesses := 0
	for _, tx := range txns {
		for _, it := range append(append([]model.ItemID{}, tx.ReadSet...), tx.WriteSet...) {
			accesses++
			if s := model.ShardOfItem(it, shards); s != 0 {
				t.Fatalf("item %v landed in shard %d, want 0", it, s)
			}
		}
	}
	if accesses == 0 {
		t.Fatal("scenario generated no accesses")
	}
}
