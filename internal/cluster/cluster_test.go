package cluster

import (
	"testing"

	"ucc/internal/deploy"
	"ucc/internal/model"
	"ucc/internal/workload"
)

// base returns a small recording cluster config.
func base(seed int64) Config {
	return Config{
		Config: deploy.Config{
			Sites:    4,
			Items:    40,
			Replicas: 1,
		},
		Seed:   seed,
		Record: true,
	}
}

// runMix runs a mixed-share workload and returns the result.
func runMix(t *testing.T, cfg Config, share2pl, shareTO, sharePA, arrival float64, size int, horizon int64) Result {
	t.Helper()
	cl, err := NewSim(cfg)
	if err != nil {
		t.Fatalf("NewSim: %v", err)
	}
	for s := 0; s < cfg.Sites; s++ {
		err := cl.AddDriver(model.SiteID(s), workload.Spec{
			ArrivalPerSec: arrival,
			HorizonMicros: horizon,
			Items:         cfg.Items,
			Size:          size,
			ReadFrac:      0.6,
			Share2PL:      share2pl,
			ShareTO:       shareTO,
			SharePA:       sharePA,
			ComputeMicros: 500,
		})
		if err != nil {
			t.Fatalf("AddDriver: %v", err)
		}
	}
	return cl.Run(horizon, 4_000_000)
}

func checkRun(t *testing.T, name string, res Result, wantMinCommits uint64) {
	t.Helper()
	if res.Serializability == nil {
		t.Fatalf("%s: no serializability result", name)
	}
	if !res.Serializability.Serializable {
		t.Fatalf("%s: execution NOT serializable; cycle=%v", name, res.Serializability.Cycle)
	}
	got := res.Summary.TotalCommitted()
	if got < wantMinCommits {
		t.Errorf("%s: committed %d < want >= %d", name, got, wantMinCommits)
	}
	if res.Unfinished > 0 {
		t.Errorf("%s: %d transactions unfinished after drain", name, res.Unfinished)
	}
}

func TestPure2PL(t *testing.T) {
	res := runMix(t, base(1), 1, 0, 0, 20, 4, 2_000_000)
	checkRun(t, "2PL", res, 100)
}

func TestPureTO(t *testing.T) {
	res := runMix(t, base(2), 0, 1, 0, 20, 4, 2_000_000)
	checkRun(t, "T/O", res, 100)
}

func TestPurePA(t *testing.T) {
	res := runMix(t, base(3), 0, 0, 1, 20, 4, 2_000_000)
	checkRun(t, "PA", res, 100)
	if v := res.Summary.Protocols[model.PA].Victims; v != 0 {
		t.Errorf("PA: %d deadlock victims, want 0 (Corollary 1)", v)
	}
	if r := res.Summary.Protocols[model.PA].Rejected; r != 0 {
		t.Errorf("PA: %d rejections, want 0 (Corollary 1)", r)
	}
}

func TestMixedProtocols(t *testing.T) {
	res := runMix(t, base(4), 1, 1, 1, 25, 4, 2_000_000)
	checkRun(t, "mixed", res, 120)
}

func TestMixedHighContention(t *testing.T) {
	cfg := base(5)
	cfg.Items = 8 // few items → heavy conflicts
	res := runMix(t, cfg, 1, 1, 1, 25, 3, 2_000_000)
	checkRun(t, "hot-mixed", res, 80)
}

// TestShardedMixedProtocols: the same mixed workload with the queue manager
// split four ways per site — sharding changes which mailbox serves an item,
// never what commits; the full-protocol mix must stay serializable and
// productive at any shard count.
func TestShardedMixedProtocols(t *testing.T) {
	cfg := base(4)
	cfg.Shards = 4
	res := runMix(t, cfg, 1, 1, 1, 25, 4, 2_000_000)
	checkRun(t, "sharded-mixed", res, 120)
}

// TestShardedHotShardSkew: the HotShard scenario (every access hashes to
// shard 0 of the cluster's OWN shard count) must stay correct — the shard
// the traffic lands on serializes it exactly like the unsharded manager
// would, and the other shards idle without breaking anything.
func TestShardedHotShardSkew(t *testing.T) {
	cfg := base(9)
	cfg.Items = 32
	cfg.Shards = 4
	cl, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sc := workload.HotShard(cfg.Items, 25, cfg.Shards)
	for s := 0; s < cfg.Sites; s++ {
		spec := sc.PerSite(s)
		spec.HorizonMicros = 2_000_000
		if err := cl.AddDriver(model.SiteID(s), spec); err != nil {
			t.Fatal(err)
		}
	}
	res := cl.Run(2_000_000, 6_000_000)
	checkRun(t, "hot-shard-skew", res, 80)
}

// TestShardedHighContention: conflicts concentrated on 8 items still
// resolve correctly when those items span multiple shards (deadlock
// detection aggregates wait-edges across shards into one site report).
func TestShardedHighContention(t *testing.T) {
	cfg := base(5)
	cfg.Items = 8
	cfg.Shards = 3
	res := runMix(t, cfg, 1, 1, 1, 25, 3, 2_000_000)
	checkRun(t, "sharded-hot", res, 80)
}

// TestShardsOver256Rejected is the shard-address wraparound regression test:
// engine.Addr carries the shard index in one byte, so Shards=300 would
// silently alias shards 256..299 onto mailboxes 0..43 and misroute traffic.
// The knob must be refused loudly, and 256 itself (the last representable
// count) must still validate.
func TestShardsOver256Rejected(t *testing.T) {
	cfg := base(1)
	cfg.Shards = 300
	if _, err := NewSim(cfg); err == nil {
		t.Fatal("Shards=300 accepted; shard addresses would wrap around uint8")
	}
	ok := base(1)
	ok.Shards = 256
	if _, err := NewSim(ok); err != nil {
		t.Fatalf("Shards=256 must be accepted: %v", err)
	}
}

// TestOverloadShedsAndBoundsQueues: a cluster with the backpressure knobs on
// survives 10x-capacity open-loop arrivals with every data queue inside its
// bound, a busy-NAK/shed trail proving the machinery engaged, and the
// execution still serializable.
func TestOverloadShedsAndBoundsQueues(t *testing.T) {
	cfg := base(7)
	cfg.Items = 12
	cfg.QM.MaxQueueDepth = 8
	cfg.RI.Admission.Enabled = true
	cfg.RI.Admission.InitialWindow = 16
	cl, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < cfg.Sites; s++ {
		if err := cl.AddDriver(model.SiteID(s), workload.Spec{
			ArrivalPerSec: 400,
			HorizonMicros: 2_000_000,
			Items:         cfg.Items,
			Size:          3,
			ReadFrac:      0.6,
			SharePA:       1,
			ComputeMicros: 500,
		}); err != nil {
			t.Fatal(err)
		}
	}
	res2 := cl.Run(2_000_000, 4_000_000)
	if res2.Serializability == nil || !res2.Serializability.Serializable {
		t.Fatal("overloaded run not serializable")
	}
	if high := cl.DepthHighWater(); high > cfg.QM.MaxQueueDepth {
		t.Fatalf("queue depth %d exceeded bound %d", high, cfg.QM.MaxQueueDepth)
	}
	rt := cl.RITotals()
	if rt.Shed == 0 {
		t.Fatal("admission shed nothing at 10x load")
	}
	if rt.Submitted <= rt.Shed {
		t.Fatalf("everything shed (%d of %d): admission over-rotated", rt.Shed, rt.Submitted)
	}
	if cl.QMTotals().Busy == 0 {
		t.Fatal("no busy NAKs at 10x load with depth-8 queues")
	}
}
