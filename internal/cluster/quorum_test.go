package cluster

import (
	"fmt"
	"strings"
	"testing"

	"ucc/internal/deploy"
	"ucc/internal/model"
	"ucc/internal/workload"
)

// quorumCfg returns a recording 3-site cluster with N=3/W=2/R=2 quorum
// replication over in-memory WALs.
func quorumCfg(seed int64) Config {
	cfg := base(seed)
	cfg.Sites = 3
	cfg.Items = 24
	cfg.Replicas = 3
	cfg.Durability = &deploy.Durability{SnapshotEvery: 200}
	cfg.Quorum = &model.Quorum{N: 3, W: 2, R: 2}
	return cfg
}

// TestQuorumConfigValidation is the simulator entry point of the quorum
// rules in deploy.Config.Validate: every degenerate quorum shape is refused
// by NewSim with a diagnosable error instead of clamped into something that
// silently loses the overlap properties.
func TestQuorumConfigValidation(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string
	}{
		{"valid", func(c *Config) {}, ""},
		{"zero N", func(c *Config) { c.Quorum.N = 0 }, "must all be positive"},
		{"zero W", func(c *Config) { c.Quorum.W = 0 }, "must all be positive"},
		{"zero R", func(c *Config) { c.Quorum.R = 0 }, "must all be positive"},
		{"negative W", func(c *Config) { c.Quorum.W = -1 }, "must all be positive"},
		{"W exceeds N", func(c *Config) { c.Quorum.W = 4 }, "exceeds"},
		{"R exceeds N", func(c *Config) { c.Quorum.R = 4 }, "exceeds"},
		{"read-write quorums disjoint", func(c *Config) { c.Quorum.W = 1; c.Quorum.R = 2 }, "W+R"},
		{"write quorums disjoint", func(c *Config) { c.Quorum.N = 3; c.Quorum.W = 1; c.Quorum.R = 3 }, "2W"},
		{"N exceeds replicas", func(c *Config) { c.Replicas = 2; c.Quorum = &model.Quorum{N: 3, W: 2, R: 2} }, "replication factor"},
		{"N below replicas", func(c *Config) { c.Quorum = &model.Quorum{N: 2, W: 2, R: 1} }, "replication factor"},
		{"no durability", func(c *Config) { c.Durability = nil }, "requires Durability"},
		{"negative pull period", func(c *Config) { c.ReplPeriodMicros = -1 }, "ReplPeriodMicros"},
		{"negative batch bound", func(c *Config) { c.ReplBatchRecords = -1 }, "ReplBatchRecords"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quorumCfg(1)
			tc.mutate(&cfg)
			_, err := NewSim(cfg)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestQuorumHealthyRun: with every site up, quorum mode must behave like a
// correct (serializable, fully drained) cluster, and the catch-up plane must
// be converging the laggard third copies that sat outside each write quorum.
func TestQuorumHealthyRun(t *testing.T) {
	cl, err := NewSim(quorumCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	addMixedDrivers(t, cl, 25, 2_000_000)
	res := cl.Run(2_000_000, 8_000_000)
	checkRun(t, "quorum-healthy", res, 100)

	qt := cl.QMTotals()
	if qt.ReplPulls == 0 {
		t.Fatal("no catch-up pulls served; the repl plane never ran")
	}
	if qt.ReplApplied == 0 {
		t.Fatal("no shipped records applied: every write quorum was full, so laggard copies had nothing to converge — the workload exercised nothing")
	}
	// Convergence: after the settle window every copy of every item agrees.
	for item := 0; item < cl.Cfg.Items; item++ {
		vals := cl.ReplicaValues(model.ItemID(item))
		for i := 1; i < len(vals); i++ {
			if vals[i] != vals[0] {
				t.Fatalf("item %d replicas diverged in healthy quorum run: %v", item, vals)
			}
		}
	}
}

// TestQuorumSurvivesDeadSite is the tentpole's core claim: with N=3/W=2/R=2,
// killing one site mid-run must not stall commits — the surviving pair forms
// every quorum — and after recovery the dead site converges via WAL log
// shipping from its peers, not via writes it never accepted.
func TestQuorumSurvivesDeadSite(t *testing.T) {
	cl, err := NewSim(quorumCfg(42))
	if err != nil {
		t.Fatal(err)
	}
	addMixedDrivers(t, cl, 25, 3_000_000)

	// Site 1 dies at t=1.0s and stays dead for a full second — several
	// hundred transactions' worth of traffic must commit against the
	// two-site quorum in between.
	cl.CrashSite(1, 1_000_000)
	cl.RecoverSite(1, 2_000_000)

	// Committed before the crash vs. committed by the end of the outage:
	// the dip must not be a stall.
	cl.Start()
	cl.Eng.RunUntil(1_000_000)
	preCrash := cl.RITotals().Committed
	cl.Eng.RunUntil(2_000_000)
	duringOutage := cl.RITotals().Committed - preCrash
	cl.Eng.RunUntil(3_000_000)
	res := cl.Finish()
	checkRun(t, "quorum-dead-site", res, 150)

	if preCrash == 0 {
		t.Fatal("nothing committed before the crash; workload mis-sized")
	}
	if duringOutage == 0 {
		t.Fatalf("commits stalled to zero during the outage: quorum did not mask the dead site (pre-crash %d)", preCrash)
	}

	qt := cl.QMTotals()
	if qt.Crashes != 1 || qt.Recoveries != 1 {
		t.Fatalf("crashes=%d recoveries=%d, want 1/1", qt.Crashes, qt.Recoveries)
	}
	if qt.ReplApplied == 0 {
		t.Fatal("recovered site applied no shipped records; catch-up never ran")
	}
	// Convergence after recovery + catch-up.
	for item := 0; item < cl.Cfg.Items; item++ {
		vals := cl.ReplicaValues(model.ItemID(item))
		if len(vals) != 3 {
			t.Fatalf("item %d: %d live copies, want 3", item, len(vals))
		}
		for i := 1; i < len(vals); i++ {
			if vals[i] != vals[0] {
				t.Fatalf("item %d replicas diverged after catch-up: %v", item, vals)
			}
		}
	}
	// The recovered site's watermarks must have advanced for both peers.
	marks := cl.ReplWatermarks()[1]
	for peer, seq := range marks {
		if seq == 0 {
			t.Errorf("site 1 watermark for peer %d still zero after catch-up", peer)
		}
	}
	if len(marks) != 2 {
		t.Fatalf("site 1 tracks %d peers, want 2 (%v)", len(marks), marks)
	}
}

// TestQuorumBusyNAKExcludesNotRestarts: with a bounded queue at one site,
// quorum mode absorbs busy NAKs by excluding the saturated copy instead of
// restarting the whole attempt — excluded copies must show up in the issuer
// counters while the run still commits and stays serializable.
func TestQuorumBusyNAKExcludesNotRestarts(t *testing.T) {
	cfg := quorumCfg(3)
	cfg.QM.MaxQueueDepth = 2 // shallow queues: NAKs come easily under load
	cl, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < cfg.Sites; s++ {
		if err := cl.AddDriver(model.SiteID(s), workload.Spec{
			ArrivalPerSec: 120, // hot enough to hit depth 2 regularly
			HorizonMicros: 2_000_000,
			Items:         8, // few items: concentrated contention
			Size:          3,
			ReadFrac:      0.5,
			Share2PL:      1, ShareTO: 1, SharePA: 1,
			ComputeMicros: 500,
		}); err != nil {
			t.Fatal(err)
		}
	}
	res := cl.Run(2_000_000, 8_000_000)
	checkRun(t, "quorum-busy", res, 50)

	rt := cl.RITotals()
	if rt.BusyNAKs == 0 {
		t.Fatal("no busy NAKs; the bounded queue never saturated and the test exercised nothing")
	}
	if rt.QuorumExcluded == 0 {
		t.Fatal("no copies excluded: busy NAKs all fell through to whole-attempt restarts")
	}
	t.Logf("busyNAKs=%d excluded=%d committed=%d", rt.BusyNAKs, rt.QuorumExcluded, rt.Committed)
}

// TestQuorumSnapshotReadsSerializable: read-only snapshot transactions
// under quorum stay serializable. The snapshot fast path reads each item's
// primary copy alone, which a write quorum may have left out, so a snapshot
// could miss a committed write its own earlier reads depended on; the issuer
// demotes every snapshot to PA in quorum mode instead. With the fast path
// taken, 11 of these 12 seeds produced a cycle.
func TestQuorumSnapshotReadsSerializable(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cl, err := NewSim(quorumCfg(seed))
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < cl.Cfg.Sites; s++ {
				if err := cl.AddDriver(model.SiteID(s), workload.Spec{
					ArrivalPerSec: 60,
					HorizonMicros: 2_000_000,
					Items:         cl.Cfg.Items,
					Size:          4,
					ReadFrac:      0.5,
					Share2PL:      1, ShareTO: 1, SharePA: 1, ShareRO: 1.5,
					ROSize:        4,
					ComputeMicros: 500,
				}); err != nil {
					t.Fatal(err)
				}
			}
			res := cl.Run(2_000_000, 8_000_000)
			checkRun(t, "quorum-snapshots", res, 100)
			if ro := cl.RITotals().ROCommitted; ro != 0 {
				t.Fatalf("%d snapshots took the primary-copy fast path under quorum", ro)
			}
		})
	}
}

// TestWriteAllQuorumKeepsSnapshotFastPath: under W = N every committed write
// reached every copy, the primary included, so read-only snapshots keep the
// primary-copy fast path — here with an explicit Quorum{3, 3, 1}, the shape
// a nil Quorum stands for — and the history stays serializable.
func TestWriteAllQuorumKeepsSnapshotFastPath(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := quorumCfg(seed)
			cfg.Quorum = &model.Quorum{N: 3, W: 3, R: 1}
			cl, err := NewSim(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < cl.Cfg.Sites; s++ {
				if err := cl.AddDriver(model.SiteID(s), workload.Spec{
					ArrivalPerSec: 60,
					HorizonMicros: 2_000_000,
					Items:         cl.Cfg.Items,
					Size:          4,
					ReadFrac:      0.5,
					Share2PL:      1, ShareTO: 1, SharePA: 1, ShareRO: 1.5,
					ROSize:        4,
					ComputeMicros: 500,
				}); err != nil {
					t.Fatal(err)
				}
			}
			res := cl.Run(2_000_000, 8_000_000)
			checkRun(t, "write-all-snapshots", res, 100)
			if reads, ro := cl.QMTotals().SnapReads, cl.RITotals().ROCommitted; reads == 0 || ro == 0 {
				t.Fatalf("%d snapshot reads served, %d snapshots committed on the fast path; want both > 0 under W = N", reads, ro)
			}
		})
	}
}

// requireReplicasAgree fails unless every item's copies hold one value.
func requireReplicasAgree(t *testing.T, cl *Cluster, what string) {
	t.Helper()
	for item := 0; item < cl.Cfg.Items; item++ {
		vals := cl.ReplicaValues(model.ItemID(item))
		for _, v := range vals[1:] {
			if v != vals[0] {
				t.Fatalf("%s: item %d replicas diverged: %v", what, item, vals)
			}
		}
	}
}

// TestCatchUpShipsOnlyMissing: under steady quorum traffic a site is shipped
// what it lacks — the writes whose quorum it sat out — and little else. Such
// a record is held by both other sites, but a site pulls its peers half a
// period apart, and the pull to the second holder names what the first one
// shipped, so the second leaves it out: the few skips left are records a
// pull could not name yet. Pulling both holders at once, as the puller did
// before, costs about one skip per apply; shipping every record of every log
// (each write W-fold, plus the echo of every shipped record) costs ten. And a
// snapshot, forced here on top of the automatic ones, truncates the segments
// under the pullers' marks without resetting anyone: the tail still holds
// the range.
func TestCatchUpShipsOnlyMissing(t *testing.T) {
	cl, err := NewSim(quorumCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	addMixedDrivers(t, cl, 40, 3_000_000)
	cl.Start()
	for _, at := range []int64{1_000_000, 1_700_000, 2_400_000} {
		cl.Eng.RunUntil(at)
		for s, w := range cl.WALs {
			if err := w.Snapshot(); err != nil {
				t.Fatalf("site %d: forced snapshot: %v", s, err)
			}
		}
	}
	cl.Eng.RunUntil(3_000_000 + 4_000_000)
	checkRun(t, "catch-up", cl.Finish(), 200)
	requireReplicasAgree(t, cl, "catch-up")

	qt := cl.QMTotals()
	var snaps uint64
	for _, w := range cl.WALs {
		snaps += w.Stats().Snapshots
	}
	if qt.ReplApplied < 100 || snaps < 9 {
		t.Fatalf("applied %d shipped records across %d snapshots: the run exercised too little", qt.ReplApplied, snaps)
	}
	if qt.ReplResets != 0 {
		t.Errorf("%d resets in a run where no site crashed: a snapshot between two pulls must not reset the puller", qt.ReplResets)
	}
	t.Logf("applied %d shipped records, skipped %d", qt.ReplApplied, qt.ReplSkipped)
	if 4*qt.ReplSkipped > qt.ReplApplied {
		t.Errorf("shipped %d records the puller skipped against %d it applied: want at most 0.25 skips per apply", qt.ReplSkipped, qt.ReplApplied)
	}
}
