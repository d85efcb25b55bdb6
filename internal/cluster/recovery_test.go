package cluster

import (
	"testing"

	"ucc/internal/deploy"
	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/workload"
)

// durable returns a recording cluster config with in-memory per-site WALs.
func durable(seed int64) Config {
	cfg := base(seed)
	cfg.Durability = &deploy.Durability{SnapshotEvery: 200}
	return cfg
}

func addMixedDrivers(t *testing.T, cl *Cluster, arrival float64, horizon int64) {
	t.Helper()
	for s := 0; s < cl.Cfg.Sites; s++ {
		if err := cl.AddDriver(model.SiteID(s), workload.Spec{
			ArrivalPerSec: arrival,
			HorizonMicros: horizon,
			Items:         cl.Cfg.Items,
			Size:          3,
			ReadFrac:      0.5,
			Share2PL:      1, ShareTO: 1, SharePA: 1,
			ComputeMicros: 500,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashRecoveryMidRun is acceptance criterion (a): a mid-run
// CrashSite/RecoverSite cycle rebuilds the site's partition from snapshot +
// WAL replay, and the run still satisfies the serializability and
// replica-agreement invariants end to end.
func TestCrashRecoveryMidRun(t *testing.T) {
	cfg := durable(91)
	cfg.Items = 24
	cfg.Replicas = 2
	cl, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addMixedDrivers(t, cl, 25, 3_000_000)

	// Crash site 1 at t=1.2s, recover at t=1.5s: a 300ms outage in the
	// middle of the workload.
	cl.CrashSite(1, 1_200_000)
	cl.RecoverSite(1, 1_500_000)

	res := cl.Run(3_000_000, 8_000_000)
	checkRun(t, "crash-recovery", res, 150)

	qt := cl.QMTotals()
	if qt.Crashes != 1 || qt.Recoveries != 1 {
		t.Fatalf("crashes=%d recoveries=%d, want 1/1", qt.Crashes, qt.Recoveries)
	}
	if qt.Deferred == 0 {
		t.Error("no messages arrived during the outage; the test exercised nothing")
	}
	wt := cl.WALTotals()
	if wt.Recoveries != 1 {
		t.Errorf("wal recoveries = %d, want 1", wt.Recoveries)
	}
	if wt.RecoveredCopies == 0 {
		t.Error("recovery restored no copies from the snapshot")
	}
	if cl.Managers[1].Down() {
		t.Fatal("site 1 still down after recovery")
	}

	// Replica agreement: the recovered site's copies converge with the
	// surviving replicas once the run quiesces.
	for item := 0; item < cfg.Items; item++ {
		var vals []int64
		for _, site := range cl.CurrentMap().Replicas(model.ItemID(item)) {
			v, _ := cl.Stores[site].Read(model.ItemID(item))
			vals = append(vals, v)
		}
		for i := 1; i < len(vals); i++ {
			if vals[i] != vals[0] {
				t.Fatalf("item %d replicas diverged after recovery: %v", item, vals)
			}
		}
	}
}

// TestCrashRecoveryPreservesExactState verifies the recovery path rebuilds
// the crashed site's partition bit-for-bit: every surviving copy must carry
// the exact value, version, and writer it had when the WAL was last synced.
func TestCrashRecoveryPreservesExactState(t *testing.T) {
	cfg := durable(17)
	cfg.Items = 16
	cl, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addMixedDrivers(t, cl, 30, 1_000_000)

	// Run the workload for 1s and drain, then crash/recover in a second
	// phase with no concurrent traffic: recovery must reproduce the
	// quiesced store exactly.
	cl.Run(1_000_000, 6_000_000)
	st := cl.Stores[2]
	want := st.Copies()
	if func() bool {
		for _, c := range want {
			if c.Version > 0 {
				return false
			}
		}
		return true
	}() {
		t.Fatal("site 2 saw no writes; nothing to recover")
	}

	cl.Eng.Post(engine.QMAddr(2), model.CrashMsg{})
	cl.Eng.Post(engine.QMAddr(2), model.RecoverMsg{})
	cl.Eng.Drain(10_000)

	got := st.Copies()
	if len(got) != len(want) {
		t.Fatalf("recovered %d copies, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("copy %d: recovered %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestSnapshotReadsSurviveCrash: the read-only snapshot fast path keeps
// working across a CrashSite/RecoverSite cycle. Recovery must rebuild the
// crashed site's version chains (not just latest values) from the durable
// snapshot + WAL replay, because snapshot reads deferred during the outage
// carry pre-crash snapshot timestamps and still need their exact versions.
func TestSnapshotReadsSurviveCrash(t *testing.T) {
	cfg := durable(41)
	cfg.Items = 16
	cfg.Replicas = 2
	cl, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < cfg.Sites; s++ {
		if err := cl.AddDriver(model.SiteID(s), workload.Spec{
			ArrivalPerSec:   40,
			HorizonMicros:   3_000_000,
			Items:           cfg.Items,
			Size:            3,
			ROSize:          5,
			ReadFrac:        0.3,
			SharePA:         0.4,
			Share2PL:        0.2,
			ShareTO:         0.2,
			ShareRO:         0.6,
			ComputeMicros:   500,
			ROComputeMicros: 2_000,
		}); err != nil {
			t.Fatal(err)
		}
	}
	cl.CrashSite(1, 1_200_000)
	cl.RecoverSite(1, 1_500_000)

	res := cl.Run(3_000_000, 8_000_000)
	checkRun(t, "snapshot-reads-crash", res, 150)

	qt := cl.QMTotals()
	if qt.Crashes != 1 || qt.Recoveries != 1 {
		t.Fatalf("crashes=%d recoveries=%d, want 1/1", qt.Crashes, qt.Recoveries)
	}
	if qt.SnapReads == 0 {
		t.Fatal("no snapshot reads served; the test exercised nothing")
	}
	if qt.SnapStale != 0 {
		t.Fatalf("%d snapshot reads served inexactly (chains lost to recovery or GC)", qt.SnapStale)
	}
	rt := cl.RITotals()
	if rt.ROCommitted == 0 {
		t.Fatal("no read-only snapshot transactions committed")
	}
	// The recovered site's chains must be multi-version again (replayed
	// records extend the restored chains), not collapsed to latest values.
	deep := 0
	for _, item := range cl.CurrentMap().CopiesAt(1) {
		if cl.Stores[1].ChainLen(item) > 1 {
			deep++
		}
	}
	if deep == 0 {
		t.Fatal("recovered site holds no multi-version chains")
	}
}

// TestRecoveryRebuildsChainsExactly: quiesce, record the chains, crash and
// recover with no concurrent traffic — the rebuilt chains must match the
// pre-crash chains version for version (value, ordinal, writer, and commit
// stamp all durable).
func TestRecoveryRebuildsChainsExactly(t *testing.T) {
	cfg := durable(43)
	cfg.Items = 12
	cl, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addMixedDrivers(t, cl, 30, 1_000_000)
	cl.Run(1_000_000, 6_000_000)

	st := cl.Stores[2]
	want := st.Chains()
	var versions int
	for _, cc := range want {
		versions += len(cc.Versions)
	}
	if versions <= len(want) {
		t.Fatal("site 2 chains hold no history; nothing to verify")
	}

	cl.Eng.Post(engine.QMAddr(2), model.CrashMsg{})
	cl.Eng.Post(engine.QMAddr(2), model.RecoverMsg{})
	cl.Eng.Drain(10_000)

	got := st.Chains()
	if len(got) != len(want) {
		t.Fatalf("recovered %d chains, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || len(got[i].Versions) != len(want[i].Versions) {
			t.Fatalf("chain %v: got %d versions, want %d", want[i].ID, len(got[i].Versions), len(want[i].Versions))
		}
		for j := range want[i].Versions {
			if got[i].Versions[j] != want[i].Versions[j] {
				t.Fatalf("chain %v version %d: got %+v, want %+v",
					want[i].ID, j, got[i].Versions[j], want[i].Versions[j])
			}
		}
	}
}

// TestShardedCrashRecoveryMidLoad: crash/recover a site mid-load with the
// queue manager split across shards. The site must fail and recover as a
// unit — every shard defers, the store rebuilds once from snapshot + WAL
// replay (records from all shards merged in append order), the history
// checker passes, and the recovered replicas converge with the survivors.
func TestShardedCrashRecoveryMidLoad(t *testing.T) {
	cfg := durable(91)
	cfg.Items = 24
	cfg.Replicas = 2
	cfg.Shards = 3
	cl, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addMixedDrivers(t, cl, 25, 3_000_000)
	cl.CrashSite(1, 1_200_000)
	cl.RecoverSite(1, 1_500_000)

	res := cl.Run(3_000_000, 8_000_000)
	checkRun(t, "sharded-crash-recovery", res, 150)

	qt := cl.QMTotals()
	if qt.Crashes != 1 || qt.Recoveries != 1 {
		t.Fatalf("crashes=%d recoveries=%d, want 1/1", qt.Crashes, qt.Recoveries)
	}
	if qt.Deferred == 0 {
		t.Error("no messages deferred during the outage; the test exercised nothing")
	}
	wt := cl.WALTotals()
	if wt.Recoveries != 1 {
		t.Errorf("wal recoveries = %d, want 1", wt.Recoveries)
	}
	if wt.RecoveredCopies == 0 {
		t.Error("recovery restored no copies from the snapshot")
	}
	if cl.Managers[1].Down() {
		t.Fatal("site 1 still down after recovery")
	}
	// Shards must all have carried traffic: with 24 items over 3 shards at
	// 4 sites, every shard owns items, so per-item request totals across
	// the run imply multi-shard exercise (routing is content-hashed).
	if qt.Requests == 0 || qt.WALSyncs == 0 {
		t.Fatalf("sharded run idle: %+v", qt)
	}
	// Replica agreement: the recovered site's copies converge with the
	// surviving replicas once the run quiesces.
	for item := 0; item < cfg.Items; item++ {
		var vals []int64
		for _, site := range cl.CurrentMap().Replicas(model.ItemID(item)) {
			v, _ := cl.Stores[site].Read(model.ItemID(item))
			vals = append(vals, v)
		}
		for i := 1; i < len(vals); i++ {
			if vals[i] != vals[0] {
				t.Fatalf("item %d replicas diverged after sharded recovery: %v", item, vals)
			}
		}
	}
}

// TestShardedRecoveryRebuildsChainsExactly: the per-shard WAL batches merge
// into one log; recovery must still rebuild every chain bit-for-bit.
func TestShardedRecoveryRebuildsChainsExactly(t *testing.T) {
	cfg := durable(43)
	cfg.Items = 12
	cfg.Shards = 4
	cl, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addMixedDrivers(t, cl, 30, 1_000_000)
	cl.Run(1_000_000, 6_000_000)

	st := cl.Stores[2]
	want := st.Chains()
	var versions int
	for _, cc := range want {
		versions += len(cc.Versions)
	}
	if versions <= len(want) {
		t.Fatal("site 2 chains hold no history; nothing to verify")
	}

	cl.Eng.Post(engine.QMAddr(2), model.CrashMsg{})
	cl.Eng.Post(engine.QMAddr(2), model.RecoverMsg{})
	cl.Eng.Drain(10_000)

	got := st.Chains()
	if len(got) != len(want) {
		t.Fatalf("recovered %d chains, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || len(got[i].Versions) != len(want[i].Versions) {
			t.Fatalf("chain %v: got %d versions, want %d", want[i].ID, len(got[i].Versions), len(want[i].Versions))
		}
		for j := range want[i].Versions {
			if got[i].Versions[j] != want[i].Versions[j] {
				t.Fatalf("chain %v version %d: got %+v, want %+v",
					want[i].ID, j, got[i].Versions[j], want[i].Versions[j])
			}
		}
	}
}

// TestGroupCommitBatchesInSim: with a group-commit window, one WAL sync
// covers the writes of many concurrently committing transactions — syncs
// must come out well under both the append count and the commit count.
func TestGroupCommitBatchesInSim(t *testing.T) {
	writeHeavy := func(cl *Cluster) {
		for s := 0; s < cl.Cfg.Sites; s++ {
			if err := cl.AddDriver(model.SiteID(s), workload.Spec{
				ArrivalPerSec: 60,
				HorizonMicros: 2_000_000,
				Items:         cl.Cfg.Items,
				Size:          3,
				ReadFrac:      0.2, // commit-heavy: most operations journal
				SharePA:       1,   // PA never restarts, so commits flow steadily
				ComputeMicros: 500,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	cfg := durable(23)
	cfg.Durability.GroupCommitMicros = 20_000
	cl, err := NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	writeHeavy(cl)
	res := cl.Run(2_000_000, 6_000_000)
	checkRun(t, "group-commit", res, 200)

	wt := cl.WALTotals()
	qt := cl.QMTotals()
	if wt.Appends == 0 {
		t.Fatal("no writes journaled")
	}
	if qt.WALSyncs == 0 {
		t.Fatal("no WAL syncs")
	}
	if qt.WALSyncs*2 > wt.Appends {
		t.Errorf("group commit barely batched: %d syncs for %d journaled writes",
			qt.WALSyncs, wt.Appends)
	}
	t.Logf("group commit: %d journaled writes in %d syncs (%.1f writes/sync)",
		wt.Appends, qt.WALSyncs, float64(wt.Appends)/float64(qt.WALSyncs))

	// Against the no-window policy on the same seed/workload, the window
	// must reduce syncs.
	cfg2 := durable(23)
	cl2, err := NewSim(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	writeHeavy(cl2)
	cl2.Run(2_000_000, 6_000_000)
	if base := cl2.QMTotals().WALSyncs; qt.WALSyncs >= base {
		t.Errorf("window did not reduce syncs: %d with window vs %d without",
			qt.WALSyncs, base)
	}
}

// TestCrashInsideCommitWindow drives the combination that used to be outside
// the checked envelope: history recording + CrashSite + a nonzero
// group-commit window, on a quorum-replicated durable cluster. The crash is
// placed where it destroys journaled-but-unsynced writes (checked), with
// traffic still flowing. Those writes were
// parked — nothing was granted past them at the crashed site, and their
// history entries are retracted with them — so the run stays serializable
// and drains, and the copy that lost them re-converges by log shipping from
// its quorum peers.
func TestCrashInsideCommitWindow(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7, 42, 1988} {
		cfg := quorumCfg(seed)
		cfg.Durability.GroupCommitMicros = 20_000
		cl, err := NewSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		addMixedDrivers(t, cl, 40, 3_000_000)
		cl.Start()
		cl.Eng.RunUntil(1_200_000)
		// Step on to the first instant at which site 1 holds a journaled
		// write that no sync has covered yet, and crash it right there.
		for mark := cl.WALs[1].Stats(); ; {
			if !cl.Eng.Step() {
				t.Fatalf("seed %d: the workload ended before site 1 journaled a write", seed)
			}
			st := cl.WALs[1].Stats()
			if st.Syncs == mark.Syncs && st.Appends > mark.Appends {
				break
			}
			mark = st
		}
		before := cl.Stores[1].Copies()
		cl.CrashSite(1, 0)
		cl.RecoverSite(1, 0)
		for cl.Managers[1].Snapshot().Recoveries == 0 {
			if !cl.Eng.Step() {
				t.Fatalf("seed %d: site 1 never recovered", seed)
			}
		}
		lost := 0
		for i, c := range cl.Stores[1].Copies() {
			if c.Version >= before[i].Version {
				continue
			}
			lost++
			// The destroyed write must leave the history log with it, or the
			// recovered chain re-uses its version ordinal under a stale entry.
			for _, e := range cl.Recorder.Log(c.ID) {
				if e.Kind == model.OpWrite && e.Txn == before[i].Writer {
					t.Fatalf("seed %d: %v: history still lists the destroyed write of %v", seed, c.ID, e.Txn)
				}
			}
		}
		if lost == 0 {
			t.Fatalf("seed %d: the crash destroyed no journaled write; it did not land inside a commit window", seed)
		}

		cl.Eng.RunUntil(3_000_000 + 10_000_000)
		checkRun(t, "crash-in-window", cl.Finish(), 150)
		for item := 0; item < cfg.Items; item++ {
			vals := cl.ReplicaValues(model.ItemID(item))
			for _, v := range vals[1:] {
				if v != vals[0] {
					t.Fatalf("seed %d: item %d replicas diverged after the in-window crash: %v", seed, item, vals)
				}
			}
		}
	}
}

// TestDigestOfUnsyncedWritesDiesWithTheCrash: a pull's digest names writes
// the puller has journaled, synced or not. Site 1 is crashed in the one
// window where that matters — its periodic pull, naming writes still inside
// their group-commit window, has reached its peer, and the reply whose apply
// would sync them is still on the wire — and the workload is stopped right
// there, so little can overwrite what the crash destroyed. The peer must then
// forget what site 1 claimed (its next pull is from sequence zero) and ship
// those writes again; a peer that kept believing the claim would withhold
// them for good.
//
// The cluster has two sites, each the other's only peer. With three, a
// site's pulls to its two peers are half a period apart, and the reply to
// the first syncs the claimed writes before the second pull can name them:
// a crash catches the claim at one peer only, and the other one, or a site
// that caught up from it, ships the writes back whatever the first believes.
//
// Here the outage outlasts the round trip, so the reply to the pre-crash
// pull finds the site down; TestReplyFromBeforeAShortCrashIsDropped recovers
// the site before that reply lands.
func TestDigestOfUnsyncedWritesDiesWithTheCrash(t *testing.T) {
	crashAfterDigest(t, 4*digestOneWay)
}

// TestReplyFromBeforeAShortCrashIsDropped is the crash of
// TestDigestOfUnsyncedWritesDiesWithTheCrash with an outage shorter than the
// round trip: the reply to the pull site 1 sent before its crash lands after
// it recovered. Applied, it would advance a watermark the crash zeroed past
// the records the crash destroyed, and the peer would keep what the pre-crash
// digest claimed, so those writes would never ship again. It belongs to an
// older incarnation of site 1's puller, and is dropped.
func TestReplyFromBeforeAShortCrashIsDropped(t *testing.T) {
	crashAfterDigest(t, digestOneWay/4)
}

// digestPeriod and digestOneWay are crashAfterDigest's pull period and
// one-way network delay.
const digestPeriod, digestOneWay = 150_000, 2_000

// crashAfterDigest runs the crash-after-digest scenario over several seeds,
// site 1 recovering outageMicros after the crash, and requires every replica
// to agree at the end.
func crashAfterDigest(t *testing.T, outageMicros int64) {
	t.Helper()
	for _, seed := range []int64{1, 2, 3, 7, 42, 1988} {
		cfg := quorumCfg(seed)
		cfg.Sites, cfg.Replicas = 2, 2
		cfg.Quorum = &model.Quorum{N: 2, W: 2, R: 1}
		cfg.Durability.GroupCommitMicros = 40_000
		cfg.ReplPeriodMicros = digestPeriod
		// Pull ticks fall on multiples of the tick: the period divided among
		// a site's peers, here the one.
		tick := int64(digestPeriod / (cfg.Sites - 1))
		cfg.Latency = engine.FixedLatency{RemoteMicros: digestOneWay, LocalMicros: 50}
		cl, err := NewSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		addMixedDrivers(t, cl, 40, 10_000_000)
		cl.Start()
		cl.Eng.RunUntil(1_000_000)
		// Step on to the first pull tick that finds site 1 holding unsynced
		// writes, give its pull time to land (one way) but not to be
		// answered (two ways), and crash there if nothing synced meanwhile.
		prev := cl.WALs[1].Stats()
		dirtySince := int64(-1) // when the oldest unsynced write was journaled
		for {
			if !cl.Eng.Step() {
				t.Fatalf("seed %d: the workload ended before a pull tick found unsynced writes at site 1", seed)
			}
			st := cl.WALs[1].Stats()
			switch {
			case st.Syncs != prev.Syncs:
				dirtySince = -1
			case st.Appends != prev.Appends && dirtySince < 0:
				dirtySince = cl.Eng.NowMicros()
			}
			prev = st
			if dirtySince < 0 || cl.Eng.NowMicros() < (dirtySince/tick+1)*tick {
				continue
			}
			cl.Eng.RunUntil((dirtySince/tick+1)*tick + digestOneWay + digestOneWay/2)
			if cl.WALs[1].Stats().Syncs == prev.Syncs {
				break
			}
			prev, dirtySince = cl.WALs[1].Stats(), -1
		}
		before := cl.Stores[1].Copies()
		cl.CrashSite(1, 0)
		cl.RecoverSite(1, outageMicros)
		for cl.Managers[1].Snapshot().Recoveries == 0 {
			if !cl.Eng.Step() {
				t.Fatalf("seed %d: site 1 never recovered", seed)
			}
		}
		lost := 0
		for i, c := range cl.Stores[1].Copies() {
			if c.Version < before[i].Version {
				lost++
			}
		}
		if lost == 0 {
			t.Fatalf("seed %d: the crash at %d destroyed no journaled write", seed, cl.Eng.NowMicros())
		}
		checkRun(t, "crash-after-digest", cl.Finish(), 50)
		requireReplicasAgree(t, cl, "crash-after-digest")
	}
}
