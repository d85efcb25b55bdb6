package main

import (
	"flag"
	"time"

	"ucc/internal/deploy"
	"ucc/internal/model"
)

// nodeFlags is uccnode's command line. Most flags set their deploy.Config
// field directly; durability and quorum fields count only when -data-dir or
// a -quorum-n/-w/-r flag is given, and the millisecond flags are scaled by
// config.
type nodeFlags struct {
	cfg        deploy.Config
	durability deploy.Durability
	quorum     model.Quorum

	site                            int
	listen, peers, client           string
	detectorMS, admTargetMS, replMS int64
	mailboxDepth, sendCap           int
	moveAfter                       time.Duration
	moveItems                       string
	moveTo                          int
}

// defineFlags registers every uccnode flag on fs.
func defineFlags(fs *flag.FlagSet) *nodeFlags {
	f := &nodeFlags{}
	c, d, q := &f.cfg, &f.durability, &f.quorum
	c.QM.StatsPeriodMicros = 200_000
	c.RI.DefaultComputeMicros = 1000
	c.Detector.PersistRounds = 2

	fs.IntVar(&f.site, "site", 0, "this node's site id (0-based)")
	fs.IntVar(&c.Sites, "sites", 3, "total number of sites")
	fs.IntVar(&c.Items, "items", 64, "number of logical data items")
	fs.IntVar(&c.Replicas, "replicas", 1, "physical copies per item")
	fs.StringVar((*string)(&c.Placement), "placement", "round-robin", "epoch-0 placement policy: round-robin, range, or hash (all processes must agree)")
	fs.IntVar(&c.Shards, "shards", 1, "queue-manager shards per site (item-hash partitioned; all processes must agree)")
	fs.Int64Var(&c.InitialValue, "initial", 100, "initial value of every item")
	fs.StringVar(&f.listen, "listen", ":7700", "TCP listen address")
	fs.StringVar(&f.peers, "peers", "", "comma-separated site TCP addresses, index = site id")
	fs.StringVar(&f.client, "client", "", "client peer TCP address (collector/driver host); may be empty until a client connects inbound")
	fs.Int64Var(&f.detectorMS, "detector-period-ms", 50, "deadlock detection period (site 0 only)")
	fs.Int64Var((*int64)(&c.RI.PAIntervalMicros), "pa-interval-us", 2000, "PA back-off interval INT (µs)")
	fs.Int64Var(&c.RI.RestartDelayMicros, "restart-delay-us", 10000, "base restart delay after rejection/victim/busy (µs); doubles per failed attempt")
	fs.Int64Var(&c.RI.RestartDelayCapMicros, "restart-delay-cap-us", 0, "exponential restart backoff cap (µs); 0 = 32× the base delay")

	fs.IntVar(&f.mailboxDepth, "mailbox-depth", 8192, "actor mailbox bound: requests to a full QM-shard mailbox are NAK'd busy (0 = unbounded)")
	fs.IntVar(&c.QM.MaxQueueDepth, "queue-depth", 1024, "per-item data queue bound: requests beyond it are NAK'd busy (0 = unbounded)")
	fs.IntVar(&f.sendCap, "send-queue-cap", 65536, "per-peer transport send-queue bound, drop-oldest beyond it (0 = unbounded)")

	fs.BoolVar(&c.RI.Admission.Enabled, "admission", true, "enable the admission controller (AIMD in-flight window on new-transaction starts)")
	fs.IntVar(&c.RI.Admission.InitialWindow, "admission-window", 128, "initial admission in-flight window per site")
	fs.Float64Var(&c.RI.Admission.TokensPerSec, "admission-rate", 0, "token-bucket cap on new-transaction starts per second (0 = no rate gate)")
	fs.Int64Var(&f.admTargetMS, "admission-target-ms", 0, "commit-latency target (ms); commits slower than this shrink the window (0 = busy-NAK signal only)")

	fs.IntVar(&q.N, "quorum-n", 0, "quorum replication: copies per item (0 with -quorum-w/-r = read-one/write-all, which is N = W = -replicas and R = 1; all processes must agree)")
	fs.IntVar(&q.W, "quorum-w", 0, "quorum replication: write quorum size (W of N grants commit a write)")
	fs.IntVar(&q.R, "quorum-r", 0, "quorum replication: read quorum size (R copies answer a read, highest commit stamp wins)")
	fs.Int64Var(&f.replMS, "repl-period-ms", 150, "WAL log-shipping catch-up pull period (ms)")
	fs.IntVar(&c.ReplBatchRecords, "repl-batch", 512, "bound on the records shipped per catch-up reply (records the puller is known to hold are left out and do not count; a cut batch re-pulls immediately)")

	fs.StringVar(&d.Dir, "data-dir", "", "durability root: write-ahead log + snapshots under <dir>/site<N> (empty = volatile)")
	fs.Int64Var(&d.GroupCommitMicros, "wal-group-commit-us", 0, "group-commit window (µs): how long a queue-manager shard waits after journaling a write before the WAL sync covering it; 0 (default) syncs once the shard has drained its mailbox. A written item's grants are held until that sync at every value, so a wider window only batches more writes per sync at more latency")
	fs.IntVar(&d.SegmentBytes, "wal-segment-bytes", 1<<20, "WAL segment roll threshold")
	fs.Uint64Var(&d.SnapshotEvery, "wal-snapshot-every", 10000, "snapshot + truncate the WAL after this many journaled writes (0 = never)")

	fs.DurationVar(&f.moveAfter, "move-after", 0, "publish an online rebalance this long after startup: -move-items become primaried at -move-to (run on ONE node only — the epoch bump must have a single author)")
	fs.StringVar(&f.moveItems, "move-items", "", "comma-separated item ids to move with -move-after")
	fs.IntVar(&f.moveTo, "move-to", -1, "destination site id for -move-after/-move-items")
	return f
}

// config is the validated deployment the flags describe. Every process of a
// cluster derives the same one from the same flags, so a shape the
// simulator refuses (an unknown placement, a quorum the clamped replica
// count cannot hold, a partial -quorum-n/-w/-r triple) is fatal here too,
// never silently defaulted.
func (f *nodeFlags) config() (deploy.Config, error) {
	cfg := f.cfg
	cfg.Detector.PeriodMicros = f.detectorMS * 1000
	cfg.RI.Admission.TargetLatencyMicros = f.admTargetMS * 1000
	cfg.ReplPeriodMicros = f.replMS * 1000
	if d := f.durability; d.Dir != "" {
		cfg.Durability = &d
	}
	// All three zero means read-one/write-all: Quorum{N, N, 1}.
	if q := f.quorum; q != (model.Quorum{}) {
		cfg.Quorum = &q
	}
	err := cfg.Validate()
	return cfg, err
}
