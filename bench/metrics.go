package main

// metricDef names one reported metric. BENCHMARK.json repeats name, unit,
// direction and (for end-to-end metrics) bound; TestBenchmarkJSONMatches
// keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	bound float64
	// from says where the number comes from (phase or source).
	from string
}

// endToEnd lists what a user of the system sees and pays. Every workload
// reports every one of them, always from an untraced run. The bounds of the
// timed metrics are as wide as the contract allows because the reference box
// is: see README.md, "Baseline".
var endToEnd = []metricDef{
	{"txn_per_s", "1/s", "higher", 0.25, "sat phase: median of the per-window commit rates"},
	{"light_p50_ms", "ms", "lower", 0.25, "light phase (2 clients): submit→finish latency, median"},
	{"allocs_per_txn", "count", "lower", 0.05, "sat phase: process Mallocs / committed"},
	{"wire_bytes_per_txn", "B", "lower", 0.05, "sat phase: frame bytes sent by the four nodes / committed"},
	{"setup_s", "s", "lower", 0.25, "median of the 25 set-ups made before the run"},
}

// ungated lists what a measured run also prints but BENCHMARK.json does not
// gate: their run-to-run spread on the reference box exceeds, or comes too
// close to, the widest bound the contract allows (README.md, "Baseline").
var ungated = []metricDef{
	{"sat_p50_ms", "ms", "lower", 0, "sat phase: submit→finish latency, median"},
	{"sat_p99_ms", "ms", "lower", 0, "sat phase: submit→finish latency, 99th percentile"},
	{"light_p99_ms", "ms", "lower", 0, "light phase (2 clients): submit→finish latency, 99th percentile"},
	{"cpu_us_per_txn", "us", "lower", 0, "sat phase: process CPU (user + system) / committed"},
}

// perLayer lists the single-layer metrics of a traced run and its drills.
// The layer is the module name before the dot; proc, bench and trace are
// whole-process accounting, the generator's own cost and the tracer's.
var perLayer = []metricDef{
	{"failed_frac", "frac", "lower", 0, "(submitted − committed) / submitted over the whole run"},
	{"traced_txn_per_s", "1/s", "higher", 0, "traced windows: median commit rate (not an end-to-end number)"},
	{"bench.sat_p50_ms", "ms", "lower", 0, "plain windows of the traced run: submit→finish latency, median"},
	{"bench.sat_p99_ms", "ms", "lower", 0, "plain windows of the traced run: submit→finish latency, 99th percentile"},

	{"ri.busy_us_per_txn", "us", "lower", 0, "actor wrapper"},
	{"ri.calls_per_txn", "count", "lower", 0, "actor wrapper"},
	{"ri.restarts_per_txn", "count", "lower", 0, "Issuer.Snapshot: rejects + victims + busy NAKs"},
	{"ri.rebackoffs_per_txn", "count", "lower", 0, "Issuer.Snapshot"},
	{"ri.shed_frac", "frac", "lower", 0, "Issuer.Snapshot: shed / submitted"},
	{"ri.ro_busy_shed_frac", "frac", "lower", 0, "Issuer.Snapshot: read-only shed by busy NAK / submitted"},
	{"ri.admission_window_end", "count", "higher", 0, "Issuer.Snapshot: smallest window over the sites at the end"},
	{"ri.quorum_excluded_per_txn", "count", "lower", 0, "Issuer.Snapshot"},
	{"ri.ro_stale_frac", "frac", "lower", 0, "Issuer.Snapshot: inexact snapshot replies / snapshot reads"},

	{"qm.busy_us_per_txn", "us", "lower", 0, "actor wrapper, self time: minus journal and flush wait"},
	{"qm.calls_per_txn", "count", "lower", 0, "actor wrapper"},
	{"qm.requests_per_txn", "count", "lower", 0, "Manager.Snapshot"},
	{"qm.grants_per_request", "ratio", "higher", 0, "Manager.Snapshot"},
	{"qm.rejects_per_txn", "count", "lower", 0, "Manager.Snapshot"},
	{"qm.backoffs_per_txn", "count", "lower", 0, "Manager.Snapshot"},
	{"qm.revokes_per_txn", "count", "lower", 0, "Manager.Snapshot"},
	{"qm.aborts_per_txn", "count", "lower", 0, "Manager.Snapshot"},
	{"qm.snap_reads_per_txn", "count", "lower", 0, "Manager.Snapshot"},
	{"qm.snap_stale_frac", "frac", "lower", 0, "Manager.Snapshot: stale / snapshot reads"},
	{"qm.busy_naks_per_txn", "count", "lower", 0, "Manager.Snapshot"},
	{"qm.depth_high_water", "count", "lower", 0, "Manager.DepthHighWater, largest site"},
	{"qm.commits_per_sync", "ratio", "higher", 0, "Manager.Snapshot: Commits / WALSyncs"},

	{"deadlock.busy_us_per_txn", "us", "lower", 0, "actor wrapper"},
	{"deadlock.rounds", "count", "lower", 0, "Detector.Snapshot"},
	{"deadlock.victims_per_ktxn", "count", "lower", 0, "Detector.Snapshot"},
	{"deadlock.transient_cycles", "count", "lower", 0, "Detector.Snapshot"},

	{"engine.mailbox_high_water", "count", "lower", 0, "Runtime.MailboxStats, deepest mailbox of the four runtimes"},
	{"engine.mailbox_naks", "count", "lower", 0, "Runtime.MailboxStats"},
	{"engine.local_deliveries_per_txn", "count", "lower", 0, "actor calls − wire messages: same-runtime sends and timers"},
	{"engine.local_hop_ns", "ns", "lower", 0, "drill: two actors on one runtime"},
	{"engine.local_hop_allocs", "count", "lower", 0, "drill"},

	{"transport.msgs_per_txn", "count", "lower", 0, "Node.Wire: MsgsOut of the four nodes"},
	{"transport.bytes_per_msg", "B", "lower", 0, "Node.Wire"},
	{"transport.envelopes_per_flush", "ratio", "higher", 0, "Node.BatchStats"},
	{"transport.send_queue_high_water", "count", "lower", 0, "Node.QueueStats, deepest outbox"},
	{"transport.dropped", "count", "lower", 0, "Node.QueueStats"},
	{"transport.stream_msgs_per_s", "1/s", "higher", 0, "drill: one-way stream between two nodes"},
	{"transport.stream_allocs_per_msg", "count", "lower", 0, "drill"},
	{"transport.stream_cpu_us_per_msg", "us", "lower", 0, "drill: process CPU of both ends, codec included"},
	{"transport.hop_us", "us", "lower", 0, "drill: ping-pong between two nodes, per hop"},

	{"wire.codec_ns_per_msg", "ns", "lower", 0, "drill: encode + pooled decode over wire.Corpus"},
	{"wire.codec_allocs_per_msg", "count", "lower", 0, "drill"},
	{"wire.bytes_per_msg", "B", "lower", 0, "drill"},

	{"storage.write_ns", "ns", "lower", 0, "drill"},
	{"storage.read_ns", "ns", "lower", 0, "drill"},
	{"storage.read_at_ns", "ns", "lower", 0, "drill"},
	{"storage.pruned_per_txn", "count", "lower", 0, "Store.Pruned"},
	{"storage.chain_len_max", "count", "lower", 0, "Store.ChainLen, longest chain at the end"},

	{"wal.appends_per_txn", "count", "lower", 0, "SiteLog.Stats"},
	{"wal.syncs_per_txn", "count", "lower", 0, "SiteLog.Stats"},
	{"wal.appends_per_sync", "ratio", "higher", 0, "SiteLog.Stats"},
	{"wal.snapshots", "count", "lower", 0, "SiteLog.Stats"},
	{"wal.sync_us_p50", "us", "lower", 0, "timing wal.Media wrapper"},
	{"wal.bytes_per_txn", "B", "lower", 0, "timing wal.Media wrapper"},
	{"wal.flush_wait_us_per_txn", "us", "lower", 0, "timing qm.Durable wrapper"},
	{"wal.journal_us_per_txn", "us", "lower", 0, "timing storage.Journal wrapper"},
	{"wal.append_flush_ns_per_record", "ns", "lower", 0, "drill: zero-delay medium"},

	{"repl.pulls_per_s", "1/s", "lower", 0, "Manager.Snapshot"},
	{"repl.applied_per_txn", "count", "lower", 0, "Manager.Snapshot"},
	{"repl.skipped_per_txn", "count", "lower", 0, "Manager.Snapshot"},
	{"repl.resets", "count", "lower", 0, "Manager.Snapshot"},

	{"proc.cpu_us_per_txn", "us", "lower", 0, "getrusage: user + system"},
	{"proc.cpu_sys_frac", "frac", "lower", 0, "getrusage: system / (user + system)"},
	{"proc.alloc_bytes_per_txn", "B", "lower", 0, "MemStats.TotalAlloc"},
	{"proc.gc_cycles", "count", "lower", 0, "MemStats.NumGC"},
	{"proc.gc_pause_ms", "ms", "lower", 0, "MemStats.PauseTotalNs"},
	{"proc.actor_cpu_frac", "frac", "higher", 0, "reconciliation: actor busy time / process CPU"},
	{"proc.unattributed_us_per_txn", "us", "lower", 0, "reconciliation: process CPU no term explains"},

	{"bench.client_busy_us_per_txn", "us", "lower", 0, "actor wrapper around the load generator"},
	{"trace.overhead_frac", "frac", "lower", 0, "1 − traced / plain commits of adjacent windows, median over the rounds"},
}
