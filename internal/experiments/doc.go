// Package experiments defines one registered, reproducible experiment per
// evaluation claim of the paper (`uccbench -list` prints the index;
// docs/ARCHITECTURE.md places each in the system) — EXP-1 … EXP-8 and
// ABL-1 … ABL-3 — plus two beyond-the-paper experiments: EXP-10 (the
// read-only snapshot fast path on/off) and EXP-11 (queue-manager shard
// scaling, uniform vs hot-shard). Crash recovery, overload, quorum failover
// and online rebalance are scenarios in internal/scenario, not experiments.
// Each experiment sweeps a parameter, runs seeded virtual-time clusters,
// and renders the table/series the evaluation describes — except EXP-11,
// which measures wall-clock throughput on a multi-goroutine harness
// (ShardThroughput) because the single-threaded simulator cannot express
// parallel speedup. Each experiment's Claim field states what the paper
// (or the PR that added it) asserts; the rendered table is the measurement.
package experiments
