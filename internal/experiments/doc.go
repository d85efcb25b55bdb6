// Package experiments defines one registered, reproducible experiment per
// evaluation claim of the paper (`uccbench -list` prints the index;
// docs/ARCHITECTURE.md places each in the system), plus the
// beyond-the-paper experiments the repo has grown: EXP-9 (site crash, WAL
// recovery, group commit), EXP-10 (the read-only snapshot fast path
// on/off), EXP-11 (queue-manager shard scaling, uniform vs hot-shard),
// EXP-12 (overload defense), EXP-13 (the scenario library), and EXP-14
// (quorum replication surviving a dead site with log-shipping catch-up).
// Each experiment sweeps a parameter, runs seeded virtual-time clusters,
// and renders the table/series the evaluation describes — except EXP-11,
// which measures wall-clock throughput on a multi-goroutine harness
// (ShardThroughput) because the single-threaded simulator cannot express
// parallel speedup. Each experiment's Claim field states what the paper
// (or the PR that added it) asserts; the rendered table is the measurement.
package experiments
