// Package cluster is the simulator host of the distributed system. Every
// site is assembled by internal/deploy, as cmd/uccnode assembles its one
// site over TCP; cluster adds the deterministic virtual-time engine, the
// metrics collector, per-site workload drivers, history recording, fault
// injection (CrashSite/RecoverSite, latency and group-commit window
// changes) and the controller that publishes partition-map epochs.
//
// Config embeds deploy.Config, where the cross-cutting knobs meet (chain
// bounds, snapshot staleness, shard count, WAL), and adds the latency
// model, the seed, recording, the collector and a protocol selector. Run
// executes the standard experiment schedule and returns a Result with the
// summary, the event count, and — when recording — the serializability
// verdict.
package cluster
