// Package workload generates the transaction streams of the paper's
// evaluation: arrivals at each user site with configurable transaction size
// st, read/write mix, access skew, per-transaction concurrency control
// protocol shares, and a read-only snapshot share (ShareRO) whose
// transactions run on the no-lock fast path. One Driver actor runs per user
// site and feeds that site's Request Issuer.
//
// Two load modes:
//
//   - Open loop (ArrivalPerSec): Poisson arrivals, the paper's model. Right
//     for latency-under-load questions.
//   - Closed loop (ClosedLoop): a fixed number of transactions kept in
//     flight, each completion launching the next. Right for capacity
//     questions — an open-loop run drained to quiescence commits every
//     arrival no matter how slow the path, so it cannot show a throughput
//     difference between two configurations that both eventually finish.
//
// Scenarios name reusable workload shapes (OLTP, transfers, flash-sale,
// mixed-analytics, read-heavy, hot-shard) so experiments and CLIs share
// definitions. HotShard is the adversarial one for the sharded queue
// manager: every access lands on items hashing to a single shard, the
// skew that sharding cannot fix.
package workload
