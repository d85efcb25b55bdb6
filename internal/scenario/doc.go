// Package scenario is the declarative whole-system test harness: it turns
// "run this workload shape, break this, and assert these invariants" into
// data instead of per-experiment driver code.
//
// A Scenario names a cluster shape and a list of phases. Each phase holds a
// workload spec per site for a duration (reusing internal/workload's knobs —
// arrival rate, size and access distributions, protocol mix, read-only
// share), a list of scheduled faults (crash and recover a durable site,
// widen a WAL group-commit window, swap the network latency model), and a
// list of checkpoints evaluated at the phase boundary against exactly that
// phase's metric delta. Final checks run after the drain against the whole
// run: serializability of the recorded history, replica agreement after
// recovery, a balanced issuer ledger, nothing left unfinished.
//
// The runner (Run) executes phases against a live cluster on the
// virtual-time engine: it advances the engine to each fault instant, applies
// the fault between steps, snapshots the metrics collector at each phase
// boundary, and subtracts consecutive snapshots (metrics.Summary.Delta) so a
// phase's numbers describe that phase alone. Check failures are recorded,
// not fatal — one run reports every violated invariant. The result is a
// RunRecord that renders as a console table or marshals to stable JSON, so
// CI can archive and diff run records across commits.
//
// The library (Library) ships named scenarios modeled on standard shapes:
// YCSB A/B/C, a TPC-C-like heterogeneous mix, a diurnal curve that crosses
// the admission-control threshold twice, a flash-crowd hotspot spike, an
// overload plateau (open-loop arrivals at 4x measured capacity keep 80% of
// the at-capacity commit rate), a site crash in mid-spike with recovery, a
// crash inside a group-commit window, a slow-disk WAL window excursion, an
// asymmetric degraded link, a quorum failover (N=3/W=2/R=2 loses a site
// mid-run and keeps 30% of the steady rate), a replica catch-up grind (a
// long outage under heavy writes that log shipping must converge), and a
// live rebalance (the hot set changes owner mid-run and keeps 50% of the
// steady rate). RetainsRate states those dips against an earlier phase of
// the same run. cmd/uccscenario is the CLI (-list, -run <name>, -smoke,
// -all, -json, -out, -seed); Smoke returns the fast set CI runs on every PR.
package scenario
