// Package qm implements the Data Queue and Data Queue Manager of the
// Precedence-Assignment Model (§3.1) with the unified precedence space
// (§4.1) and the semi-lock precedence enforcement protocol (§4.2) of
// Wang & Li (ICDE 1988).
//
// One Manager runs per data site, partitioned into Options.Shards
// independent shards (hash of item → shard, model.ShardOfItem). Each shard
// owns a dataQueue per physical copy hashed to it, its own lock state and
// counters, and its own group-commit batch, behind its own mutex — and may
// be registered at its own engine address (engine.QMShardAddr), giving it a
// private mailbox goroutine on the real-time runtime. Conflict-free
// operations at one site therefore execute in parallel; operations on one
// item are always serialized by its owning shard, which is all the protocol
// requires. Each dataQueue keeps its entries sorted by unified precedence,
// tracks the R-TS/W-TS thresholds, assigns 2PL precedences from the biggest
// timestamp ever seen, rejects out-of-order T/O requests, computes PA
// back-off timestamps, and grants locks to HD(j) according to the semi-lock
// rules.
//
// Site-wide concerns deliberately stay un-sharded at the Manager:
//
//   - The commit sequencer (sequencer.go): a transaction's writes may span
//     shards, but its commit point is one atomic site-wide WAL sync. Shards
//     drain their dirty batches through a per-site leader/follower
//     sequencer, so concurrently flushing shards coalesce into one media
//     sync (cross-shard group commit) while each shard's write-ahead
//     guarantee — sync before the grant exposing the write — is preserved.
//   - Crash and recovery (CrashMsg/RecoverMsg): a site fails as a unit;
//     every shard goes down together, defers its traffic, and drains in
//     per-shard arrival order after the store is rebuilt once from
//     snapshot + replay.
//   - Deadlock probes and the stats tick: aggregated across shards into
//     one per-site report.
//
// Batches: a model.RequestBatchMsg or model.ReleaseBatchMsg is its members.
// The Manager routes it by its members' items — whole to the owning shard
// when they share one, as the issuer's per-mailbox batches do — and the
// shard handles member i exactly as the single message it stands for:
// ownership and epoch checks, MaxQueueDepth, counters and deferral while
// crashed are all per copy. The grants a request batch earns for its own
// attempt are held while the shard handles it and leave as one
// model.GrantBatchMsg when it ends. The ordering rule that keeps this safe:
// any other reply the shard sends the same issuer meanwhile (a reject, a
// back-off, a busy or wrong-epoch NAK, another transaction's grant) first
// sends the grants held so far, so each issuer still sees one shard's
// replies in the order they were produced. Grants that leave later — from an
// un-park, or while handling a release — go one per message as before.
//
// Two paths never touch the queues at all:
//
//   - Snapshot reads (SnapReadMsg): read-only transactions are answered
//     straight from the store's version chain at their snapshot timestamp —
//     no entry, no lock, no threshold check — and recorded into the history
//     log at the position of the version they observed.
//   - Durability control (CrashMsg/RecoverMsg): how a crashed site defers
//     traffic until its store — version chains included — is rebuilt from
//     snapshot + replay.
//
// Write-ahead exposure (shard.go: park, maybeFlush, flush) is one discipline
// at every group-commit window: journal → park → drain-sync → un-park. A
// release that implements a write journals it through the store's hook and
// parks the item's queue; the shard arms one self-addressed FlushMsg
// Options.GroupCommitMicros ahead — at zero, the tail of what is already in
// its mailbox — and keeps handling messages, which update a parked queue but
// send no grant, promotion or snapshot reply from it. The FlushMsg does one
// commit-sequencer pass for everything journaled since the last one, then
// un-parks and dispatches. So no value, and nothing ordered after a value,
// leaves a shard before the sync covering it has returned; the sync blocks
// the shard once per mailbox drain instead of once per write; and a crash
// destroys only writes nobody observed through this site.
//
// Backpressure: Options.MaxQueueDepth bounds every data queue. A request
// landing on a full queue — unless its transaction is already resident —
// is refused with a model.BusyMsg NAK (counted in Counters.Busy) rather
// than admitted, so overload stops at the queue bound and the refusal
// feeds the issuers' admission controllers instead of growing memory.
package qm
