// Package ri implements the Request Issuer of the Precedence-Assignment
// Model (§3.1): the per-user-site actor that turns transactions into
// requests, runs the per-protocol lifecycles — static 2PL with deadlock
// aborts, Basic T/O with timestamped requests and restart-on-rejection, and
// the PA negotiation of §3.4 — and drives the semi-lock release discipline
// of §4.2 rule 3/4 for the unified system.
//
// The copy is the unit of concurrency control; the queue-manager mailbox
// (site, shard) is the unit of transmission. An attempt opens with one
// model.RequestBatchMsg per mailbox its copies route to, members in item
// order, and releases with one model.ReleaseBatchMsg per mailbox — a batch
// is its members, handled copy by copy at the queue manager, and a batch of
// one travels as exactly the single message it stands for, so there is one
// send path per protocol step. A model.GrantBatchMsg is applied member by
// member and the attempt then advances once. Everything else stays per
// copy: aborts (a withdrawn attempt, a quorum exclusion, a straggler outside
// the commit quorum), PA's final timestamps, and refusals — a refused batch
// is NAK'd member by member, so quorum exclusion, the write-all abort and
// the admission feedback see exactly what they saw when every copy travelled
// alone. TxnDoneMsg.Messages keeps counting per-copy protocol messages.
//
// The issuer's per-transaction state is reused. Submit takes a state from a
// free list; its terminal point puts it back after its last use. For a
// read-write transaction that is the commit or the MaxAttempts drop, for a
// read-only one the commit or a shedding NAK. A reused state keeps its maps
// and its slab of copy requests; a state built for more than maxKeptCopies
// copies is left to the garbage collector instead, because maps never
// shrink. Messages find their state by transaction
// id, so a late grant, NAK or timer for a finished transaction finds nothing,
// even while its old state serves another transaction. Timers and completion
// reports go out as pooled messages, so a committed transaction allocates
// nothing in the issuer (TestIssuerLifecycleAllocatesNothing).
//
// Read-only snapshot transactions (model.ROSnapshot) run a fourth, trivial
// lifecycle: scatter the reads at a snapshot timestamp a configurable
// staleness margin in the past, gather the replies, compute, commit. No
// locks, no negotiation, no restarts. The scatter follows the read-write
// rule: one model.SnapReadBatchMsg per mailbox the items' primary copies
// route to, members in item order (a batch of one travels as the
// SnapReadMsg it stands for); a model.SnapReadReplyBatchMsg is applied
// member by member and the transaction then checks once whether every read
// is in. A refused batch NAKs each member, and the first NAK sheds the
// transaction. TxnDoneMsg.Messages counts one per item read.
//
// The staleness margin must exceed the maximum network delay: then every
// release carrying an older commit stamp has already been implemented at
// every site when the reads arrive, so the snapshot observes a consistent
// cut of committed transactions. Releases of read-write transactions carry
// a single CommitMicros stamp per transaction (taken when the release round
// is sent), which is what the version chains — and therefore the snapshots
// — are ordered by.
//
// Overload defense: restarts back off exponentially (RestartDelayMicros
// doubling per failed attempt up to RestartDelayCapMicros, ±50% jitter —
// a flat delay re-collides every loser of a conflict round at the same rate
// forever), and an optional admission controller (Options.Admission) gates
// every new-transaction start behind a token bucket and an AIMD in-flight
// window. The window grows additively on in-target commits and shrinks
// multiplicatively on congestion signals — a commit over the latency
// target, or a model.BusyMsg NAK from a saturated queue manager. Refused
// arrivals are shed: reported with OutcomeShed, never launched, and (in
// closed-loop mode) their driver slot freed immediately. A BusyMsg for a
// launched read-write attempt aborts and restarts it under the backoff; a
// read-only snapshot transaction is shed outright (the fast path has no
// retry machinery by design).
package ri
