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
// order, releases with one model.ReleaseBatchMsg per mailbox, and withdraws
// with one model.AbortBatchMsg per mailbox — a batch is its members, handled
// copy by copy at the queue manager, and a batch of one travels as exactly
// the single message it stands for, so there is one send path per protocol
// step. In quorum mode a first attempt asks only a quorum of each item's
// copies — R for a read, W for a write, the issuer's own first — and holds
// the rest as spares, which go out later into the same attempt, again one
// batch per mailbox, only when the quorum stalls: a copy is excluded, or
// the issuer's one sweep timer finds the attempt still short
// Options.RestartDelayMicros after it launched. A restart asks every copy.
// Every withdrawal leaves through the one withdraw path: a NAK'd attempt
// withdraws every requested copy, a quorum exclusion one, and a quorum
// commit the requested copies that never granted, which at a lagging site
// are all of the attempt's copies there; a held spare was never asked. A
// model.GrantBatchMsg is applied member by member and the attempt then
// advances once. Everything else stays per copy: PA's final timestamps, and
// refusals — a refused batch is NAK'd member by member, so quorum
// exclusion, the write-all abort and the admission feedback see exactly
// what they saw when every copy travelled alone.
// TxnDoneMsg.Messages keeps counting per-copy protocol messages.
//
// The issuer's per-transaction state is reused. Submit takes a state from a
// free list; its terminal point puts it back after its last use. For a
// read-write transaction that is the commit or the MaxAttempts drop, for a
// read-only one the commit or a shedding NAK. A reused state keeps its maps,
// its slab of copy requests and its transaction's arrays; a state built for
// more than maxKeptCopies copies is left to the garbage collector instead,
// because maps never shrink. Messages find their state by transaction
// id, so a late grant, NAK or timer for a finished transaction finds nothing,
// even while its old state serves another transaction. Timers and completion
// reports go out as pooled messages, so a committed transaction allocates
// nothing in the issuer (TestIssuerLifecycleAllocatesNothing).
//
// The issuer owns a copy of what it was handed, never the caller's Txn. A
// submit copies the transaction into the state it takes: the state's own
// model.Txn value, with the read and write sets in the state's item slab and
// the specs in that Txn's own array, both kept across reuse. From then on
// the issuer reads only its copy, and the ChooseFunc's pick, the demotion of
// a read-only snapshot to PA and SwitchOnRestart's switches land on it. The
// ChooseFunc is shown the caller's Txn, to read. Nothing keeps the
// message's Txn after OnMessage returns, so there is one submit path for
// every sender: a simulator's value submit, an in-process driver's send, and
// a wire-decoded submit, whose Txn model.DecodeMessagePooled takes from a
// pool and the delivery layer recycles as soon as OnMessage returns. A
// caller may rewrite or reuse its Txn once OnMessage has returned
// (TestSubmitLeavesCallersTxnAlone).
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
// transaction. TxnDoneMsg.Messages counts one per item read. Quorum mode
// has no fast path: a primary copy may sit outside the write quorum that
// carried the latest write, so snapshots run as PA there.
//
// The staleness margin must exceed the maximum network delay: then every
// release carrying an older commit stamp has already been implemented at
// every site when the reads arrive, so the snapshot observes a consistent
// cut of committed transactions. Releases of read-write transactions carry
// a single CommitMicros stamp per transaction (taken when the release round
// is sent), which is what the version chains — and therefore the snapshots
// — are ordered by.
//
// Overload defense: restarts back off exponentially
// (Options.RestartDelayMicros), and an optional admission controller
// (AdmissionOptions) sheds new transactions at the front door. A BusyMsg for
// a launched read-write attempt aborts and restarts it under the backoff; a
// read-only snapshot transaction is shed outright (the fast path has no
// retry machinery by design).
//
// Files, one seam each, all methods of the one Issuer behind OnMessage:
//
//   - issuer.go: Options, New, OnMessage's dispatch, submit, stats.
//   - readwrite.go: the 2PL, T/O and PA lifecycles, semi-lock release.
//   - readonly.go: the read-only snapshot lifecycle.
//   - restart.go: NAK handling, restart back-off, the MaxAttempts drop.
//   - quorum.go: replica access; every write-all-vs-quorum choice, thrifty
//     quorum attempts and their hedge sweep.
//   - freelist.go: the reused transaction states.
//   - admission.go: the admission controller.
package ri
