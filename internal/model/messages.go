package model

import (
	"fmt"
	"slices"
)

// Message is the marker interface for everything exchanged between actors.
// All concrete messages are plain-data structs so the same protocol runs
// over the in-process engines and the TCP transport; each carries a stable
// wire tag and explicit binary encoders (wire.go) for the v3 wire format.
type Message interface {
	isMessage()
}

// Attempt distinguishes the restart attempts of one logical transaction.
// QMs tag their replies with the attempt they saw so that an RI can ignore
// stale replies addressed to an aborted attempt.
type Attempt uint32

// ---------------------------------------------------------------------------
// RI → QM
// ---------------------------------------------------------------------------

// RequestMsg asks the queue manager of one physical copy for access
// (PAM's "request", §3.1). One RequestMsg is sent per physical copy per
// logical operation.
type RequestMsg struct {
	Txn      TxnID
	Attempt  Attempt
	Protocol Protocol
	Kind     OpKind
	Copy     CopyID
	// TS is the transaction timestamp for T/O and PA requests and
	// NoTimestamp for 2PL (whose precedence is assigned at the queue).
	TS Timestamp
	// Interval is PA's back-off interval INT_i (§3.4); zero otherwise.
	Interval Timestamp
	// Site is the issuing user site (precedence tie-break coordinate).
	Site SiteID
	// Epoch is the partition-map epoch the issuer routed this request by.
	// A queue manager that no longer owns the copy (or never did) answers
	// with WrongEpochMsg carrying its current map instead of processing.
	Epoch uint64
}

// RequestBatchMsg carries one attempt's requests for every copy it needs at
// one queue-manager mailbox (site, shard): the issuer groups an attempt's
// per-copy requests by destination and sends each group as one message, so
// the envelope and the fields the copies share travel once. A batch is its
// members — the queue manager handles member i exactly as Request(i), copy
// by copy — and a batch of one encodes to the very bytes of the RequestMsg
// it stands for, so the size of a group never forks a send path.
type RequestBatchMsg struct {
	Txn      TxnID
	Attempt  Attempt
	Protocol Protocol
	TS       Timestamp
	Interval Timestamp
	// Site is the issuing user site (see RequestMsg.Site).
	Site  SiteID
	Epoch uint64
	// CopySite is the site every member's copy lives at: the destination.
	CopySite SiteID
	// Members lists the copies in item order.
	Members []RequestMember
}

// RequestMember is one copy's part of a RequestBatchMsg.
type RequestMember struct {
	Item ItemID
	Kind OpKind
}

// Request returns member i as the RequestMsg it stands for.
func (m RequestBatchMsg) Request(i int) RequestMsg {
	return RequestMsg{
		Txn: m.Txn, Attempt: m.Attempt, Protocol: m.Protocol, Kind: m.Members[i].Kind,
		Copy: CopyID{Item: m.Members[i].Item, Site: m.CopySite},
		TS:   m.TS, Interval: m.Interval, Site: m.Site, Epoch: m.Epoch,
	}
}

// ReleaseBatchMsg is the completer twin of RequestBatchMsg: one release round
// (ReleaseMsg) for every copy the attempt holds at one queue-manager mailbox.
// ToSemi and CommitMicros belong to the round, so they travel once; member i
// is handled exactly as Release(i).
type ReleaseBatchMsg struct {
	Txn          TxnID
	Attempt      Attempt
	CopySite     SiteID
	ToSemi       bool
	CommitMicros int64
	Members      []ReleaseMember
}

// ReleaseMember is one copy's part of a ReleaseBatchMsg.
type ReleaseMember struct {
	Item     ItemID
	HasWrite bool
	Value    int64
}

// Release returns member i as the ReleaseMsg it stands for.
func (m ReleaseBatchMsg) Release(i int) ReleaseMsg {
	return ReleaseMsg{
		Txn: m.Txn, Attempt: m.Attempt, Copy: CopyID{Item: m.Members[i].Item, Site: m.CopySite},
		ToSemi: m.ToSemi, HasWrite: m.Members[i].HasWrite, Value: m.Members[i].Value,
		CommitMicros: m.CommitMicros,
	}
}

// Len, Item and Sub let a queue manager route a request or release batch by
// its members' items: Len is the member count, Item(i) member i's item, and
// Sub(lo, hi) members [lo, hi) as a batch of their own with its own copy of
// them.
func (m RequestBatchMsg) Len() int { return len(m.Members) }

// Item returns member i's item (see Len).
func (m RequestBatchMsg) Item(i int) ItemID { return m.Members[i].Item }

// Sub returns members [lo, hi) as a batch of their own (see Len).
func (m RequestBatchMsg) Sub(lo, hi int) Message {
	m.Members = slices.Clone(m.Members[lo:hi])
	return m
}

// Len returns the member count (see RequestBatchMsg.Len).
func (m ReleaseBatchMsg) Len() int { return len(m.Members) }

// Item returns member i's item (see RequestBatchMsg.Len).
func (m ReleaseBatchMsg) Item(i int) ItemID { return m.Members[i].Item }

// Sub returns members [lo, hi) as a batch of their own (see
// RequestBatchMsg.Len).
func (m ReleaseBatchMsg) Sub(lo, hi int) Message {
	m.Members = slices.Clone(m.Members[lo:hi])
	return m
}

// FinalTSMsg is PA step 1(e): after collecting back-offs the RI broadcasts
// the agreed timestamp TS'_i = max_j TS'_ij to every queue the transaction
// accessed, which re-inserts the request at its new position and marks it
// accepted (§3.4 step 2(d)).
type FinalTSMsg struct {
	Txn     TxnID
	Attempt Attempt
	Copy    CopyID
	TS      Timestamp
}

// ReleaseMsg releases the transaction's lock on one physical copy after
// execution. For write locks it carries the value produced by the local
// computing phase; the QM implements the write by appending it to the item's
// log and installing the value.
//
// ToSemi implements §4.2 rule 4 for T/O transactions that received a
// pre-scheduled lock: instead of releasing, the QM transforms the lock into
// a semi-lock (RL→SRL, WL→SWL), at which point the operation counts as
// implemented; a later ReleaseMsg with ToSemi=false performs the true
// release once the RI has collected a normal lock grant from every item.
type ReleaseMsg struct {
	Txn     TxnID
	Attempt Attempt
	Copy    CopyID
	// ToSemi converts the lock to a semi-lock instead of releasing it.
	ToSemi bool
	// HasWrite and Value carry the write-phase value for write locks.
	HasWrite bool
	Value    int64
	// CommitMicros is the issuer's engine time at the instant the release
	// round was sent — the transaction's single commit point. Every version
	// the transaction installs (at any site) carries this one stamp, which
	// is what makes snapshot reads all-or-nothing per writer: a read-only
	// snapshot at time ts either sees every write of a transaction with
	// CommitMicros ≤ ts or none of them.
	CommitMicros int64
}

// AbortMsg withdraws a transaction attempt from one queue: its queue entry
// is removed and any lock it was granted is discarded without implementing
// writes. Sent on T/O rejection (to the other queues) and on 2PL deadlock
// victimization.
type AbortMsg struct {
	Txn     TxnID
	Attempt Attempt
	Copy    CopyID
}

// ---------------------------------------------------------------------------
// QM → RI
// ---------------------------------------------------------------------------

// GrantMsg grants a lock on one physical copy (§3.1: the request at the head
// of the queue has the right to access the data). Read grants attach the
// current value, per §3.4 step 1(g) ("the data read are attached to the
// corresponding lock grant"); write grants also attach the pre-image so
// read-modify-write transactions need no separate read.
type GrantMsg struct {
	Txn     TxnID
	Attempt Attempt
	Copy    CopyID
	Lock    LockKind
	// PreScheduled marks grants issued while a conflicting earlier lock is
	// still unreleased (§4.2 rule 2); only T/O transactions receive these.
	PreScheduled bool
	// TS echoes the request's timestamp at grant time. A PA issuer that
	// finalized a new agreed timestamp ignores stale grants issued against
	// the original timestamp (those grants were revoked at the QM when the
	// final timestamp re-inserted the request, §3.4 step 2(d)).
	TS      Timestamp
	Value   int64
	Version uint64
	// CommitMicros is the commit stamp of the version backing Value. Under
	// quorum replication the per-copy version ordinals diverge (a copy that
	// missed a write assigns latest+1 to the next write it does see), so the
	// issuer compares grants from different copies by commit stamp — the
	// quantity that is monotone with serialization order when write quorums
	// intersect — and reads the value of the freshest one.
	CommitMicros int64
}

// GrantBatchMsg answers a RequestBatchMsg: the grants the batch's own attempt
// earned while the queue manager handled it, one GrantMsg per member
// (Grant(i)), sent together when the handler ends. Any other reply the
// handler owes the same issuer first sends the grants held so far, so the
// issuer sees one mailbox's replies in the order they were produced. The
// issuer applies every member, then advances the attempt once.
type GrantBatchMsg struct {
	Txn      TxnID
	Attempt  Attempt
	CopySite SiteID
	Members  []GrantMember
}

// GrantMember is one copy's part of a GrantBatchMsg (see GrantMsg).
type GrantMember struct {
	Item         ItemID
	Lock         LockKind
	PreScheduled bool
	TS           Timestamp
	Value        int64
	Version      uint64
	CommitMicros int64
}

// Grant returns member i as the GrantMsg it stands for.
func (m GrantBatchMsg) Grant(i int) GrantMsg {
	g := m.Members[i]
	return GrantMsg{
		Txn: m.Txn, Attempt: m.Attempt, Copy: CopyID{Item: g.Item, Site: m.CopySite},
		Lock: g.Lock, PreScheduled: g.PreScheduled, TS: g.TS,
		Value: g.Value, Version: g.Version, CommitMicros: g.CommitMicros,
	}
}

// NormalGrantMsg tells the RI that a previously pre-scheduled lock has become
// normal (§4.2 rule 2, case 5: "a normal lock grant will be issued").
type NormalGrantMsg struct {
	Txn     TxnID
	Attempt Attempt
	Copy    CopyID
}

// RejectMsg rejects a T/O request that arrived out of timestamp order; the
// transaction restarts with a fresh timestamp (§3.3, T/O enforcement by
// transaction restarts).
type RejectMsg struct {
	Txn     TxnID
	Attempt Attempt
	Copy    CopyID
	// Threshold is the R-TS/W-TS value the request failed against; the RI
	// advances its clock past it so the retry is not rejected for the same
	// reason.
	Threshold Timestamp
}

// BackoffMsg is PA's alternative to rejection (§3.4 step 2(c)): the queue
// computed the minimal acceptable TS'_ij = TS_i + k·INT_i and blocked the
// request pending the transaction's agreed final timestamp.
type BackoffMsg struct {
	Txn     TxnID
	Attempt Attempt
	Copy    CopyID
	// NewTS is TS'_ij.
	NewTS Timestamp
}

// BusyMsg NAKs a sheddable request whose destination was saturated: the
// receiving queue-manager shard's mailbox was at its configured bound
// (real-time runtime), or the item's data queue was at MaxQueueDepth. The
// issuer treats it as a congestion signal — the attempt aborts and restarts
// under exponential backoff, and the admission controller shrinks its
// in-flight window — instead of the request queueing without bound. A NAK is
// itself never sheddable, so the overflow policy cannot livelock: saturated
// components always have room to say "busy".
type BusyMsg struct {
	Txn     TxnID
	Attempt Attempt
	Copy    CopyID
}

// Sheddable marks messages a saturated receiver may refuse with BusyMsg NAKs
// instead of enqueueing. Only new-work openers implement it (RequestMsg,
// RequestBatchMsg, SnapReadMsg): shedding one sheds a transaction attempt
// cleanly. Messages that complete in-flight protocol work — releases (single
// or batched), aborts, grants, final timestamps — are never sheddable,
// because dropping one would strand locks forever; bounded mailboxes
// therefore admit them even past the bound (the bound is hard for openers,
// soft for completers, which is what makes the policy deadlock-free).
//
// Refusal is per copy: a refused message is answered with one BusyMsg for
// every copy it carried — Busy(i) for i in [0, Copies()) — so a refused
// batch NAKs each member exactly as its single requests would have been, and
// the issuer's per-copy handling (quorum exclusion, the write-all abort, the
// admission window's feedback) cannot tell the difference.
type Sheddable interface {
	Message
	// Copies returns the number of copies the message opens work at.
	Copies() int
	// Busy returns the NAK for copy i to deliver to the sender in place of
	// processing.
	Busy(i int) Message
}

// Copies implements Sheddable: a request opens one copy.
func (m RequestMsg) Copies() int { return 1 }

// Busy implements Sheddable: a refused request NAKs with its identity so the
// issuer can abort the attempt.
//
//ucclint:sheddable -- opener: the NAK aborts the whole attempt and the issuer re-requests; no protocol state is stranded
func (m RequestMsg) Busy(int) Message {
	return BusyMsg{Txn: m.Txn, Attempt: m.Attempt, Copy: m.Copy}
}

// Copies implements Sheddable: one NAK per member.
func (m RequestBatchMsg) Copies() int { return len(m.Members) }

// Busy implements Sheddable: member i NAKs as its own RequestMsg would.
//
//ucclint:sheddable -- opener: each member's NAK is the one its single RequestMsg would get; the issuer aborts (or, under quorum, excludes) per copy and re-requests, so no protocol state is stranded
func (m RequestBatchMsg) Busy(i int) Message {
	return m.Request(i).Busy(0)
}

// Copies implements Sheddable: a snapshot read opens one copy.
func (m SnapReadMsg) Copies() int { return 1 }

// Busy implements Sheddable for snapshot reads (the read-only fast path
// sheds the whole transaction — it has no retry machinery by design).
//
//ucclint:sheddable -- opener: shedding fails the read-only transaction cleanly; it holds no locks or queue entries
func (m SnapReadMsg) Busy(int) Message {
	return BusyMsg{Txn: m.Txn, Attempt: m.Attempt, Copy: m.Copy}
}

// VictimMsg tells an RI that its 2PL transaction was chosen as a deadlock
// victim and must abort and restart.
type VictimMsg struct {
	Txn     TxnID
	Attempt Attempt
	// Cycle is the deadlock cycle that was broken (for diagnostics and the
	// Corollary 2 assertion that it contains a 2PL transaction).
	Cycle []TxnID
}

// ---------------------------------------------------------------------------
// Read-only snapshot fast path (RI ↔ QM, no queueing)
// ---------------------------------------------------------------------------

// SnapReadMsg asks a queue manager for a versioned read of one physical copy
// at a snapshot timestamp, bypassing the data queue entirely. The manager
// answers from the copy's version chain with the newest committed version
// whose commit stamp is ≤ SnapMicros. Only ROSnapshot transactions send
// these; they take no locks and can never be rejected or backed off.
type SnapReadMsg struct {
	Txn     TxnID
	Attempt Attempt
	Copy    CopyID
	// SnapMicros is the transaction's snapshot timestamp: issuer engine time
	// at submission minus the configured staleness margin. The margin must
	// exceed the maximum network delay so that every release with
	// CommitMicros ≤ SnapMicros has already been implemented when the read
	// arrives (bounded-staleness consistency).
	SnapMicros int64
	// Site is the issuing user site (reply address).
	Site SiteID
	// Epoch is the partition-map epoch the issuer routed by (see
	// RequestMsg.Epoch).
	Epoch uint64
}

// SnapReadReplyMsg answers a SnapReadMsg with the selected version.
type SnapReadReplyMsg struct {
	Txn     TxnID
	Attempt Attempt
	Copy    CopyID
	Value   int64
	// Version and CommitMicros identify the version served.
	Version      uint64
	CommitMicros int64
	// Exact is false when the chain had been garbage-collected past the
	// snapshot timestamp and the oldest retained version was served instead
	// (bounded chains under extreme write rates; counted at the QM).
	Exact bool
}

// ---------------------------------------------------------------------------
// Deadlock detection plane
// ---------------------------------------------------------------------------

// WaitEdge is one wait-for edge: Waiter waits for Holder at copy Copy.
type WaitEdge struct {
	Waiter       TxnID
	Holder       TxnID
	Waiter2PL    bool
	Holder2PL    bool
	WaiterSite   SiteID
	WaiterSeq    Attempt
	Copy         CopyID
	WaiterIssuer SiteID
}

// WFGReportMsg carries one queue manager site's local wait-for edges to the
// deadlock coordinator.
type WFGReportMsg struct {
	From  SiteID
	Round uint64
	Edges []WaitEdge
}

// ProbeWFGMsg asks a QM site to report its current wait-for edges.
type ProbeWFGMsg struct {
	Round uint64
}

// ---------------------------------------------------------------------------
// Control plane (workload driver, metrics)
// ---------------------------------------------------------------------------

// SubmitTxnMsg hands a new transaction to a Request Issuer.
type SubmitTxnMsg struct {
	Txn *Txn
}

// TxnDoneMsg reports a terminal transaction event to the metrics collector.
type TxnDoneMsg struct {
	Txn      TxnID
	Protocol Protocol
	Outcome  TxnOutcome
	// ArrivalMicros and DoneMicros bound the attempt in engine time; for
	// committed transactions DoneMicros is the execution completion point
	// (system time S = Done − FirstArrival).
	ArrivalMicros int64
	DoneMicros    int64
	// FirstArrivalMicros is the arrival of attempt 0 (equals ArrivalMicros
	// for non-restarted transactions).
	FirstArrivalMicros int64
	Attempts           int
	Size               int
	Reads              int
	Writes             int
	Messages           int64
	// RejectKind is the kind of the request whose rejection caused a T/O
	// restart (valid when Outcome is OutcomeRejected).
	RejectKind OpKind
	// BackoffReads/BackoffWrites count PA requests that were backed off in
	// this attempt, split by kind (inputs to the P_B/P_B' estimators).
	BackoffReads  int
	BackoffWrites int
	// LockedMicros is the total wall time between the first grant collected
	// and the final release, an input to the U/U' estimators.
	LockedMicros int64
}

// QueueStatsMsg carries one QM site's cumulative per-item grant counters to
// the metrics collector, which differences successive reports into the
// per-queue read/write throughputs λ_r(j), λ_w(j) of §5.1.
type QueueStatsMsg struct {
	From     SiteID
	AtMicros int64
	// ReadGrants and WriteGrants are cumulative per logical item at this
	// site.
	ReadGrants  map[ItemID]uint64
	WriteGrants map[ItemID]uint64
}

// EstimateMsg broadcasts the collector's current system-parameter estimates
// to every request issuer; the dynamic selector (§5.2) consumes them. Rates
// are per second of engine time.
type EstimateMsg struct {
	AtMicros int64
	// LambdaR/LambdaW are per-item read/write lock-grant throughputs.
	LambdaR map[ItemID]float64
	LambdaW map[ItemID]float64
	// LambdaA is the system throughput (sum over items of λr+λw).
	LambdaA float64
	// Qr is the fraction of read requests among all requests.
	Qr float64
	// K is the average number of requests per transaction.
	K float64
	// Per-protocol lock-time and failure-probability estimates, indexed by
	// Protocol.
	U      [3]float64 // avg lock time (s) of a successful attempt
	UPrime [3]float64 // avg lock time (s) of an aborted/backed-off attempt
	PAbort float64    // 2PL: probability an attempt dies in a deadlock
	Pr     float64    // T/O: probability a read request is rejected
	PwR    float64    // T/O: probability a write request is rejected
	PB     float64    // PA: probability a read request is backed off
	PBW    float64    // PA: probability a write request is backed off
}

// TickMsg is a generic timer message; Tag disambiguates multiple timers
// within one actor.
type TickMsg struct {
	Tag uint64
}

// ComputeDoneMsg is an issuer-internal timer marking the end of a
// transaction's local computing phase.
type ComputeDoneMsg struct {
	Txn     TxnID
	Attempt Attempt
}

// RestartMsg is an issuer-internal timer that re-launches a transaction
// attempt after a rejection or deadlock abort.
type RestartMsg struct {
	Txn     TxnID
	Attempt Attempt
}

// TxnFinishedMsg tells a closed-loop workload driver that one of its
// transactions reached a terminal state (committed or dropped), freeing a
// concurrency slot. Sent by the RI only when the site's driver asked for
// completion notifications.
type TxnFinishedMsg struct {
	Txn TxnID
}

// StopMsg asks an actor to cease scheduling further work (workload drivers).
type StopMsg struct{}

// ---------------------------------------------------------------------------
// Durability / fault-injection plane
// ---------------------------------------------------------------------------

// CrashMsg injects a site crash at a queue manager: its volatile store and
// any unsynced write-ahead-log tail are destroyed. The durable media
// (snapshot + synced log prefix) survives for RecoverMsg. Simulation only.
type CrashMsg struct{}

// RecoverMsg brings a crashed queue manager back: the store is rebuilt from
// snapshot + log replay, and messages that arrived during the outage are
// then processed in arrival order.
type RecoverMsg struct{}

// FlushMsg is a queue-manager-internal group-commit timer: journaled writes
// accumulated during the window are made durable with one sync. Shard names
// the queue-manager shard whose window expired — each shard defers its own
// dirty batch, and the timer must find its way back to the right one
// regardless of which mailbox delivers it.
type FlushMsg struct {
	Shard int32
}

// ---------------------------------------------------------------------------
// Replication catch-up plane (internal/repl)
// ---------------------------------------------------------------------------

// ReplPullMsg asks a peer queue manager for the WAL records the sender has
// not yet applied: every durable record with Seq > AfterSeq from the peer's
// own log. Sent periodically by every site in a quorum-replicated cluster —
// the anti-entropy loop that lets a recovering or lagging replica catch up
// on writes it missed while down or excluded from a write quorum.
type ReplPullMsg struct {
	// From is the pulling site (reply address).
	From SiteID
	// AfterSeq is the sender's catch-up watermark for this peer: the highest
	// peer-log sequence number it has already applied.
	AfterSeq uint64
	// Have is the sender's journal digest in internal/repl's codec: the
	// newest commit stamp per item it journaled since its previous periodic
	// pull, which lets the peer leave out records the sender would only
	// skip. Opaque here, like ReplRecordsMsg.Frames; nil (re-pulls, settle
	// pulls, an idle or overflowed period) means ship everything.
	Have []byte
}

// ReplRecordsMsg answers a ReplPullMsg with a batch of WAL record frames.
// Frames carries the records in the WAL's own framed varint codec (crc32C +
// flagged length word + varint payload, see internal/wal) — the stream a
// peer ships is byte-identical to what it would replay from its own media,
// so one decoder hardens both paths. The receiver replays each record
// through its store's stamp-gated apply, which makes duplicate, overlapping,
// and out-of-order shipments idempotent.
type ReplRecordsMsg struct {
	// From is the serving site.
	From SiteID
	// Frames is the framed record batch (possibly empty: the puller is
	// already caught up).
	Frames []byte
	// NextAfterSeq is the watermark the puller should advance to after
	// applying the batch (the last record's sequence number, or the
	// snapshot's applied sequence on a Reset).
	NextAfterSeq uint64
	// Reset reports that the puller's watermark pointed below the serving
	// site's oldest retained log record (truncated by a snapshot): Frames
	// instead carries one synthetic record per copy imaging the snapshot's
	// latest versions, and the puller must re-pull from NextAfterSeq for the
	// incremental tail.
	Reset bool
	// More reports that the batch was cut at the size bound and the puller
	// should pull again immediately rather than wait for its next tick.
	More bool
}

// ---------------------------------------------------------------------------
// Versioned placement / online rebalance plane
// ---------------------------------------------------------------------------

// WrongEpochMsg NAKs a request (or a completion addressed to a queue that no
// longer exists here) whose routing disagreed with the receiver's installed
// partition map: the issuer routed by a stale epoch, or raced an ownership
// flip. It carries the receiver's current map so one round trip both refuses
// the operation and repairs the sender's routing state; the issuer installs
// the map if newer, aborts the attempt, and restarts it against the new
// owners. Never sheddable — it is itself a refusal.
type WrongEpochMsg struct {
	Txn     TxnID
	Attempt Attempt
	Copy    CopyID
	// Map is the refusing site's installed partition map.
	Map PartitionMap
}

// MapInstallMsg installs a new partition map at a queue manager. The manager
// ignores maps at or below its installed epoch; a newer map triggers the
// ownership transition — lost items stop admitting new work and drain,
// gained items are created pending and filled by snapshot transfer from the
// old owner.
type MapInstallMsg struct {
	Map PartitionMap
}

// MapUpdateMsg installs a new partition map at a request issuer, which routes
// all subsequent attempts by it. Issuers also learn new maps lazily from
// WrongEpochMsg; the explicit update just avoids one wasted attempt per
// issuer per epoch.
type MapUpdateMsg struct {
	Map PartitionMap
}

// TransferPullMsg asks the old owner of a set of items for their state after
// an ownership flip: the new owner pulls a snapshot image plus WAL tail,
// reusing the catch-up record stream (internal/repl). AfterSeq is the
// puller's watermark into the serving site's log, exactly as in ReplPullMsg.
type TransferPullMsg struct {
	// From is the pulling site (reply address).
	From SiteID
	// Epoch is the map epoch that created this transfer; the server answers
	// NotReady until it has installed that epoch and drained the items it
	// lost under it.
	Epoch uint64
	// AfterSeq is the puller's watermark into the serving site's log.
	AfterSeq uint64
}

// TransferRecordsMsg answers a TransferPullMsg with a batch of WAL record
// frames (same framed codec as ReplRecordsMsg — the snapshot-transfer plane
// is the catch-up plane pointed at a rebalance).
type TransferRecordsMsg struct {
	// From is the serving site.
	From SiteID
	// Epoch echoes the pull's epoch.
	Epoch uint64
	// Frames is the framed record batch.
	Frames []byte
	// NextAfterSeq is the watermark to advance to after applying the batch.
	NextAfterSeq uint64
	// Reset reports a snapshot image (see ReplRecordsMsg.Reset).
	Reset bool
	// More reports the batch was cut at the size bound; pull again now.
	More bool
	// NotReady reports the server has not yet installed Epoch or still has
	// in-flight transactions draining on the items it lost; the puller
	// retries on its transfer tick.
	NotReady bool
	// Done reports the server's log had nothing further: the transfer is
	// complete and the puller may open the items for traffic.
	Done bool
}

func (RequestMsg) isMessage()         {}
func (RequestBatchMsg) isMessage()    {}
func (ReleaseBatchMsg) isMessage()    {}
func (GrantBatchMsg) isMessage()      {}
func (FinalTSMsg) isMessage()         {}
func (SnapReadMsg) isMessage()        {}
func (SnapReadReplyMsg) isMessage()   {}
func (ReleaseMsg) isMessage()         {}
func (AbortMsg) isMessage()           {}
func (GrantMsg) isMessage()           {}
func (NormalGrantMsg) isMessage()     {}
func (RejectMsg) isMessage()          {}
func (BackoffMsg) isMessage()         {}
func (VictimMsg) isMessage()          {}
func (BusyMsg) isMessage()            {}
func (TxnFinishedMsg) isMessage()     {}
func (WFGReportMsg) isMessage()       {}
func (ProbeWFGMsg) isMessage()        {}
func (SubmitTxnMsg) isMessage()       {}
func (TxnDoneMsg) isMessage()         {}
func (TickMsg) isMessage()            {}
func (ComputeDoneMsg) isMessage()     {}
func (RestartMsg) isMessage()         {}
func (StopMsg) isMessage()            {}
func (CrashMsg) isMessage()           {}
func (RecoverMsg) isMessage()         {}
func (FlushMsg) isMessage()           {}
func (ReplPullMsg) isMessage()        {}
func (ReplRecordsMsg) isMessage()     {}
func (WrongEpochMsg) isMessage()      {}
func (MapInstallMsg) isMessage()      {}
func (MapUpdateMsg) isMessage()       {}
func (TransferPullMsg) isMessage()    {}
func (TransferRecordsMsg) isMessage() {}

func (QueueStatsMsg) isMessage() {}
func (EstimateMsg) isMessage()   {}

func (m RequestMsg) String() string {
	return fmt.Sprintf("req{%s %s %s %s ts=%d}", m.Txn, m.Protocol, m.Kind, m.Copy, m.TS)
}
