package ri

import (
	"fmt"
	"sync"

	"ucc/internal/engine"
	"ucc/internal/history"
	"ucc/internal/model"
)

// Options configure an issuer.
type Options struct {
	// PAIntervalMicros is the default back-off interval INT_i attached to PA
	// transactions (§3.4).
	PAIntervalMicros model.Timestamp
	// RestartDelayMicros is the base delay before a rejected, victimized, or
	// busy-NAK'd transaction attempt is retried (randomized ±50%). The delay
	// doubles with every failed attempt up to RestartDelayCapMicros: a flat
	// delay re-collides every loser of a conflict at the same rate forever
	// (the restart storm), while exponential backoff spreads them out.
	RestartDelayMicros int64
	// RestartDelayCapMicros caps the exponential restart backoff; 0 selects
	// 32× RestartDelayMicros. The ±50% jitter applies after the cap.
	RestartDelayCapMicros int64
	// MaxAttempts caps restarts; 0 means unlimited. When the cap is hit the
	// transaction is dropped (reported as its last failure outcome).
	MaxAttempts int
	// DefaultComputeMicros is used when a transaction does not specify its
	// local computing phase duration.
	DefaultComputeMicros int64
	// SwitchOnRestart, when non-nil, lets a restarting transaction change
	// its concurrency control protocol (the paper's future-work item §6(4)):
	// it receives the current protocol and the number of failed attempts
	// and returns the protocol for the next attempt. The unified system
	// makes this safe — each attempt is a fresh set of requests under the
	// unified precedence space.
	SwitchOnRestart func(current model.Protocol, failedAttempts int) model.Protocol
	// SnapshotStalenessMicros is the read-only snapshot margin: an
	// ROSnapshot transaction reads at (submission time − this margin). It
	// must exceed the maximum one-way network delay — then every write with
	// an older commit stamp has already been implemented at every site when
	// the snapshot read arrives, and the snapshot is a consistent cut.
	// Default 15ms (simulated latencies top out at 5ms). On the real
	// runtime clocks are wall-anchored per process, so the margin must also
	// absorb inter-machine clock skew — size it to NTP error + max delay.
	SnapshotStalenessMicros int64
	// DisableROFastPath demotes ROSnapshot transactions to PA read-only
	// transactions that queue and lock like everyone else (the EXP-10
	// baseline and an operational escape hatch).
	DisableROFastPath bool
	// Admission configures the admission controller: token-bucket + AIMD
	// in-flight window gating on new-transaction starts, the front-door
	// defense that sheds offered load beyond capacity instead of queueing
	// it. Disabled by default.
	Admission AdmissionOptions
	// QMShards is the number of queue-manager shards per data site; every
	// per-item message is addressed to the shard mailbox its item hashes to
	// (engine.QMShardAddr + model.ShardOfItem). Must match qm.Options.Shards
	// cluster-wide. Zero or one addresses the site's single shard-0 mailbox,
	// the pre-sharding behaviour.
	QMShards int
	// Quorum is the replica-access discipline: reads proceed on any R grants
	// (the issuer keeps the value with the highest commit stamp), writes on
	// any W of N, and a copy that NAKs busy is excluded from the attempt's
	// quorum instead of aborting the whole attempt — the attempt only
	// restarts (as overload, through the admission controller's backoff)
	// when an item drops below quorum. A first attempt requests only R
	// copies of each read item and W of each written one, the issuer's own
	// copy first, and holds the rest as spares; it sends them into the same
	// attempt when a copy is excluded or, under W < N, when the attempt is
	// still short of its quorum RestartDelayMicros after it launched. Under
	// W < N a restart requests every copy, and so does every attempt when
	// RestartDelayMicros is zero. Under W < N read-only snapshot
	// transactions are demoted to PA, as under DisableROFastPath: the fast
	// path reads each item's primary copy alone, which a write quorum may
	// have left out. Nil is read-one/write-all, Quorum{N, N, 1} with N the
	// partition map's copies per item.
	Quorum *model.Quorum
}

// DefaultOptions returns sensible defaults for simulation-scale runs.
func DefaultOptions() Options {
	return Options{
		PAIntervalMicros:        2_000,
		RestartDelayMicros:      4_000,
		DefaultComputeMicros:    1_000,
		SnapshotStalenessMicros: 15_000,
	}
}

// ChooseFunc picks the concurrency control protocol for a new transaction
// given the latest system-parameter estimates; nil means "use txn.Protocol".
// t is the submitter's transaction: read it, never change it.
type ChooseFunc func(t *model.Txn, est model.EstimateMsg) model.Protocol

// phase is the lifecycle stage of one transaction attempt.
type phase uint8

const (
	phaseNegotiating phase = iota // requests out; collecting grant/backoff/reject
	phaseAwaitGrants              // PA finalized; awaiting fresh grants
	phaseComputing                // all locks held; local computing phase
	phaseAwaitNormal              // T/O semi-converted; awaiting normal grants
)

var phaseNames = [...]string{"negotiating", "await-grants", "computing", "await-normal"}

// String names the phase as ActiveTxn.Phase reports it.
func (p phase) String() string { return phaseNames[p] }

// Issuer is the request-issuer actor for one user site.
type Issuer struct {
	mu   sync.Mutex
	site model.SiteID
	// pmap is the issuer's current view of the versioned partition map. It
	// may lag the cluster's: every request carries pmap.Epoch, and a queue
	// manager that no longer owns the addressed copy answers with a
	// WrongEpochMsg carrying the newer map, which installs here before the
	// attempt restarts against the fresh placement.
	pmap     *model.PartitionMap
	recorder *history.Recorder
	opts     Options
	choose   ChooseFunc

	clock     model.Timestamp
	active    map[model.TxnID]*txnState
	roActive  map[model.TxnID]*roState
	estimates model.EstimateMsg
	// notifyDriver sends TxnFinishedMsg to the site's workload driver on
	// every terminal transaction event (closed-loop pacing). Only set when
	// a closed-loop driver is actually registered at this site.
	notifyDriver bool
	// finalTS remembers the committed timestamp of T/O and PA transactions:
	// the timestamp-order oracle of the history-checking tests, so it is kept
	// only when a recorder is attached (a node runs without one and would
	// otherwise grow it by one entry per commit forever).
	finalTS map[model.TxnID]model.Timestamp

	// adm is the admission controller, nil (admit everything) when
	// Options.Admission is off.
	adm *admission

	// sweepArmed is true while the hedge sweep's timer is pending, and
	// sweepScratch is onSweep's reusable list of attempts; guarded by mu
	// like the rest of the issuer state.
	sweepArmed   bool
	sweepScratch []*txnState
	// probation lists the sites whose copies thrifty attempts pick last
	// (probate, heard); guarded by mu.
	probation []model.SiteID
	// mailboxScratch, reqMembers, relMembers, abortMembers, roAddrs and
	// snapMembers are the reusable scratch of one protocol step's batches
	// (mailboxes, sendRequests, releaseAll, withdraw, launchRO); guarded by
	// mu.
	mailboxScratch []engine.Addr
	reqMembers     []model.RequestMember
	relMembers     []model.ReleaseMember
	abortMembers   []model.ItemID
	roAddrs        []engine.Addr
	snapMembers    []model.ItemID
	// freeTxns and freeROs hold finished transactions' states for the next
	// submits to reuse, maps and slab included (reuse, recycleTxn,
	// recycleRO); guarded by mu. A state goes back at its terminal point,
	// after its last use, so neither list ever holds more states than the
	// issuer's peak number of active transactions.
	freeTxns []*txnState
	freeROs  []*roState

	// stats holds the monotone counters; Snapshot fills in Active and Window.
	stats Stats
}

// New creates an issuer for site routing by pm, its initial view of the
// versioned partition map (the issuer keeps a private clone and follows
// later epochs via WrongEpochMsg NAKs and MapUpdateMsg pushes). recorder may
// be nil; choose may be nil to honour each transaction's preset protocol.
func New(site model.SiteID, pm *model.PartitionMap, recorder *history.Recorder, opts Options, choose ChooseFunc) *Issuer {
	if opts.PAIntervalMicros <= 0 {
		opts.PAIntervalMicros = 1
	}
	if opts.DefaultComputeMicros < 0 {
		opts.DefaultComputeMicros = 0
	}
	if opts.SnapshotStalenessMicros <= 0 {
		opts.SnapshotStalenessMicros = DefaultOptions().SnapshotStalenessMicros
	}
	if opts.Quorum == nil {
		// Read-one/write-all is the quorum system with W = N and R = 1
		// (Gifford). Placement keeps every item's copy count on every move.
		n := len(pm.Replicas(0))
		opts.Quorum = &model.Quorum{N: n, W: n, R: 1}
	}
	iss := &Issuer{
		site:     site,
		pmap:     pm.Clone(),
		recorder: recorder,
		opts:     opts,
		choose:   choose,
		active:   map[model.TxnID]*txnState{},
		roActive: map[model.TxnID]*roState{},
		finalTS:  map[model.TxnID]model.Timestamp{},
	}
	if opts.Admission.Enabled {
		iss.adm = newAdmission(opts.Admission)
	}
	return iss
}

// Stats is a snapshot of issuer counters. ROCommitted counts commits via the
// read-only snapshot fast path, ROStale snapshot replies served inexactly
// (chain GC'd past the snapshot), ReBackoffs PA back-offs received after
// finalization (must stay 0).
type Stats struct {
	Submitted, Committed, ROCommitted, ROStale, Rejects, Victims, Dropped, ReBackoffs uint64
	// Shed counts arrivals refused by the admission controller; BusyNAKs
	// counts BusyMsg congestion NAKs received from saturated queue managers.
	Shed, BusyNAKs uint64
	// ROBusyShed counts read-only snapshot transactions shed outright by a
	// BusyMsg NAK — the fast path has no restart machinery, so a NAK is
	// terminal for it. A subset of BusyNAKs (which also counts NAKs that
	// merely aborted one read-write attempt), and a terminal outcome in the
	// Offered identity: submitted = committed + shed + roBusyShed + dropped
	// + active.
	ROBusyShed uint64
	// QuorumExcluded counts copies dropped from an attempt's quorum (busy
	// NAKs and post-finalize stragglers); QuorumHedged counts attempts whose
	// held spares were sent (an exclusion or the sweep).
	QuorumExcluded, QuorumHedged uint64
	// WrongEpochNAKs counts WrongEpochMsg NAKs received for requests that
	// raced a placement change; MapUpdates counts newer partition maps
	// installed at this issuer (NAK piggybacks plus MapUpdateMsg pushes).
	WrongEpochNAKs, MapUpdates uint64
	Active                     int
	// Window is the admission controller's current in-flight window (0 when
	// admission control is disabled).
	Window float64
}

// Sub takes every counter of o from s: the events since o was taken. The
// gauges, Active and Window, keep s's current value.
func (s *Stats) Sub(o Stats) {
	s.Submitted -= o.Submitted
	s.Committed -= o.Committed
	s.ROCommitted -= o.ROCommitted
	s.ROStale -= o.ROStale
	s.Rejects -= o.Rejects
	s.Victims -= o.Victims
	s.Dropped -= o.Dropped
	s.ReBackoffs -= o.ReBackoffs
	s.Shed -= o.Shed
	s.BusyNAKs -= o.BusyNAKs
	s.ROBusyShed -= o.ROBusyShed
	s.QuorumExcluded -= o.QuorumExcluded
	s.QuorumHedged -= o.QuorumHedged
	s.WrongEpochNAKs -= o.WrongEpochNAKs
	s.MapUpdates -= o.MapUpdates
}

// Add adds every counter of o, and its Active, to s: the totals over
// issuers. Window, one controller's gauge, keeps s's value.
func (s *Stats) Add(o Stats) {
	s.Submitted += o.Submitted
	s.Committed += o.Committed
	s.ROCommitted += o.ROCommitted
	s.ROStale += o.ROStale
	s.Rejects += o.Rejects
	s.Victims += o.Victims
	s.Dropped += o.Dropped
	s.ReBackoffs += o.ReBackoffs
	s.Shed += o.Shed
	s.BusyNAKs += o.BusyNAKs
	s.ROBusyShed += o.ROBusyShed
	s.QuorumExcluded += o.QuorumExcluded
	s.QuorumHedged += o.QuorumHedged
	s.WrongEpochNAKs += o.WrongEpochNAKs
	s.MapUpdates += o.MapUpdates
	s.Active += o.Active
}

// Snapshot returns current counters; safe for concurrent use.
func (ri *Issuer) Snapshot() Stats {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	s := ri.stats
	s.Active = len(ri.active) + len(ri.roActive)
	s.Window = ri.adm.currentWindow()
	return s
}

// ActiveTxn describes one in-flight transaction (observability/debugging).
type ActiveTxn struct {
	ID       model.TxnID
	Protocol model.Protocol
	Attempt  model.Attempt
	Phase    string
	// Waiting lists requested copies that have not yet granted (or, in the
	// await-normal phase, not yet normalized); a held quorum spare is not
	// waited on.
	Waiting []model.CopyID
}

// ActiveTxns snapshots the in-flight transactions at this issuer.
func (ri *Issuer) ActiveTxns() []ActiveTxn {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	var out []ActiveTxn
	for _, s := range ri.active {
		at := ActiveTxn{ID: s.txn.ID, Protocol: s.txn.Protocol, Attempt: s.attempt, Phase: s.phase.String()}
		answered := predGranted
		if s.phase == phaseAwaitNormal {
			answered = predNormal
		}
		for _, r := range s.reqs {
			if !r.held && !answered(r) {
				at.Waiting = append(at.Waiting, r.copyID)
			}
		}
		out = append(out, at)
	}
	for _, s := range ri.roActive {
		at := ActiveTxn{ID: s.txn.ID, Protocol: model.ROSnapshot, Phase: "snapshot-read"}
		for c := range s.pending {
			at.Waiting = append(at.Waiting, c)
		}
		out = append(out, at)
	}
	return out
}

// SetNotifyDriver makes the issuer report terminal transaction events to the
// site's workload driver (closed-loop pacing). Call before the engine starts.
func (ri *Issuer) SetNotifyDriver(on bool) {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	ri.notifyDriver = on
}

// qmAddr returns the shard mailbox serving one physical copy: the queue
// manager of the copy's site, shard chosen by the item hash every routing
// party agrees on.
func (ri *Issuer) qmAddr(c model.CopyID) engine.Addr {
	return engine.QMShardAddr(c.Site, model.ShardOfItem(c.Item, ri.opts.QMShards))
}

// finished reports a terminal event to the driver when asked to.
func (ri *Issuer) finished(ctx engine.Context, id model.TxnID) {
	if ri.notifyDriver {
		ctx.Send(engine.DriverAddr(ri.site), model.PooledTxnFinished(model.TxnFinishedMsg{Txn: id}))
	}
}

// FinalTimestamp reports the committed timestamp of a T/O or PA transaction.
func (ri *Issuer) FinalTimestamp(id model.TxnID) (model.Timestamp, bool) {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	ts, ok := ri.finalTS[id]
	return ts, ok
}

// OnMessage implements engine.Actor. A pooled message arrives as its pooled
// pointer, which the delivery layer recycles after OnMessage returns, and a
// per-copy reply as a batch (package model's wirepool.go).
func (ri *Issuer) OnMessage(ctx engine.Context, from engine.Addr, msg model.Message) {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	switch v := msg.(type) {
	case model.SubmitTxnMsg:
		ri.onSubmit(ctx, v.Txn)
	case *model.GrantBatchMsg:
		ri.onGrantBatch(ctx, v)
	case *model.SnapReadReplyBatchMsg:
		ri.onSnapReplyBatch(ctx, v)
	case *model.NormalGrantMsg:
		ri.onNormalGrant(ctx, *v)
	case *model.RejectMsg:
		ri.onReject(ctx, *v)
	case *model.BackoffMsg:
		ri.onBackoff(ctx, *v)
	case model.VictimMsg:
		ri.onVictim(ctx, v)
	case *model.BusyMsg:
		ri.onBusy(ctx, *v)
	case model.WrongEpochMsg:
		ri.onWrongEpoch(ctx, v)
	case model.MapUpdateMsg:
		ri.onMapUpdate(v)
	case *model.ComputeDoneMsg:
		ri.onComputeDone(ctx, *v)
	case *model.RestartMsg:
		ri.onRestart(ctx, *v)
	case model.EstimateMsg:
		ri.estimates = v
	case model.TickMsg:
		// The issuer's one timer tick: the quorum hedge sweep.
		ri.onSweep(ctx)
	case model.StopMsg:
		// No periodic work to stop; present for symmetry.
	default:
		panic(fmt.Sprintf("ri: site %d: unexpected message %T", ri.site, msg))
	}
}

// nextTS draws a fresh timestamp: monotone per issuer and loosely coupled to
// engine time so timestamps are comparable across sites (as wall-clock-based
// timestamps would be in a deployment).
func (ri *Issuer) nextTS(ctx engine.Context) model.Timestamp {
	now := model.Timestamp(ctx.NowMicros())
	if now > ri.clock {
		ri.clock = now
	}
	ri.clock++
	return ri.clock
}

// onSubmit starts a submitted transaction. t stays the caller's: the issuer
// reads it, copies it into the transaction's state and never writes it or
// keeps it past OnMessage.
func (ri *Issuer) onSubmit(ctx engine.Context, t *model.Txn) {
	if t.Size() == 0 {
		return // nothing to do; vacuous transaction
	}
	p := t.Protocol
	if ri.choose != nil {
		p = ri.choose(t, ri.estimates)
	}
	if p == model.ROSnapshot && (t.NumWrites() > 0 || !ri.snapshotFastPath()) {
		// The fast path is read-only by construction; writers (and every
		// transaction when the path is disabled or W < N) fall back to PA,
		// the restart-free member protocol.
		p = model.PA
	}
	ri.stats.Submitted++
	now := ctx.NowMicros()
	if !ri.adm.admit(now, len(ri.active)+len(ri.roActive)) {
		// Shed at the front door: no request is ever issued, the collector
		// records the refusal, and (in closed-loop mode) the driver slot
		// frees immediately.
		ri.stats.Shed++
		ctx.Send(engine.CollectorAddr(), model.PooledTxnDone(model.TxnDoneMsg{
			Txn:                t.ID,
			Protocol:           p,
			Outcome:            model.OutcomeShed,
			ArrivalMicros:      now,
			DoneMicros:         now,
			FirstArrivalMicros: now,
			Size:               t.Size(),
			Reads:              t.NumReads(),
			Writes:             t.NumWrites(),
		}))
		ri.finished(ctx, t.ID)
		return
	}
	if p == model.ROSnapshot {
		s := reuse(&ri.freeROs)
		s.items = t.CopyInto(&s.txn, s.items)
		s.txn.Protocol = p
		ri.launchRO(ctx, s)
		return
	}
	s := reuse(&ri.freeTxns)
	s.items = t.CopyInto(&s.txn, s.items)
	s.txn.Protocol = p
	s.firstArrival = now
	ri.active[t.ID] = s
	ri.launch(ctx, s)
}

// installMap adopts m if it is newer than the issuer's current view. The
// clone matters: under the simulator every recipient shares one message
// value, and the issuer must not alias assignment slices with other actors.
func (ri *Issuer) installMap(m *model.PartitionMap) {
	if m.Epoch <= ri.pmap.Epoch {
		return
	}
	ri.pmap = m.Clone()
	ri.stats.MapUpdates++
}

// onMapUpdate installs a pushed partition map (the cluster publishes one to
// every issuer when an epoch is bumped, so routers converge without waiting
// to trip over a NAK first).
func (ri *Issuer) onMapUpdate(v model.MapUpdateMsg) {
	ri.installMap(&v.Map)
}
