package ri

import (
	"cmp"
	"fmt"
	"slices"
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
	// Quorum switches replica access from the default read-primary/write-all
	// to quorum mode: reads are requested at every copy and proceed on any R
	// grants (the issuer keeps the value with the highest commit stamp),
	// writes proceed on any W of N, and a copy that NAKs busy is excluded
	// from the attempt's quorum instead of aborting the whole attempt — the
	// attempt only restarts (as overload, through the admission controller's
	// backoff) when an item drops below quorum. Nil keeps write-all.
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
type ChooseFunc func(t *model.Txn, est model.EstimateMsg) model.Protocol

// phase is the lifecycle stage of one transaction attempt.
type phase uint8

const (
	phaseNegotiating phase = iota // requests out; collecting grant/backoff/reject
	phaseAwaitGrants              // PA finalized; awaiting fresh grants
	phaseComputing                // all locks held; local computing phase
	phaseAwaitNormal              // T/O semi-converted; awaiting normal grants
)

// copyReq tracks one physical request of the active attempt.
type copyReq struct {
	copyID model.CopyID
	// to is the queue-manager mailbox serving the copy (qmAddr).
	to      engine.Addr
	kind    model.OpKind
	granted bool
	// normal is true once a normal (non-pre-scheduled) grant or a
	// NormalGrantMsg has been received.
	normal bool
	// preSched records that the current grant was pre-scheduled.
	preSched bool
	// responded is true once this copy sent grant/backoff (PA negotiation).
	responded bool
	value     int64
	// commitMicros is the commit stamp of the granted value. Quorum mode
	// compares grants from different copies of an item by stamp — per-copy
	// version ordinals diverge under quorum writes, stamps do not.
	commitMicros int64
	// excluded drops this copy from the attempt's quorum (busy NAK, or a
	// straggler back-off after PA finalization): its request was withdrawn
	// and its responses no longer count toward any gate.
	excluded bool
}

// copyReqPool recycles per-copy attempt state: every attempt acquires one
// copyReq per physical request at launch and releases the set when the
// attempt's bookkeeping is torn down (re-launch, commit, or drop), so
// steady-state traffic allocates none. The lifetime is attempt residency —
// s.reqs/s.order hold the only references — and the poolsafe analyzer tracks
// acquireCopyReq results like pooled messages.
var copyReqPool = sync.Pool{New: func() any { return new(copyReq) }}

// acquireCopyReq returns a zeroed copyReq from the pool.
func acquireCopyReq() *copyReq {
	return copyReqPool.Get().(*copyReq)
}

// recycleCopyReq returns r to the pool. The caller must not touch r
// afterwards and must have dropped it from s.reqs/s.order first.
func recycleCopyReq(r *copyReq) {
	*r = copyReq{}
	copyReqPool.Put(r)
}

// txnState is the issuer-side state of one in-flight transaction.
type txnState struct {
	txn     *model.Txn
	attempt model.Attempt
	ts      model.Timestamp
	// expectTS filters stale PA grants: only grants stamped with expectTS
	// count after the agreed timestamp was finalized.
	expectTS model.Timestamp
	phase    phase
	reqs     map[model.CopyID]*copyReq
	// order lists the requests in deterministic (item, site) order:
	// iterating the reqs map directly would reorder network sends between
	// runs and break seed-reproducibility.
	order []*copyReq

	firstArrival  int64
	arrival       int64
	firstGrant    int64
	messages      int64
	backoffMax    model.Timestamp
	anyBackoff    bool
	finalized     bool
	backoffReads  int
	backoffWrites int
	attempts      int
	preSchedAny   bool
}

func predGranted(r *copyReq) bool   { return r.granted }
func predResponded(r *copyReq) bool { return r.responded }
func predNormal(r *copyReq) bool    { return r.normal }

// gate evaluates an attempt-progress condition. In write-all mode every
// request must satisfy pred. In quorum mode each item group needs pred on at
// least its quorum — W of the item's copies for writes, R for reads — among
// the copies not excluded from the attempt; the group's need is counted even
// when every copy is excluded, so a fully-excluded item can never pass
// vacuously.
func (ri *Issuer) gate(s *txnState, pred func(*copyReq) bool) bool {
	if ri.opts.Quorum == nil {
		for _, r := range s.reqs {
			if !pred(r) {
				return false
			}
		}
		return true
	}
	needs, got := ri.gateScratch()
	for _, r := range s.reqs {
		needs[r.copyID.Item] = ri.quorumNeed(r.kind)
		if !r.excluded && pred(r) {
			got[r.copyID.Item]++
		}
	}
	for item, need := range needs {
		if got[item] < need {
			return false
		}
	}
	return true
}

// gateScratch returns the cleared reusable need/got maps for one quorum-gate
// evaluation. Gates run under ri.mu and never nest, so two maps suffice for
// the whole issuer — quorum mode stops allocating a pair per grant event.
func (ri *Issuer) gateScratch() (needs, got map[model.ItemID]int) {
	if ri.gateNeeds == nil {
		ri.gateNeeds = map[model.ItemID]int{}
		ri.gateGot = map[model.ItemID]int{}
	}
	clear(ri.gateNeeds)
	clear(ri.gateGot)
	return ri.gateNeeds, ri.gateGot
}

// quorumNeed returns the per-item grant quorum for a request kind.
func (ri *Issuer) quorumNeed(kind model.OpKind) int {
	if kind == model.OpWrite {
		return ri.opts.Quorum.W
	}
	return ri.opts.Quorum.R
}

// quorumSatisfiable reports whether every item group can still reach its
// quorum among the copies not yet excluded. False means the attempt is
// blocked below quorum and must restart as overload.
func (ri *Issuer) quorumSatisfiable(s *txnState) bool {
	needs, left := ri.gateScratch()
	for _, r := range s.reqs {
		needs[r.copyID.Item] = ri.quorumNeed(r.kind)
		if !r.excluded {
			left[r.copyID.Item]++
		}
	}
	for item, need := range needs {
		if left[item] < need {
			return false
		}
	}
	return true
}

// roState is the issuer-side state of one in-flight read-only snapshot
// transaction: no locks, no negotiation, no restarts — just a scatter of
// snapshot reads and a gather of their replies.
type roState struct {
	txn      *model.Txn
	snapTS   int64
	arrival  int64
	pending  map[model.CopyID]bool
	messages int64
}

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

	// adm is the admission controller (nil when Options.Admission is off).
	adm *admission

	// gateNeeds/gateGot are gateScratch's reusable maps (quorum mode only);
	// guarded by mu like the rest of the issuer state.
	gateNeeds map[model.ItemID]int
	gateGot   map[model.ItemID]int
	// mailboxScratch, reqMembers and relMembers are the reusable scratch of
	// one protocol step's batches (mailboxes, sendRequests, releaseAll);
	// guarded by mu.
	mailboxScratch []engine.Addr
	reqMembers     []model.RequestMember
	relMembers     []model.ReleaseMember

	// Stats (monotone counters).
	submitted   uint64
	committed   uint64
	roCommitted uint64 // committed via the read-only snapshot fast path
	roStale     uint64 // snapshot replies served inexactly (chain GC'd past ts)
	rejects     uint64
	victims     uint64
	dropped     uint64
	shed        uint64 // arrivals refused by the admission controller
	busyNAKs    uint64 // BusyMsg NAKs received from saturated queue managers
	roBusyShed  uint64 // read-only snapshot txns shed terminally by a BusyMsg NAK
	rebackoffs  uint64 // PA back-offs received after finalization (must stay 0)
	// quorumExcluded counts copies dropped from an attempt's quorum (busy
	// NAKs and post-finalize stragglers); zero outside quorum mode.
	quorumExcluded uint64
	// wrongEpochNAKs counts WrongEpochMsg NAKs — requests that raced a
	// placement change and reached a queue manager that no longer owns the
	// copy. mapUpdates counts newer partition maps installed here (from
	// NAK piggybacks and MapUpdateMsg pushes).
	wrongEpochNAKs uint64
	mapUpdates     uint64
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

// Stats is a snapshot of issuer counters.
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
	// NAKs and post-finalize stragglers); zero outside quorum mode.
	QuorumExcluded uint64
	// WrongEpochNAKs counts WrongEpochMsg NAKs received for requests that
	// raced a placement change; MapUpdates counts newer partition maps
	// installed at this issuer (NAK piggybacks plus MapUpdateMsg pushes).
	WrongEpochNAKs, MapUpdates uint64
	Active                     int
	// Window is the admission controller's current in-flight window (0 when
	// admission control is disabled).
	Window float64
}

// Snapshot returns current counters; safe for concurrent use.
func (ri *Issuer) Snapshot() Stats {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	s := Stats{
		Submitted: ri.submitted, Committed: ri.committed, ROCommitted: ri.roCommitted,
		ROStale: ri.roStale,
		Rejects: ri.rejects, Victims: ri.victims, Dropped: ri.dropped, ReBackoffs: ri.rebackoffs,
		Shed: ri.shed, BusyNAKs: ri.busyNAKs, ROBusyShed: ri.roBusyShed,
		QuorumExcluded: ri.quorumExcluded,
		WrongEpochNAKs: ri.wrongEpochNAKs, MapUpdates: ri.mapUpdates,
		Active: len(ri.active) + len(ri.roActive),
	}
	if ri.adm != nil {
		s.Window = ri.adm.window
	}
	return s
}

// ActiveTxn describes one in-flight transaction (observability/debugging).
type ActiveTxn struct {
	ID       model.TxnID
	Protocol model.Protocol
	Attempt  model.Attempt
	Phase    string
	// Waiting lists copies that have not yet granted (or, in the
	// await-normal phase, not yet normalized).
	Waiting []model.CopyID
}

// ActiveTxns snapshots the in-flight transactions at this issuer.
func (ri *Issuer) ActiveTxns() []ActiveTxn {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	var out []ActiveTxn
	for _, s := range ri.active {
		at := ActiveTxn{
			ID:       s.txn.ID,
			Protocol: s.txn.Protocol,
			Attempt:  s.attempt,
		}
		switch s.phase {
		case phaseNegotiating:
			at.Phase = "negotiating"
		case phaseAwaitGrants:
			at.Phase = "await-grants"
		case phaseComputing:
			at.Phase = "computing"
		case phaseAwaitNormal:
			at.Phase = "await-normal"
		}
		for _, r := range s.reqs {
			if s.phase == phaseAwaitNormal {
				if !r.normal {
					at.Waiting = append(at.Waiting, r.copyID)
				}
			} else if !r.granted {
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
		ctx.Send(engine.DriverAddr(ri.site), model.TxnFinishedMsg{Txn: id})
	}
}

// FinalTimestamp reports the committed timestamp of a T/O or PA transaction.
func (ri *Issuer) FinalTimestamp(id model.TxnID) (model.Timestamp, bool) {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	ts, ok := ri.finalTS[id]
	return ts, ok
}

// OnMessage implements engine.Actor.
func (ri *Issuer) OnMessage(ctx engine.Context, from engine.Addr, msg model.Message) {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	switch v := msg.(type) {
	case model.SubmitTxnMsg:
		ri.onSubmit(ctx, v.Txn)
	case model.GrantMsg:
		ri.onGrant(ctx, v)
	case *model.GrantMsg:
		// Pooled pointer forms deref to stack copies: the pointer stays owned
		// by the delivery layer, which recycles it after OnMessage returns.
		ri.onGrant(ctx, *v)
	case model.GrantBatchMsg:
		ri.onGrantBatch(ctx, &v)
	case *model.GrantBatchMsg:
		ri.onGrantBatch(ctx, v)
	case model.SnapReadReplyMsg:
		ri.onSnapReply(ctx, v)
	case *model.SnapReadReplyMsg:
		ri.onSnapReply(ctx, *v)
	case model.NormalGrantMsg:
		ri.onNormalGrant(ctx, v)
	case *model.NormalGrantMsg:
		ri.onNormalGrant(ctx, *v)
	case model.RejectMsg:
		ri.onReject(ctx, v)
	case *model.RejectMsg:
		ri.onReject(ctx, *v)
	case model.BackoffMsg:
		ri.onBackoff(ctx, v)
	case *model.BackoffMsg:
		ri.onBackoff(ctx, *v)
	case model.VictimMsg:
		ri.onVictim(ctx, v)
	case model.BusyMsg:
		ri.onBusy(ctx, v)
	case *model.BusyMsg:
		ri.onBusy(ctx, *v)
	case model.WrongEpochMsg:
		ri.onWrongEpoch(ctx, v)
	case model.MapUpdateMsg:
		ri.onMapUpdate(v)
	case model.ComputeDoneMsg:
		ri.onComputeDone(ctx, v)
	case model.RestartMsg:
		ri.onRestart(ctx, v)
	case model.EstimateMsg:
		ri.estimates = v
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

func (ri *Issuer) onSubmit(ctx engine.Context, t *model.Txn) {
	if t.Size() == 0 {
		return // nothing to do; vacuous transaction
	}
	if ri.choose != nil {
		t.Protocol = ri.choose(t, ri.estimates)
	}
	if t.Protocol == model.ROSnapshot && (t.NumWrites() > 0 || ri.opts.DisableROFastPath) {
		// The fast path is read-only by construction; writers (and every
		// transaction when the path is disabled) fall back to PA, the
		// restart-free member protocol.
		t.Protocol = model.PA
	}
	ri.submitted++
	if ri.adm != nil {
		now := ctx.NowMicros()
		if !ri.adm.admit(now, len(ri.active)+len(ri.roActive)) {
			// Shed at the front door: no request is ever issued, the
			// collector records the refusal, and (in closed-loop mode) the
			// driver slot frees immediately.
			ri.shed++
			ctx.Send(engine.CollectorAddr(), model.TxnDoneMsg{
				Txn:                t.ID,
				Protocol:           t.Protocol,
				Outcome:            model.OutcomeShed,
				ArrivalMicros:      now,
				DoneMicros:         now,
				FirstArrivalMicros: now,
				Size:               t.Size(),
				Reads:              t.NumReads(),
				Writes:             t.NumWrites(),
			})
			ri.finished(ctx, t.ID)
			return
		}
	}
	if t.Protocol == model.ROSnapshot {
		ri.launchRO(ctx, t)
		return
	}
	s := &txnState{
		txn:          t,
		firstArrival: ctx.NowMicros(),
	}
	ri.active[t.ID] = s
	ri.launch(ctx, s)
}

// launchRO starts a read-only snapshot transaction: one SnapReadMsg per item
// to its primary copy, at a snapshot timestamp safely in the past. There is
// no negotiation and no lock: the transaction cannot be rejected, backed
// off, victimized, or restarted, and it never re-enters launch.
func (ri *Issuer) launchRO(ctx engine.Context, t *model.Txn) {
	now := ctx.NowMicros()
	snap := now - ri.opts.SnapshotStalenessMicros
	if snap < 0 {
		snap = 0
	}
	s := &roState{
		txn:     t,
		snapTS:  snap,
		arrival: now,
		pending: map[model.CopyID]bool{},
	}
	ri.roActive[t.ID] = s
	// ReadSet is sorted, so the send order is deterministic (map iteration
	// would reorder same-timestamp events between runs).
	for _, item := range t.ReadSet {
		c := model.CopyID{Item: item, Site: ri.pmap.Primary(item)}
		s.pending[c] = true
		s.messages++
		ctx.Send(ri.qmAddr(c), model.PooledSnapRead(model.SnapReadMsg{
			Txn:        t.ID,
			Copy:       c,
			SnapMicros: snap,
			Site:       ri.site,
			Epoch:      ri.pmap.Epoch,
		}))
	}
	if len(s.pending) == 0 {
		// Unreachable via onSubmit (zero-op transactions return before the
		// RO branch), but a hang here would leak a closed-loop slot forever,
		// so go straight to the compute phase defensively.
		ri.startROCompute(ctx, s)
	}
}

// startROCompute runs the local computing phase like any other transaction
// (the fast path removes queueing, not work), then finishes via
// onComputeDone.
func (ri *Issuer) startROCompute(ctx engine.Context, s *roState) {
	d := s.txn.ComputeMicros
	if d <= 0 {
		d = ri.opts.DefaultComputeMicros
	}
	ctx.SetTimer(d, model.ComputeDoneMsg{Txn: s.txn.ID})
}

func (ri *Issuer) onSnapReply(ctx engine.Context, v model.SnapReadReplyMsg) {
	s := ri.roActive[v.Txn]
	if s == nil || !s.pending[v.Copy] {
		return
	}
	delete(s.pending, v.Copy)
	if !v.Exact {
		ri.roStale++
	}
	if len(s.pending) == 0 {
		ri.startROCompute(ctx, s)
	}
}

// finishRO commits a read-only snapshot transaction.
func (ri *Issuer) finishRO(ctx engine.Context, s *roState) {
	ri.committed++
	ri.roCommitted++
	if ri.adm != nil {
		ri.adm.onCommit(ctx.NowMicros(), ctx.NowMicros()-s.arrival)
	}
	if ri.recorder != nil {
		ri.recorder.Committed(s.txn.ID, model.ROSnapshot)
	}
	now := ctx.NowMicros()
	ctx.Send(engine.CollectorAddr(), model.TxnDoneMsg{
		Txn:                s.txn.ID,
		Protocol:           model.ROSnapshot,
		Outcome:            model.OutcomeCommitted,
		ArrivalMicros:      s.arrival,
		DoneMicros:         now,
		FirstArrivalMicros: s.arrival,
		Attempts:           1,
		Size:               s.txn.Size(),
		Reads:              s.txn.NumReads(),
		Messages:           s.messages,
	})
	delete(ri.roActive, s.txn.ID)
	ri.finished(ctx, s.txn.ID)
}

// launch sends the attempt's requests to every queue manager involved:
// reads go to the primary copy, writes to every replica (read-one/write-all).
func (ri *Issuer) launch(ctx engine.Context, s *txnState) {
	t := s.txn
	s.attempts++
	s.arrival = ctx.NowMicros()
	s.phase = phaseNegotiating
	ri.releaseAttempt(s)
	s.firstGrant = 0
	s.backoffMax = 0
	s.anyBackoff = false
	s.finalized = false
	s.preSchedAny = false
	s.backoffReads = 0
	s.backoffWrites = 0

	switch t.Protocol {
	case model.TwoPL:
		s.ts = model.NoTimestamp
	default:
		s.ts = ri.nextTS(ctx)
	}
	s.expectTS = s.ts

	ri.eachCopy(t, func(item model.ItemID, site model.SiteID, kind model.OpKind) {
		c := model.CopyID{Item: item, Site: site}
		r := acquireCopyReq()
		r.copyID = c
		r.to = ri.qmAddr(c)
		r.kind = kind
		// The attempt's bookkeeping is the pool lifetime: these two stores are
		// the only references, both torn down through releaseAttempt.
		//ucclint:allow poolsafe -- attempt-scoped retention; releaseAttempt recycles every copyReq it stores before the next acquire
		s.reqs[c] = r
		//ucclint:allow poolsafe -- same attempt-scoped retention as the map store above
		s.order = append(s.order, r)
	})
	slices.SortFunc(s.order, func(a, b *copyReq) int {
		if c := cmp.Compare(a.copyID.Item, b.copyID.Item); c != 0 {
			return c
		}
		return cmp.Compare(a.copyID.Site, b.copyID.Site)
	})
	ri.sendRequests(ctx, s)
}

// sendRequests opens the attempt with one RequestBatchMsg per queue-manager
// mailbox, carrying that mailbox's copies in item order (s.order is sorted by
// (item, site)). A mailbox with one copy gets a batch of one, which travels
// as exactly the RequestMsg it stands for. s.messages counts copies, the
// unit the per-transaction message tables report.
func (ri *Issuer) sendRequests(ctx engine.Context, s *txnState) {
	for _, to := range ri.mailboxes(s) {
		members := ri.reqMembers[:0]
		for _, r := range s.order {
			if r.to == to {
				members = append(members, model.RequestMember{Item: r.copyID.Item, Kind: r.kind})
			}
		}
		ri.reqMembers = members
		s.messages += int64(len(members))
		ctx.Send(to, model.PooledRequestBatch(model.RequestBatchMsg{
			Txn:      s.txn.ID,
			Attempt:  s.attempt,
			Protocol: s.txn.Protocol,
			TS:       s.ts,
			Interval: ri.opts.PAIntervalMicros,
			Site:     ri.site,
			Epoch:    ri.pmap.Epoch,
			CopySite: to.ID,
			Members:  members,
		}))
	}
}

// mailboxes lists the distinct queue-manager mailboxes the attempt's copies
// route to, in order of first appearance in s.order. The slice is reused
// scratch, valid until the next call.
func (ri *Issuer) mailboxes(s *txnState) []engine.Addr {
	out := ri.mailboxScratch[:0]
	for _, r := range s.order {
		if !slices.Contains(out, r.to) {
			out = append(out, r.to)
		}
	}
	ri.mailboxScratch = out
	return out
}

// eachCopy calls f for every copy an attempt of t requests under the current
// map: reads go to the primary copy, writes to every replica
// (read-one/write-all).
func (ri *Issuer) eachCopy(t *model.Txn, f func(model.ItemID, model.SiteID, model.OpKind)) {
	for _, item := range t.ReadSet {
		if ri.opts.Quorum != nil {
			// Quorum reads go to every copy and proceed on any R grants: the
			// read must intersect every write quorum, and any single copy —
			// the primary included — may be dead or lagging.
			for _, site := range ri.pmap.Replicas(item) {
				f(item, site, model.OpRead)
			}
			continue
		}
		f(item, ri.pmap.Primary(item), model.OpRead)
	}
	for _, item := range t.WriteSet {
		for _, site := range ri.pmap.Replicas(item) {
			f(item, site, model.OpWrite)
		}
	}
}

func (ri *Issuer) send(ctx engine.Context, s *txnState, to engine.Addr, msg model.Message) {
	s.messages++
	ctx.Send(to, msg)
}

// releaseAttempt recycles every copyReq the attempt's bookkeeping holds and
// resets s.reqs/s.order for reuse. Called at re-launch (the new attempt
// builds a fresh set), at commit, and at the MaxAttempts drop — the three
// points after which no stale grant/NAK can resolve to a recycled copyReq
// (stateFor filters by attempt, and the terminal paths delete ri.active
// before returning to the delivery loop). The first launch creates both,
// sized for the copies the attempt is about to request, so neither regrows
// from empty under launch's appends.
func (ri *Issuer) releaseAttempt(s *txnState) {
	if s.reqs == nil {
		copies := 0
		ri.eachCopy(s.txn, func(model.ItemID, model.SiteID, model.OpKind) { copies++ })
		s.reqs = make(map[model.CopyID]*copyReq, copies)
		s.order = make([]*copyReq, 0, copies)
		return
	}
	for _, r := range s.order {
		recycleCopyReq(r)
	}
	s.order = s.order[:0]
	clear(s.reqs)
}

// stateFor returns the live state matching (txn, attempt), or nil for stale
// messages addressed to a completed or aborted attempt.
func (ri *Issuer) stateFor(id model.TxnID, attempt model.Attempt) *txnState {
	s := ri.active[id]
	if s == nil || s.attempt != attempt {
		return nil
	}
	return s
}

func (ri *Issuer) onGrant(ctx engine.Context, v model.GrantMsg) {
	if s := ri.stateFor(v.Txn, v.Attempt); s != nil && ri.applyGrant(ctx, s, v) {
		ri.advance(ctx, s)
	}
}

// onGrantBatch applies every member of a grant batch, then advances the
// attempt once: the batch is its members, and the attempt's gates see them
// together.
func (ri *Issuer) onGrantBatch(ctx engine.Context, b *model.GrantBatchMsg) {
	s := ri.stateFor(b.Txn, b.Attempt)
	if s == nil {
		return
	}
	applied := false
	for i := range b.Members {
		if ri.applyGrant(ctx, s, b.Grant(i)) {
			applied = true
		}
	}
	if applied {
		ri.advance(ctx, s)
	}
}

// applyGrant records one copy's grant on the live attempt s, reporting
// whether it counted (stale, withdrawn and duplicate grants do not).
func (ri *Issuer) applyGrant(ctx engine.Context, s *txnState, v model.GrantMsg) bool {
	if s.txn.Protocol == model.PA && s.finalized && v.TS != s.expectTS {
		return false // stale provisional grant, revoked at the QM
	}
	r := s.reqs[v.Copy]
	if r == nil || r.excluded || (r.granted && r.normal) {
		return false
	}
	if s.firstGrant == 0 {
		s.firstGrant = ctx.NowMicros()
	}
	r.granted = true
	r.responded = true
	r.preSched = v.PreScheduled
	r.normal = !v.PreScheduled
	r.value = v.Value
	r.commitMicros = v.CommitMicros
	if v.PreScheduled {
		s.preSchedAny = true
	}
	return true
}

func (ri *Issuer) onNormalGrant(ctx engine.Context, v model.NormalGrantMsg) {
	s := ri.stateFor(v.Txn, v.Attempt)
	if s == nil {
		return
	}
	if r := s.reqs[v.Copy]; r != nil && !r.excluded {
		r.normal = true
	}
	if s.phase == phaseAwaitNormal && ri.gate(s, predNormal) {
		ri.releaseAll(ctx, s, false)
		ri.finish(ctx, s)
	}
}

// advance checks whether the attempt can move to its next phase.
func (ri *Issuer) advance(ctx engine.Context, s *txnState) {
	switch s.phase {
	case phaseNegotiating:
		if s.txn.Protocol == model.PA && s.anyBackoff {
			// §3.4 step 1(c)-(e): wait for grant-or-backoff from every
			// queue, then agree on TS' = max TS'_ij and broadcast it.
			if ri.gate(s, predResponded) && !s.finalized {
				ri.finalizePA(ctx, s)
			}
			return
		}
		if ri.gate(s, predGranted) {
			ri.startCompute(ctx, s)
		}
	case phaseAwaitGrants:
		if ri.gate(s, predGranted) {
			ri.startCompute(ctx, s)
		}
	}
}

// finalizePA broadcasts the agreed timestamp and discards provisional grants
// (the QMs revoke them on re-insertion, per §3.4 step 2(d)).
func (ri *Issuer) finalizePA(ctx engine.Context, s *txnState) {
	s.finalized = true
	final := s.backoffMax
	if final <= s.ts {
		final = s.ts + 1
	}
	s.expectTS = final
	if final > ri.clock {
		ri.clock = final
	}
	for _, r := range s.order {
		if r.excluded {
			continue // withdrawn from the quorum; its entry is already gone
		}
		r.granted = false
		r.normal = false
		r.preSched = false
		ri.send(ctx, s, r.to, model.PooledFinalTS(model.FinalTSMsg{
			Txn: s.txn.ID, Attempt: s.attempt, Copy: r.copyID, TS: final,
		}))
	}
	s.phase = phaseAwaitGrants
}

func (ri *Issuer) onBackoff(ctx engine.Context, v model.BackoffMsg) {
	s := ri.stateFor(v.Txn, v.Attempt)
	if s == nil {
		return
	}
	r := s.reqs[v.Copy]
	if r == nil || r.excluded {
		return
	}
	if s.finalized {
		if ri.opts.Quorum != nil {
			// Quorum finalization waits for W responses, not N, so a
			// straggler backing off at the provisional timestamp after the
			// agreed one was broadcast is expected, not a Lemma 1 violation.
			// The straggler leaves the quorum; only dropping an item below
			// quorum restarts the attempt (overload semantics, like a busy
			// NAK).
			ri.excludeCopy(ctx, s, r)
			if !ri.quorumSatisfiable(s) {
				if ri.adm != nil {
					ri.adm.onBusy(ctx.NowMicros())
				}
				ri.reportAttempt(ctx, s, model.OutcomeBusy, r.kind)
				ri.abortAttempt(ctx, s, withdrawNone)
				ri.scheduleRestart(ctx, s)
			}
			return
		}
		// Lemma 1 guarantees at most one back-off per transaction; count
		// any violation (tests assert zero) but recover by re-finalizing.
		ri.rebackoffs++
		s.finalized = false
		s.phase = phaseNegotiating
	}
	r.responded = true
	r.granted = false
	s.anyBackoff = true
	if v.NewTS > s.backoffMax {
		s.backoffMax = v.NewTS
	}
	if r.kind == model.OpRead {
		s.backoffReads++
	} else {
		s.backoffWrites++
	}
	ri.advance(ctx, s)
}

func (ri *Issuer) onReject(ctx engine.Context, v model.RejectMsg) {
	s := ri.stateFor(v.Txn, v.Attempt)
	if s == nil || s.txn.Protocol != model.TO {
		return
	}
	if s.phase == phaseComputing || s.phase == phaseAwaitNormal {
		return // already executing; rejection cannot occur past full grant
	}
	ri.rejects++
	if v.Threshold >= ri.clock {
		ri.clock = v.Threshold + 1
	}
	var kind model.OpKind
	if r := s.reqs[v.Copy]; r != nil {
		kind = r.kind
	}
	ri.reportAttempt(ctx, s, model.OutcomeRejected, kind)
	ri.abortAttempt(ctx, s, v.Copy)
	ri.scheduleRestart(ctx, s)
}

func (ri *Issuer) onVictim(ctx engine.Context, v model.VictimMsg) {
	s := ri.stateFor(v.Txn, v.Attempt)
	if s == nil || s.txn.Protocol != model.TwoPL {
		return
	}
	if s.phase == phaseComputing || s.phase == phaseAwaitNormal {
		return // already past lock acquisition; let it finish
	}
	ri.victims++
	ri.reportAttempt(ctx, s, model.OutcomeDeadlockVictim, model.OpRead)
	ri.abortAttempt(ctx, s, withdrawNone)
	ri.scheduleRestart(ctx, s)
}

// onBusy handles a congestion NAK: the request was refused — by a saturated
// queue manager (full mailbox or data queue), or by the local transport
// (send-queue eviction or a batch dropped on an unreachable peer). Read-
// write attempts abort and restart under exponential backoff; read-only
// snapshot transactions are shed outright (the fast path has no restart
// machinery by design — the client retries). Either way the admission
// window shrinks: BusyMsg is the remote half of the AIMD feedback loop. The
// window decrease is applied only after the NAK proves to target a live
// attempt — reconnect-retried batches and dropped-batch NAKs can duplicate
// BusyMsgs for attempts already aborted and restarted, and a phantom NAK
// must not cut the window for traffic that no longer exists.
func (ri *Issuer) onBusy(ctx engine.Context, v model.BusyMsg) {
	now := ctx.NowMicros()
	if ro := ri.roActive[v.Txn]; ro != nil && ro.pending[v.Copy] {
		if ri.adm != nil {
			ri.adm.onBusy(now)
		}
		ri.busyNAKs++
		ri.roBusyShed++
		delete(ri.roActive, v.Txn)
		ctx.Send(engine.CollectorAddr(), model.TxnDoneMsg{
			Txn:                v.Txn,
			Protocol:           model.ROSnapshot,
			Outcome:            model.OutcomeBusy,
			ArrivalMicros:      ro.arrival,
			DoneMicros:         now,
			FirstArrivalMicros: ro.arrival,
			Attempts:           1,
			Size:               ro.txn.Size(),
			Reads:              ro.txn.NumReads(),
			Messages:           ro.messages,
		})
		ri.finished(ctx, v.Txn)
		return
	}
	s := ri.stateFor(v.Txn, v.Attempt)
	if s == nil {
		return
	}
	if s.phase == phaseComputing || s.phase == phaseAwaitNormal {
		return // already executing; a NAK cannot reach here (defensive)
	}
	if ri.adm != nil {
		ri.adm.onBusy(now)
	}
	ri.busyNAKs++
	if ri.opts.Quorum != nil {
		r := s.reqs[v.Copy]
		if r == nil || r.excluded {
			return // duplicate NAK for a copy already withdrawn
		}
		ri.excludeCopy(ctx, s, r)
		if ri.quorumSatisfiable(s) {
			// The quorum absorbs one busy copy: the attempt keeps waiting on
			// the remaining members instead of restarting. The admission
			// window still shrank above — congestion at any member is real
			// AIMD feedback even when this attempt survives it.
			return
		}
		// Below quorum: fall through to the overload restart.
	}
	var kind model.OpKind
	if r := s.reqs[v.Copy]; r != nil {
		kind = r.kind
	}
	ri.reportAttempt(ctx, s, model.OutcomeBusy, kind)
	// Withdraw EVERY request, including the NAK'd copy: a transport-
	// synthesized NAK (eviction, dropped batch) cannot know whether the
	// request reached the queue manager — a partially-received batch may
	// have left a resident entry that nothing else would ever retire if
	// this was the transaction's final attempt (MaxAttempts). A genuine QM
	// NAK queued nothing, and the QM treats an abort for an entry it never
	// held as a no-op, so the extra message is harmless there.
	ri.abortAttempt(ctx, s, withdrawNone)
	ri.scheduleRestart(ctx, s)
}

// installMap adopts m if it is newer than the issuer's current view. The
// clone matters: under the simulator every recipient shares one message
// value, and the issuer must not alias assignment slices with other actors.
func (ri *Issuer) installMap(m *model.PartitionMap) {
	if m.Epoch <= ri.pmap.Epoch {
		return
	}
	ri.pmap = m.Clone()
	ri.mapUpdates++
}

// onWrongEpoch handles a placement NAK: the request raced a partition-map
// change and reached a queue manager that no longer owns the addressed copy.
// The NAK piggybacks the authoritative map, so the issuer installs it and
// restarts the attempt against the new placement. Unlike a busy NAK this is
// not congestion feedback — the admission window is left alone: the cluster
// has capacity, the router was merely stale. Read-only snapshot transactions
// are shed terminally, exactly as under onBusy — the fast path has no
// restart machinery, the client retries against the (now corrected) map.
func (ri *Issuer) onWrongEpoch(ctx engine.Context, v model.WrongEpochMsg) {
	ri.installMap(&v.Map)
	now := ctx.NowMicros()
	if ro := ri.roActive[v.Txn]; ro != nil && ro.pending[v.Copy] {
		ri.wrongEpochNAKs++
		delete(ri.roActive, v.Txn)
		ctx.Send(engine.CollectorAddr(), model.TxnDoneMsg{
			Txn:                v.Txn,
			Protocol:           model.ROSnapshot,
			Outcome:            model.OutcomeBusy,
			ArrivalMicros:      ro.arrival,
			DoneMicros:         now,
			FirstArrivalMicros: ro.arrival,
			Attempts:           1,
			Size:               ro.txn.Size(),
			Reads:              ro.txn.NumReads(),
			Messages:           ro.messages,
		})
		ri.finished(ctx, v.Txn)
		return
	}
	s := ri.stateFor(v.Txn, v.Attempt)
	if s == nil {
		return // stale NAK for an attempt already finished or restarted
	}
	if s.phase == phaseComputing || s.phase == phaseAwaitNormal {
		// Every needed grant arrived before the flip: the old owner admitted
		// this attempt as a resident and will serve its releases through the
		// drain, so let it finish rather than waste the held locks.
		return
	}
	ri.wrongEpochNAKs++
	var kind model.OpKind
	if r := s.reqs[v.Copy]; r != nil {
		kind = r.kind
	}
	ri.reportAttempt(ctx, s, model.OutcomeBusy, kind)
	// Withdraw every request: entries parked at still-owned copies must not
	// outlive the attempt, and the old owner treats an abort for an entry it
	// never held (or already NAK'd) as a no-op.
	ri.abortAttempt(ctx, s, withdrawNone)
	ri.scheduleRestart(ctx, s)
}

// onMapUpdate installs a pushed partition map (the cluster publishes one to
// every issuer when an epoch is bumped, so routers converge without waiting
// to trip over a NAK first).
func (ri *Issuer) onMapUpdate(v model.MapUpdateMsg) {
	ri.installMap(&v.Map)
}

// excludeCopy drops one copy from the attempt's quorum and withdraws its
// request: any entry it holds is retired so it cannot block other
// transactions, and none of its past or future responses count toward a
// gate. The copy converges later via log shipping.
func (ri *Issuer) excludeCopy(ctx engine.Context, s *txnState, r *copyReq) {
	r.excluded = true
	ri.quorumExcluded++
	ri.send(ctx, s, r.to, model.PooledAbort(model.AbortMsg{
		Txn: s.txn.ID, Attempt: s.attempt, Copy: r.copyID,
	}))
}

// withdrawNone is abortAttempt's skip sentinel meaning "withdraw every
// copy": Item -1 can never name a real copy (item ids are non-negative).
var withdrawNone = model.CopyID{Item: -1}

// abortAttempt withdraws every outstanding request except skip (the copy
// that rejected us holds no entry); pass withdrawNone to withdraw all.
func (ri *Issuer) abortAttempt(ctx engine.Context, s *txnState, skip model.CopyID) {
	for _, r := range s.order {
		if r.copyID == skip {
			continue
		}
		ri.send(ctx, s, r.to, model.PooledAbort(model.AbortMsg{
			Txn: s.txn.ID, Attempt: s.attempt, Copy: r.copyID,
		}))
	}
}

// defaultRestartCapFactor sizes the exponential-backoff cap when
// RestartDelayCapMicros is unset: 32× the base delay (5 doublings).
const defaultRestartCapFactor = 32

// rawRestartDelay returns the pre-jitter restart delay after `attempts`
// failed attempts: exponential from RestartDelayMicros, capped. A flat delay
// is the restart-storm bug — under contention every loser of a round returns
// after the same mean delay and the round re-collides indefinitely; doubling
// per failure spreads the retries over an ever-wider horizon until the
// conflict drains.
func (ri *Issuer) rawRestartDelay(attempts int) int64 {
	base := ri.opts.RestartDelayMicros
	if base <= 0 {
		return 0
	}
	cap := ri.opts.RestartDelayCapMicros
	if cap <= 0 {
		cap = defaultRestartCapFactor * base
	}
	delay := base
	for i := 1; i < attempts && delay < cap; i++ {
		delay *= 2
	}
	if delay > cap {
		delay = cap
	}
	return delay
}

func (ri *Issuer) scheduleRestart(ctx engine.Context, s *txnState) {
	if ri.opts.MaxAttempts > 0 && s.attempts >= ri.opts.MaxAttempts {
		ri.dropped++
		delete(ri.active, s.txn.ID)
		ri.releaseAttempt(s)
		ri.finished(ctx, s.txn.ID)
		return
	}
	s.attempt++
	delay := ri.rawRestartDelay(s.attempts)
	if delay > 0 {
		delay = delay/2 + ctx.Rand().Int63n(delay) // ±50% jitter, kept from the flat scheme
	}
	ctx.SetTimer(delay, model.RestartMsg{Txn: s.txn.ID, Attempt: s.attempt})
}

func (ri *Issuer) onRestart(ctx engine.Context, v model.RestartMsg) {
	s := ri.stateFor(v.Txn, v.Attempt)
	if s == nil {
		return
	}
	if ri.opts.SwitchOnRestart != nil {
		s.txn.Protocol = ri.opts.SwitchOnRestart(s.txn.Protocol, s.attempts)
	}
	ri.launch(ctx, s)
}

func (ri *Issuer) startCompute(ctx engine.Context, s *txnState) {
	s.phase = phaseComputing
	d := s.txn.ComputeMicros
	if d <= 0 {
		d = ri.opts.DefaultComputeMicros
	}
	ctx.SetTimer(d, model.ComputeDoneMsg{Txn: s.txn.ID, Attempt: s.attempt})
}

func (ri *Issuer) onComputeDone(ctx engine.Context, v model.ComputeDoneMsg) {
	if ro := ri.roActive[v.Txn]; ro != nil {
		if len(ro.pending) == 0 {
			ri.finishRO(ctx, ro)
		}
		return
	}
	s := ri.stateFor(v.Txn, v.Attempt)
	if s == nil || s.phase != phaseComputing {
		return
	}
	if s.txn.Protocol == model.TO && s.preSchedAny {
		// §4.2 rule 4: convert all locks to semi-locks; the transaction is
		// executed now, but releases wait for one normal grant per item.
		ri.releaseAll(ctx, s, true)
		if ri.gate(s, predNormal) {
			ri.releaseAll(ctx, s, false)
			ri.finish(ctx, s)
			return
		}
		s.phase = phaseAwaitNormal
		ri.markExecuted(ctx, s)
		return
	}
	ri.releaseAll(ctx, s, false)
	ri.finish(ctx, s)
}

// writeValue evaluates the write-phase value for item from the attempt's
// collected pre-images (default: pre-image + 1).
func (ri *Issuer) writeValue(s *txnState, item model.ItemID) int64 {
	pre := func(it model.ItemID) int64 {
		if ri.opts.Quorum != nil {
			// The freshest granted copy wins: quorum intersection guarantees
			// at least one member of any R- or W-sized grant set carries the
			// newest committed write, and the commit stamp identifies it.
			var best *copyReq
			for _, r := range s.order {
				if r.copyID.Item != it || r.excluded || !r.granted {
					continue
				}
				if best == nil || r.commitMicros > best.commitMicros {
					best = r
				}
			}
			if best != nil {
				return best.value
			}
			return 0
		}
		// Prefer the primary copy's value.
		if r, ok := s.reqs[model.CopyID{Item: it, Site: ri.pmap.Primary(it)}]; ok {
			return r.value
		}
		for _, r := range s.order {
			if r.copyID.Item == it {
				return r.value
			}
		}
		return 0
	}
	if spec, ok := s.txn.SpecFor(item); ok {
		if spec.UseSource {
			return pre(spec.Source) + spec.AddConst
		}
		return spec.AddConst
	}
	return pre(item) + 1
}

// releaseAll sends the write-phase releases, one ReleaseBatchMsg per
// queue-manager mailbox (see sendRequests). toSemi selects the semi-lock
// conversion round; the final round (toSemi=false) after a conversion does
// not resend values (writes were implemented at conversion). Every release
// of the round carries the same CommitMicros stamp — the transaction's
// single commit point, which versions the writes for snapshot reads.
func (ri *Issuer) releaseAll(ctx engine.Context, s *txnState, toSemi bool) {
	converted := s.phase == phaseAwaitNormal || (s.txn.Protocol == model.TO && s.preSchedAny && !toSemi)
	commit := ctx.NowMicros()
	for _, to := range ri.mailboxes(s) {
		members := ri.relMembers[:0]
		for _, r := range s.order {
			if r.to != to {
				continue
			}
			if ri.opts.Quorum != nil {
				if s.reqs[r.copyID] != r {
					continue // superseded by the write request for the same copy
				}
				if r.excluded {
					continue // already withdrawn from the quorum
				}
				if !r.granted {
					// Outside the quorum that carried the commit: withdraw the
					// pending request instead of releasing a grant that never
					// came. The copy converges through log shipping, never
					// through a write it did not accept.
					ri.send(ctx, s, r.to, model.PooledAbort(model.AbortMsg{
						Txn: s.txn.ID, Attempt: s.attempt, Copy: r.copyID,
					}))
					continue
				}
			}
			m := model.ReleaseMember{Item: r.copyID.Item}
			if r.kind == model.OpWrite && !converted {
				m.HasWrite = true
				m.Value = ri.writeValue(s, r.copyID.Item)
			}
			members = append(members, m)
		}
		ri.relMembers = members
		if len(members) == 0 {
			continue
		}
		s.messages += int64(len(members))
		ctx.Send(to, model.PooledReleaseBatch(model.ReleaseBatchMsg{
			Txn: s.txn.ID, Attempt: s.attempt, CopySite: to.ID,
			ToSemi: toSemi, CommitMicros: commit, Members: members,
		}))
	}
}

// markExecuted reports commit metrics at the execution point (§4.3: a
// semi-converted T/O transaction "is considered executed" at conversion).
func (ri *Issuer) markExecuted(ctx engine.Context, s *txnState) {
	ri.committed++
	if ri.adm != nil {
		ri.adm.onCommit(ctx.NowMicros(), ctx.NowMicros()-s.firstArrival)
	}
	if ri.recorder != nil {
		ri.recorder.Committed(s.txn.ID, s.txn.Protocol)
	}
	ri.recordFinalTS(s)
	ri.reportAttempt(ctx, s, model.OutcomeCommitted, model.OpRead)
}

// recordFinalTS feeds the timestamp-order oracle (see finalTS).
func (ri *Issuer) recordFinalTS(s *txnState) {
	if ri.recorder != nil && s.txn.Protocol != model.TwoPL {
		ri.finalTS[s.txn.ID] = s.expectTS
	}
}

// finish completes a transaction whose releases have all been sent.
func (ri *Issuer) finish(ctx engine.Context, s *txnState) {
	if s.phase != phaseAwaitNormal {
		// Not already reported by markExecuted.
		ri.committed++
		if ri.adm != nil {
			ri.adm.onCommit(ctx.NowMicros(), ctx.NowMicros()-s.firstArrival)
		}
		if ri.recorder != nil {
			ri.recorder.Committed(s.txn.ID, s.txn.Protocol)
		}
		ri.recordFinalTS(s)
		ri.reportAttempt(ctx, s, model.OutcomeCommitted, model.OpRead)
	}
	delete(ri.active, s.txn.ID)
	ri.releaseAttempt(s)
	ri.finished(ctx, s.txn.ID)
}

// reportAttempt emits a TxnDoneMsg for this attempt's terminal event.
func (ri *Issuer) reportAttempt(ctx engine.Context, s *txnState, outcome model.TxnOutcome, rejectKind model.OpKind) {
	now := ctx.NowMicros()
	locked := int64(0)
	if s.firstGrant > 0 {
		locked = now - s.firstGrant
	}
	ctx.Send(engine.CollectorAddr(), model.TxnDoneMsg{
		Txn:                s.txn.ID,
		Protocol:           s.txn.Protocol,
		Outcome:            outcome,
		ArrivalMicros:      s.arrival,
		DoneMicros:         now,
		FirstArrivalMicros: s.firstArrival,
		Attempts:           s.attempts,
		Size:               s.txn.Size(),
		Reads:              s.txn.NumReads(),
		Writes:             s.txn.NumWrites(),
		Messages:           s.messages,
		RejectKind:         rejectKind,
		BackoffReads:       s.backoffReads,
		BackoffWrites:      s.backoffWrites,
		LockedMicros:       locked,
	})
}
