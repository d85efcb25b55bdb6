package qm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ucc/internal/engine"
	"ucc/internal/history"
	"ucc/internal/model"
	"ucc/internal/repl"
	"ucc/internal/storage"
)

// Options configure a queue-manager site.
type Options struct {
	// Shards partitions the site's queue manager into this many independent
	// shards (hash of data item → shard, model.ShardOfItem). Each shard owns
	// its slice of the queue tables, its own lock state, and its own
	// group-commit batch, and is addressable as its own actor
	// (engine.QMShardAddr) — so on the real-time runtime, conflict-free
	// operations at one site execute in parallel. Zero or one keeps the
	// pre-sharding single-partition behaviour.
	Shards int
	// DisableSemiLocks falls back from the §4.2 semi-lock enforcement (the
	// paper's contribution, the zero-value default) to the simpler "lock
	// everything" unified enforcement (ablation ABL-1). Inverted so the
	// zero value of Options selects the paper's protocol.
	DisableSemiLocks bool
	// StatsPeriodMicros, when positive, makes the manager push cumulative
	// per-item grant counters to the collector on this period.
	StatsPeriodMicros int64
	// MaxQueueDepth bounds every per-item data queue: a RequestMsg arriving
	// when the item's queue already holds this many entries is NAK'd with
	// model.BusyMsg instead of admitted, so past saturation the queues stop
	// growing and the issuers' admission controllers see the congestion
	// signal. Zero (the default) keeps queues unbounded, the paper's model.
	// Re-requests by transactions already resident (PA re-insertion, attempt
	// replacement) are never NAK'd — they do not grow the queue.
	MaxQueueDepth int
	// GroupCommitMicros, with a Durable attached, is how long a shard waits
	// after journaling a write before the WAL sync that covers it. The
	// write-ahead rule holds at every value: a write parks its item's queue
	// when journaled, and no grant, promotion or snapshot reply carrying or
	// ordered after it leaves the shard until the sync has returned — a
	// crash can only lose writes nobody observed through this site. Zero
	// (the default) syncs as soon as the shard has drained what is already
	// in its mailbox, so every release queued behind the first shares that
	// sync; a positive window holds the exposure longer to batch harder.
	// Each shard parks and flushes its own queues; the per-site commit
	// sequencer coalesces the shards' syncs.
	GroupCommitMicros int64
	// InitialValue seeds copies this site gains at a map install before
	// their transfer stream arrives (matching cluster.Config.InitialValue,
	// so an item the old owner never wrote transfers as a no-op).
	InitialValue int64
}

// DefaultOptions returns the production configuration.
func DefaultOptions() Options {
	return Options{}
}

// Counters aggregate one site's protocol events (monotone).
type Counters struct {
	Requests   uint64
	Grants     uint64
	PreGrants  uint64 // pre-scheduled grants issued
	Promotions uint64 // pre-scheduled → normal transitions
	Rejects    uint64 // T/O rejections
	Backoffs   uint64 // PA back-offs
	Revokes    uint64 // provisional PA grants revoked at final-timestamp
	Releases   uint64
	Conversion uint64 // lock → semi-lock conversions
	Aborts     uint64
	SnapReads  uint64 // read-only snapshot reads served (queue bypassed)
	SnapStale  uint64 // snapshot reads served inexactly (chain GC'd past ts)
	Busy       uint64 // requests NAK'd because the item's queue was at MaxQueueDepth
	WALSyncs   uint64 // durable flushes of the site's write-ahead log
	Commits    uint64 // commit-sequencer passes (≥ WALSyncs; the gap is batching)
	Crashes    uint64 // injected site crashes
	Recoveries uint64 // completed crash recoveries
	Deferred   uint64 // messages queued while the site was down

	// Log-shipping catch-up (internal/repl; zero unless quorum replication
	// is configured).
	ReplPulls   uint64 // pulls served to peers from this site's durable log
	ReplApplied uint64 // shipped records this site installed during catch-up
	// ReplSkipped counts shipped records this site skipped as stale or
	// duplicate (idempotence). A record a peer withheld because it knew
	// this site held it never arrives, and is not counted.
	ReplSkipped uint64
	// ReplResets counts snapshot-image resets taken: this site's mark lay
	// below both the peer's in-memory tail and its log (after a crash, a
	// restart, or falling far behind).
	ReplResets uint64

	// Versioned placement / online rebalance.
	WrongEpoch      uint64 // operations NAK'd because the installed map disowns the copy
	MapInstalls     uint64 // newer partition maps installed
	ItemsGained     uint64 // copies created at map installs (awaiting or skipping transfer)
	TransferPulls   uint64 // transfer pulls served to new owners
	TransferApplied uint64 // transfer records installed (stamp-gated, like ReplApplied)
	TransferBytes   uint64 // transfer frame bytes received
}

// Durable is the durability subsystem a manager drives (internal/wal's
// SiteLog): Flush makes every journaled write durable; Crash and Recover
// implement simulated fault injection. The manager journals nothing itself —
// the store's Journal hook does — it only decides when to sync and how a
// crashed site behaves.
type Durable interface {
	Flush() error
	Crash()
	Recover() error
}

// Manager is the queue-manager host for one data site. It owns the site's
// store and partitions the site's per-copy data queues across Shards
// independent shards; each shard speaks the unified concurrency control
// protocol for the items hashed to it and may be registered at its own
// engine address (engine.QMShardAddr) for a private mailbox.
//
// The manager itself holds only the site-wide concerns the shards must not
// split: the commit sequencer (one atomic site-wide sync point), crash and
// recovery (a site fails as a unit), deadlock probes (the detector wants one
// report per site), and the stats tick.
type Manager struct {
	site     model.SiteID
	store    *storage.Store
	recorder *history.Recorder
	opts     Options
	shards   []*shard

	// Durability state (nil dur = volatile site, the pre-WAL behaviour).
	// Set once via SetDurable before traffic flows.
	dur Durable
	seq *commitSequencer
	// groupCommitMicros is the live value of Options.GroupCommitMicros
	// (SetGroupCommitMicros changes it while shards read it).
	groupCommitMicros atomic.Int64

	// Control plane: crash/recovery and the stats tick serialize here so
	// they cannot interleave; the per-item fast path never touches ctlMu.
	ctlMu        sync.Mutex
	statsStopped bool
	pendingTick  bool // a stats tick arrived during an outage

	// Log-shipping catch-up plane (internal/repl), set once via
	// SetReplication before traffic flows; nil puller = no quorum catch-up.
	// The puller tracks per-peer watermarks, replSrc serves peers' pulls
	// from this site's durable log, known is what each pulling peer is
	// believed to hold already. All are guarded by ctlMu.
	puller      *repl.Puller
	replSrc     repl.Source
	known       repl.Known
	replStopped bool

	// Versioned placement. pmap is read lock-free on the request fast path
	// (atomic pointer; nil = legacy mode, ownership is queue existence) and
	// replaced only inside onMapInstall's site-wide critical section. The
	// transfer sessions and their retry timer are control-plane state under
	// ctlMu like the puller.
	pmap              atomic.Pointer[model.PartitionMap]
	sessions          []*transferSession
	transferTickArmed bool
}

// pendingMsg is a message that arrived at a shard while the site was down;
// it is processed in arrival order at recovery.
type pendingMsg struct {
	from engine.Addr
	msg  model.Message
}

// New creates the manager for a site. Every item already present in store
// gets a data queue in the shard it hashes to; recorder may be nil to skip
// history recording.
func New(site model.SiteID, store *storage.Store, recorder *history.Recorder, opts Options) *Manager {
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	m := &Manager{
		site:     site,
		store:    store,
		recorder: recorder,
		opts:     opts,
	}
	m.groupCommitMicros.Store(opts.GroupCommitMicros)
	m.shards = make([]*shard, opts.Shards)
	for i := range m.shards {
		m.shards[i] = &shard{
			m:        m,
			idx:      i,
			flushMsg: model.FlushMsg{Shard: int32(i)},
			queues:   map[model.ItemID]*dataQueue{},
			pending:  map[model.ItemID]bool{},
			retiring: map[model.ItemID]bool{},
		}
	}
	for _, item := range store.Items() {
		sh := m.shards[model.ShardOfItem(item, opts.Shards)]
		sh.queues[item] = newDataQueue(model.CopyID{Item: item, Site: site}, !opts.DisableSemiLocks)
	}
	return m
}

// Site returns the manager's site id.
func (m *Manager) Site() model.SiteID { return m.site }

// NumShards returns the shard count (≥1). The cluster registers the manager
// at engine.QMShardAddr(site, 0..NumShards-1); on the real-time runtime each
// address gets its own mailbox goroutine, which is where the parallelism
// comes from.
func (m *Manager) NumShards() int { return len(m.shards) }

// SetDurable attaches the durability subsystem and builds the per-site
// commit sequencer the shards drain through. Call before the engine starts
// delivering messages. The store's Journal hook must be attached separately
// (storage.Store.SetJournal) — the manager only schedules syncs and drives
// crash/recovery.
func (m *Manager) SetDurable(d Durable) {
	m.dur = d
	m.seq = newCommitSequencer(d.Flush)
}

// SetGroupCommitMicros changes the group-commit window at runtime — the
// slow-disk fault hook: a degraded disk is modeled as forced sync batching
// (a wide window amortizes many writes per sync; the writes stay parked,
// unexposed, for that long). Safe while traffic flows on either engine: the
// new window governs the next FlushMsg a shard arms.
func (m *Manager) SetGroupCommitMicros(window int64) {
	if window < 0 {
		window = 0
	}
	m.groupCommitMicros.Store(window)
}

// Down reports whether the site is currently crashed (tests).
func (m *Manager) Down() bool {
	sh := m.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.down
}

// Snapshot returns the current counter values aggregated across shards.
// Safe to call concurrently with message handling.
func (m *Manager) Snapshot() Counters {
	var t Counters
	for _, sh := range m.shards {
		sh.mu.Lock()
		c := sh.counters
		sh.mu.Unlock()
		t.Requests += c.Requests
		t.Grants += c.Grants
		t.PreGrants += c.PreGrants
		t.Promotions += c.Promotions
		t.Rejects += c.Rejects
		t.Backoffs += c.Backoffs
		t.Revokes += c.Revokes
		t.Releases += c.Releases
		t.Conversion += c.Conversion
		t.Aborts += c.Aborts
		t.SnapReads += c.SnapReads
		t.SnapStale += c.SnapStale
		t.Busy += c.Busy
		t.Crashes += c.Crashes
		t.Recoveries += c.Recoveries
		t.Deferred += c.Deferred
		t.ReplPulls += c.ReplPulls
		t.ReplApplied += c.ReplApplied
		t.ReplSkipped += c.ReplSkipped
		t.ReplResets += c.ReplResets
		t.WrongEpoch += c.WrongEpoch
		t.MapInstalls += c.MapInstalls
		t.ItemsGained += c.ItemsGained
		t.TransferPulls += c.TransferPulls
		t.TransferApplied += c.TransferApplied
		t.TransferBytes += c.TransferBytes
	}
	if m.seq != nil {
		t.Commits, t.WALSyncs = m.seq.stats()
	}
	return t
}

// shardFor returns the shard owning item's queue.
func (m *Manager) shardFor(item model.ItemID) *shard {
	return m.shards[model.ShardOfItem(item, len(m.shards))]
}

// queueOf returns item's data queue (tests).
func (m *Manager) queueOf(item model.ItemID) *dataQueue {
	return m.shardFor(item).queues[item]
}

// DumpQueue renders item's queue for debugging: one line per entry in
// precedence order.
func (m *Manager) DumpQueue(item model.ItemID) []string {
	sh := m.shardFor(item)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	q := sh.queues[item]
	if q == nil {
		return nil
	}
	out := make([]string, 0, len(q.entries))
	for _, e := range q.entries {
		out = append(out, e.String())
	}
	return out
}

// DepthHighWater returns the deepest any data queue at this site has ever
// been. With MaxQueueDepth configured it never exceeds that bound — the
// assertion EXP-12 makes after an overload run.
func (m *Manager) DepthHighWater() int {
	high := 0
	for _, sh := range m.shards {
		sh.mu.Lock()
		if sh.depthHigh > high {
			high = sh.depthHigh
		}
		sh.mu.Unlock()
	}
	return high
}

// QueueDepth returns the number of resident entries for item (tests).
func (m *Manager) QueueDepth(item model.ItemID) int {
	sh := m.shardFor(item)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	q := sh.queues[item]
	if q == nil {
		return 0
	}
	return len(q.entries)
}

// OnMessage implements engine.Actor. Item-bearing messages route to the
// owning shard (the same routing the issuers use to pick a shard mailbox, so
// a message is handled by the shard it was addressed to); site-wide control
// messages — crash, recovery, deadlock probes, the stats tick — are handled
// at the manager. The manager may be registered at every shard address: the
// routing is by content, not by mailbox, so delivery stays correct whether
// the site runs one mailbox (simulator) or one per shard (runtime).
func (m *Manager) OnMessage(ctx engine.Context, from engine.Addr, msg model.Message) {
	switch v := msg.(type) {
	case model.RequestMsg:
		m.shardFor(v.Copy.Item).onMessage(ctx, from, msg)
	case *model.RequestMsg:
		m.shardFor(v.Copy.Item).onMessage(ctx, from, msg)
	case model.RequestBatchMsg, *model.RequestBatchMsg, model.ReleaseBatchMsg, *model.ReleaseBatchMsg:
		m.routeBatch(ctx, from, msg.(memberBatch))
	case model.FinalTSMsg:
		m.shardFor(v.Copy.Item).onMessage(ctx, from, msg)
	case *model.FinalTSMsg:
		m.shardFor(v.Copy.Item).onMessage(ctx, from, msg)
	case model.ReleaseMsg:
		m.shardFor(v.Copy.Item).onMessage(ctx, from, msg)
	case *model.ReleaseMsg:
		m.shardFor(v.Copy.Item).onMessage(ctx, from, msg)
	case model.AbortMsg:
		m.shardFor(v.Copy.Item).onMessage(ctx, from, msg)
	case *model.AbortMsg:
		m.shardFor(v.Copy.Item).onMessage(ctx, from, msg)
	case model.SnapReadMsg:
		m.shardFor(v.Copy.Item).onMessage(ctx, from, msg)
	case *model.SnapReadMsg:
		m.shardFor(v.Copy.Item).onMessage(ctx, from, msg)
	case model.FlushMsg:
		if int(v.Shard) < len(m.shards) {
			m.shards[v.Shard].onMessage(ctx, from, msg)
		}
	case model.ProbeWFGMsg:
		m.onProbe(ctx, from, v)
	case model.TickMsg:
		switch v.Tag {
		case ReplTickTag:
			m.onReplTick(ctx)
		case ReplSettleTickTag:
			m.onReplSettle(ctx)
		case TransferTickTag:
			m.onTransferTick(ctx)
		default:
			m.onStatsTick(ctx)
		}
	case model.ReplPullMsg:
		m.onReplPull(ctx, v)
	case model.ReplRecordsMsg:
		m.onReplRecords(ctx, v)
	case model.MapInstallMsg:
		m.onMapInstall(ctx, v)
	case model.TransferPullMsg:
		m.onTransferPull(ctx, v)
	case model.TransferRecordsMsg:
		m.onTransferRecords(ctx, v)
	case model.CrashMsg:
		m.onCrash()
	case model.RecoverMsg:
		m.onRecover(ctx)
	case model.StopMsg:
		m.onStop()
	default:
		panic(fmt.Sprintf("qm: site %d: unexpected message %T", m.site, msg))
	}
}

// memberBatch is a request or release batch as the manager routes it: by
// its members' items (see model.RequestBatchMsg.Len).
type memberBatch interface {
	model.Message
	Len() int
	Item(i int) model.ItemID
	Sub(lo, hi int) model.Message
}

// routeBatch hands a batch to the shards owning its members' items. The
// issuer addresses one batch per shard mailbox, so the members normally share
// a shard and the batch passes through whole; otherwise each run of
// consecutive members that share a shard goes to it as a batch of its own,
// in member order.
func (m *Manager) routeBatch(ctx engine.Context, from engine.Addr, b memberBatch) {
	for lo, n := 0, b.Len(); lo < n; {
		sh := m.shardFor(b.Item(lo))
		hi := lo + 1
		for hi < n && m.shardFor(b.Item(hi)) == sh {
			hi++
		}
		if lo == 0 && hi == n {
			sh.onMessage(ctx, from, b)
			return
		}
		sh.onMessage(ctx, from, b.Sub(lo, hi))
		lo = hi
	}
}

// lockAll acquires every shard lock in index order (the site-wide critical
// section used by crash and recovery; index order prevents lock cycles with
// other all-shard holders — per-item handlers only ever hold one).
func (m *Manager) lockAll() {
	for _, sh := range m.shards {
		//ucclint:allow lockorder -- the one all-shard critical section: index-order acquisition prevents cycles, and per-item handlers never hold more than one
		sh.mu.Lock()
	}
}

func (m *Manager) unlockAll() {
	for i := len(m.shards) - 1; i >= 0; i-- {
		m.shards[i].mu.Unlock()
	}
}

// flushAll runs every shard's flush in place: the control plane's sync
// point (catch-up and transfer applies), after which everything it journaled
// is durable and exposed. Callers hold ctlMu and no shard lock. The un-park's
// grants leave from the control shard's address, yet on engine.Runtime reach
// the issuer before anything the item's shard sends later: both send holding
// sh.mu, and a Runtime send completes before Send returns (Context.Send).
func (m *Manager) flushAll(ctx engine.Context) {
	for _, sh := range m.shards {
		sh.mu.Lock()
		sh.flush(ctx)
		sh.mu.Unlock()
	}
}

// onCrash injects a site crash (CrashMsg, simulation only): the volatile
// store and the unsynced WAL tail are destroyed; the synced prefix and
// snapshot survive on the durable media. The site fails as a unit — every
// shard goes down together — and until RecoverMsg arrives each shard defers
// its messages. Crashing an already-down site is a no-op (the volatile state
// is already gone).
func (m *Manager) onCrash() {
	if m.dur == nil {
		panic(fmt.Sprintf("qm: site %d: CrashMsg without durability configured", m.site))
	}
	m.ctlMu.Lock()
	defer m.ctlMu.Unlock()
	m.lockAll()
	defer m.unlockAll()
	if m.shards[0].down {
		return
	}
	for _, sh := range m.shards {
		sh.down = true
		sh.dirty = false
		sh.flushArmed = false // a FlushMsg still in flight defers, and is a no-op after recovery
		// The journaled-but-unsynced writes die with the log tail. Nothing
		// exposed them, so only their history entries need retracting. The
		// queues stay parked through the outage: recovery's flush dispatches
		// them against the recovered store.
		for _, w := range sh.unsynced {
			m.recorder.Discard(w.copy, w.txn)
		}
		sh.unsynced = sh.unsynced[:0]
	}
	m.store.Wipe()
	m.dur.Crash()
	if m.puller != nil {
		// Shipped records applied since the last sync are lost with the rest
		// of the volatile tail: zero the watermarks so every peer's log is
		// offered again from the start (or from its snapshot image, via the
		// Reset path). Stamp-gating makes the re-shipment idempotent.
		m.puller.ResetAll()
	}
	m.known.ForgetAll() // volatile like everything else here
	for _, s := range m.sessions {
		// Transfer records applied but not yet synced are gone with the rest
		// of the volatile state; re-pull each incomplete session from the
		// start after recovery (stamp-gating absorbs the overlap).
		if !s.done {
			s.afterSeq = 0
		}
	}
	m.shards[0].counters.Crashes++
}

// onRecover rebuilds the store from snapshot + WAL replay and then processes
// the messages that queued up during the outage, shard by shard in arrival
// order. Per-shard arrival order is the order the protocol needs: messages
// for one item always route to one shard, so its FIFO is preserved exactly.
// The replies leave from the control shard's address but under sh.mu, so —
// as in flushAll — ahead of anything the shard sends once it is up again.
func (m *Manager) onRecover(ctx engine.Context) {
	m.ctlMu.Lock()
	defer m.ctlMu.Unlock()
	if !m.Down() {
		return // already up: stale recovery for an outage that never happened
	}
	// All shards are down, so no shard handler can touch the store while
	// recovery rebuilds it (down shards only append to their deferred list).
	if err := m.dur.Recover(); err != nil {
		panic(fmt.Sprintf("qm: site %d: recovery failed: %v", m.site, err))
	}
	for _, sh := range m.shards {
		sh.mu.Lock()
		sh.down = false
		for len(sh.deferred) > 0 {
			p := sh.deferred[0]
			sh.deferred = sh.deferred[1:]
			sh.handle(ctx, p.from, p.msg)
		}
		sh.deferred = nil
		sh.flush(ctx) // also un-parks the queues the crash caught parked
		sh.mu.Unlock()
	}
	m.shards[0].mu.Lock()
	m.shards[0].counters.Recoveries++
	m.shards[0].mu.Unlock()
	if m.pendingTick {
		m.pendingTick = false
		m.statsTickLocked(ctx)
	}
}

// onStatsTick pushes the cumulative per-item grant counters to the metrics
// collector and re-arms the timer. The cluster posts the first TickMsg. A
// tick that lands during an outage is parked and re-fired at recovery so the
// timer chain survives the crash.
func (m *Manager) onStatsTick(ctx engine.Context) {
	m.ctlMu.Lock()
	defer m.ctlMu.Unlock()
	if m.Down() {
		m.pendingTick = true
		return
	}
	m.statsTickLocked(ctx)
}

func (m *Manager) statsTickLocked(ctx engine.Context) {
	if m.statsStopped || m.opts.StatsPeriodMicros <= 0 {
		return
	}
	read := map[model.ItemID]uint64{}
	write := map[model.ItemID]uint64{}
	for _, sh := range m.shards {
		sh.mu.Lock()
		for item, q := range sh.queues {
			read[item] = q.readGrants
			write[item] = q.writeGrants
		}
		sh.mu.Unlock()
	}
	ctx.Send(engine.CollectorAddr(), model.QueueStatsMsg{
		From:        m.site,
		AtMicros:    ctx.NowMicros(),
		ReadGrants:  read,
		WriteGrants: write,
	})
	ctx.SetTimer(m.opts.StatsPeriodMicros, model.TickMsg{})
}

func (m *Manager) onStop() {
	m.ctlMu.Lock()
	m.statsStopped = true // stop re-arming the stats timer
	m.replStopped = true  // stop re-arming the pull timer
	m.ctlMu.Unlock()
}

// onProbe reports the site's wait-for edges across every shard as one
// report (the deadlock detector reasons per site, not per shard). A down
// site does not answer — the detector's persistence rounds absorb the gap.
func (m *Manager) onProbe(ctx engine.Context, from engine.Addr, v model.ProbeWFGMsg) {
	m.ctlMu.Lock()
	defer m.ctlMu.Unlock()
	if m.Down() {
		return
	}
	var edges []model.WaitEdge
	for _, sh := range m.shards {
		sh.mu.Lock()
		for _, q := range sh.queues {
			q.waitEdges(func(e, b *entry) {
				edges = append(edges, model.WaitEdge{
					Waiter:       e.txn,
					Holder:       b.txn,
					Waiter2PL:    e.protocol == model.TwoPL,
					Holder2PL:    b.protocol == model.TwoPL,
					WaiterSite:   e.prec.Site,
					WaiterSeq:    e.attempt,
					Copy:         q.copyID,
					WaiterIssuer: e.prec.Site,
				})
			})
		}
		sh.mu.Unlock()
	}
	ctx.Send(from, model.WFGReportMsg{From: m.site, Round: v.Round, Edges: edges})
}
