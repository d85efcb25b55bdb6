package qm

import (
	"fmt"
	"sync"

	"ucc/internal/engine"
	"ucc/internal/model"
)

// shard is one partition of a site's queue manager: the data queues, lock
// state, counters, and group-commit batch for the items hashed to it
// (model.ShardOfItem). Each shard is independently lockable — operations on
// items in different shards never contend — which is what lets one site's
// conflict-free traffic execute in parallel when the shards run on separate
// mailbox goroutines.
type shard struct {
	m   *Manager
	idx int

	mu       sync.Mutex
	queues   map[model.ItemID]*dataQueue
	counters Counters
	// depthHigh is the deepest any of this shard's queues has ever been.
	depthHigh int

	// Versioned-placement transition state. pending seals items this site
	// gained at a map install until their snapshot transfer completes (new
	// openers get a busy NAK — the state is not here yet); retiring marks
	// items it lost whose queues still hold in-flight transactions (new
	// openers get the wrong-epoch NAK, residents drain to completion, and
	// the emptied queue deletes).
	pending  map[model.ItemID]bool
	retiring map[model.ItemID]bool

	// Exposure discipline (see flush): a write is journaled when implemented,
	// its queue is parked, and nothing carrying or ordered after the value
	// leaves the shard until the sync covering it has returned.
	dirty      bool                // journaled writes await a sync
	flushArmed bool                // a FlushMsg is pending for this shard
	flushMsg   model.Message       // this shard's FlushMsg, boxed once so arming allocates nothing
	parked     []*dataQueue        // queues whose dispatch waits for the next sync (reused)
	snapWait   []model.SnapReadMsg // snapshot reads of parked items, answered at un-park (reused)
	// unsynced lists the writes journaled since the last sync, kept only when
	// a history recorder is attached: a crash destroys those writes, and
	// their log entries are retracted with them (onCrash).
	unsynced []unsyncedWrite

	down     bool // site crashed: messages defer until recovery
	deferred []pendingMsg

	// gb holds the grants a request batch's own attempt earns while the
	// shard handles the batch (onRequestBatch).
	gb grantBatch
}

type unsyncedWrite struct {
	copy model.CopyID
	txn  model.TxnID
}

// grantBatch is the reply a request batch is building: its attempt's grants,
// held until the batch handler ends. members is reused across batches.
type grantBatch struct {
	open    bool
	to      engine.Addr
	txn     model.TxnID
	attempt model.Attempt
	members []model.GrantMember
}

// onMessage handles one delivery for this shard. Crashed shards defer
// everything (durable message queues redeliver after a restart — the
// simulation's stand-in for the transport's reconnect-and-resend).
func (sh *shard) onMessage(ctx engine.Context, from engine.Addr, msg model.Message) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.down {
		// Deferred counts real protocol traffic held back by the outage; the
		// shard's own group-commit flush timers are deferred too but are not
		// traffic.
		if _, timer := msg.(model.FlushMsg); !timer {
			sh.counters.Deferred++
		}
		// The deferred list outlives this delivery, but the delivery layer
		// recycles pooled messages when OnMessage returns — hold a value copy.
		sh.deferred = append(sh.deferred, pendingMsg{from: from, msg: model.UnpoolMessage(msg)})
		return
	}
	sh.handle(ctx, from, msg)
	sh.maybeFlush(ctx)
}

// handle dispatches one message. Callers hold sh.mu. Pooled pointer forms
// deref to the value handlers — the pointer stays owned by the delivery
// layer, which recycles it after OnMessage returns, so handlers only ever
// see a stack copy.
func (sh *shard) handle(ctx engine.Context, from engine.Addr, msg model.Message) {
	switch v := msg.(type) {
	case model.RequestMsg:
		sh.onRequest(ctx, v)
	case *model.RequestMsg:
		sh.onRequest(ctx, *v)
	case model.RequestBatchMsg:
		sh.onRequestBatch(ctx, &v)
	case *model.RequestBatchMsg:
		sh.onRequestBatch(ctx, v)
	case model.ReleaseBatchMsg:
		sh.onReleaseBatch(ctx, &v)
	case *model.ReleaseBatchMsg:
		sh.onReleaseBatch(ctx, v)
	case model.FinalTSMsg:
		sh.onFinalTS(ctx, v)
	case *model.FinalTSMsg:
		sh.onFinalTS(ctx, *v)
	case model.ReleaseMsg:
		sh.onRelease(ctx, v)
	case *model.ReleaseMsg:
		sh.onRelease(ctx, *v)
	case model.AbortMsg:
		sh.onAbort(ctx, v)
	case *model.AbortMsg:
		sh.onAbort(ctx, *v)
	case model.SnapReadMsg:
		sh.onSnapRead(ctx, v)
	case *model.SnapReadMsg:
		sh.onSnapRead(ctx, *v)
	case model.FlushMsg:
		sh.flushArmed = false
		sh.flush(ctx)
	default:
		panic(fmt.Sprintf("qm: site %d shard %d: unexpected message %T", sh.m.site, sh.idx, msg))
	}
}

// maybeFlush arms the shard's drain-sync, run after every handled message:
// if the delivery journaled a write, one self-addressed FlushMsg is set
// GroupCommitMicros ahead. A zero window lands it at the tail of what is
// already in the mailbox (engine.Runtime) or at the current instant (sim),
// so every release queued behind this one shares the sync; a positive
// window only delays the same message.
func (sh *shard) maybeFlush(ctx engine.Context) {
	if !sh.dirty || sh.flushArmed {
		return
	}
	sh.flushArmed = true
	ctx.SetTimer(sh.m.groupCommitMicros.Load(), sh.flushMsg)
}

// park notes a write to q's item that was journaled but that no sync has
// covered yet: dispatch refuses q until the next flush. On a volatile site
// there is no journal to wait for and nothing parks. q may be nil (a shipped
// record for an item whose queue already retired).
func (sh *shard) park(q *dataQueue) {
	if sh.m.dur == nil {
		return
	}
	sh.dirty = true
	if q != nil && !q.parked {
		q.parked = true
		sh.parked = append(sh.parked, q)
	}
}

// flush is the one exposure point for journaled writes: a single pass
// through the site's commit sequencer makes every record this shard
// journaled before the call durable (concurrently flushing shards coalesce
// into one media sync), and only then is each parked queue un-parked and
// dispatched — the grants, promotions and snapshot replies held back while
// it was parked, including those owed to messages that arrived meanwhile,
// leave now. The blocking sync is deliberate: it runs once per mailbox
// drain, not once per write. After a crash the parked writes are gone with
// the log tail (dirty is clear) and the un-park exposes the recovered state.
func (sh *shard) flush(ctx engine.Context) {
	if sh.dirty {
		if err := sh.m.seq.commit(); err != nil {
			// Losing the WAL means losing the durability contract; there is no
			// meaningful way to continue serving writes.
			panic(fmt.Sprintf("qm: site %d shard %d: wal flush: %v", sh.m.site, sh.idx, err))
		}
		sh.dirty = false
		sh.unsynced = sh.unsynced[:0]
	}
	for i, q := range sh.parked {
		sh.parked[i] = nil
		q.parked = false
		sh.dispatch(ctx, q)
		sh.maybeRetire(q.copyID.Item, q)
	}
	sh.parked = sh.parked[:0]
	for _, v := range sh.snapWait {
		sh.onSnapRead(ctx, v)
	}
	sh.snapWait = sh.snapWait[:0]
}

// onRequestBatch handles every member exactly as the RequestMsg it stands
// for. The grants the batch's own attempt earns meanwhile are held and leave
// as one GrantBatchMsg when the last member is done; any other reply to the
// same issuer sends them first (send), so the issuer sees this shard's
// replies in the order they were produced.
func (sh *shard) onRequestBatch(ctx engine.Context, b *model.RequestBatchMsg) {
	sh.gb = grantBatch{
		open: true, to: engine.RIAddr(b.Site), txn: b.Txn, attempt: b.Attempt,
		members: sh.gb.members,
	}
	for i := range b.Members {
		sh.onRequest(ctx, b.Request(i))
	}
	sh.sendGrants(ctx)
	sh.gb.open = false
}

// onReleaseBatch handles every member exactly as the ReleaseMsg it stands
// for.
func (sh *shard) onReleaseBatch(ctx engine.Context, b *model.ReleaseBatchMsg) {
	for i := range b.Members {
		sh.onRelease(ctx, b.Release(i))
	}
}

// send delivers a reply. A reply to the issuer whose request batch is being
// handled first sends the grants held for it, which keeps the shard's
// replies to each issuer in the order they were produced.
func (sh *shard) send(ctx engine.Context, to engine.Addr, msg model.Message) {
	if to == sh.gb.to {
		sh.sendGrants(ctx)
	}
	ctx.Send(to, msg)
}

// sendGrant delivers a grant, or holds it for the request batch being
// handled when it answers that batch's own attempt.
func (sh *shard) sendGrant(ctx engine.Context, to engine.Addr, g model.GrantMsg) {
	if !sh.gb.open || to != sh.gb.to || g.Txn != sh.gb.txn || g.Attempt != sh.gb.attempt {
		sh.send(ctx, to, model.PooledGrant(g))
		return
	}
	sh.gb.members = append(sh.gb.members, model.GrantMember{
		Item: g.Copy.Item, Lock: g.Lock, PreScheduled: g.PreScheduled, TS: g.TS,
		Value: g.Value, Version: g.Version, CommitMicros: g.CommitMicros,
	})
}

// sendGrants sends the grants held for the request batch being handled, if
// any, as one GrantBatchMsg.
func (sh *shard) sendGrants(ctx engine.Context) {
	if len(sh.gb.members) == 0 {
		return
	}
	ctx.Send(sh.gb.to, model.PooledGrantBatch(model.GrantBatchMsg{
		Txn: sh.gb.txn, Attempt: sh.gb.attempt, CopySite: sh.m.site, Members: sh.gb.members,
	}))
	sh.gb.members = sh.gb.members[:0]
}

func (sh *shard) queue(item model.ItemID) *dataQueue {
	q := sh.queues[item]
	if q == nil {
		panic(fmt.Sprintf("qm: site %d shard %d has no queue for %v", sh.m.site, sh.idx, item))
	}
	return q
}

func (sh *shard) onRequest(ctx engine.Context, v model.RequestMsg) {
	sh.counters.Requests++
	if !sh.owns(v.Copy.Item) {
		// The issuer routed by a stale map (or raced an ownership flip, if
		// the item is mid-retirement here — new openers are refused either
		// way; only residents drain). The NAK carries the installed map.
		sh.wrongEpoch(ctx, v.Site, v.Txn, v.Attempt, v.Copy)
		return
	}
	if sh.pending[v.Copy.Item] {
		// Gained but not yet transferred: the authoritative state is still in
		// flight from the old owner. Busy is the right refusal — the routing
		// was correct, the issuer just needs to retry under backoff.
		sh.counters.Busy++
		sh.send(ctx, engine.RIAddr(v.Site), model.PooledBusy(model.BusyMsg{Txn: v.Txn, Attempt: v.Attempt, Copy: v.Copy}))
		return
	}
	q := sh.queue(v.Copy.Item)
	if bound := sh.m.opts.MaxQueueDepth; bound > 0 && len(q.entries) >= bound && q.find(v.Txn) == nil {
		// The queue is full and this transaction is not already resident:
		// refuse the request rather than queue without bound. The issuer
		// aborts the attempt and restarts it under backoff — shedding load
		// at the source instead of diverging here.
		sh.counters.Busy++
		sh.send(ctx, engine.RIAddr(v.Site), model.PooledBusy(model.BusyMsg{
			Txn: v.Txn, Attempt: v.Attempt, Copy: v.Copy,
		}))
		return
	}
	if old := q.find(v.Txn); old != nil {
		// A stale entry from a previous attempt whose abort raced ahead of
		// us cannot exist under FIFO delivery, but drop defensively.
		if old.attempt >= v.Attempt {
			return
		}
		if old.readRecorded && sh.m.recorder != nil {
			sh.m.recorder.Discard(q.copyID, old.txn)
		}
		q.remove(old)
		recycleEntry(old)
	}
	e := acquireEntry()
	e.txn = v.Txn
	e.attempt = v.Attempt
	e.protocol = v.Protocol
	e.kind = v.Kind
	e.prec = model.Precedence{
		Site:  v.Site,
		Txn:   v.Txn,
		Is2PL: v.Protocol == model.TwoPL,
	}
	out := q.admit(e, v.TS, v.Interval)
	if d := len(q.entries); d > sh.depthHigh {
		sh.depthHigh = d
	}
	issuer := engine.RIAddr(v.Site)
	switch {
	case out.rejected:
		// Rejected requests are never inserted: the entry goes straight back.
		recycleEntry(e)
		sh.counters.Rejects++
		sh.send(ctx, issuer, model.PooledReject(model.RejectMsg{
			Txn: v.Txn, Attempt: v.Attempt, Copy: v.Copy, Threshold: out.threshold,
		}))
	case out.backedOff:
		sh.counters.Backoffs++
		sh.send(ctx, issuer, model.PooledBackoff(model.BackoffMsg{
			Txn: v.Txn, Attempt: v.Attempt, Copy: v.Copy, NewTS: out.newTS,
		}))
	}
	sh.dispatch(ctx, q)
}

func (sh *shard) onFinalTS(ctx engine.Context, v model.FinalTSMsg) {
	q := sh.queues[v.Copy.Item]
	if q == nil {
		// The item moved away and its queue drained (or never lived here):
		// the completer path's wrong-epoch NAK, so a transaction straddling
		// an ownership flip learns its attempt died instead of hanging.
		sh.wrongEpoch(ctx, v.Txn.Site, v.Txn, v.Attempt, v.Copy)
		return
	}
	e := q.find(v.Txn)
	if e == nil || e.attempt != v.Attempt {
		return // attempt was aborted; stale message
	}
	if q.applyFinalTS(e, v.TS) {
		sh.counters.Revokes++
	}
	sh.dispatch(ctx, q)
}

func (sh *shard) onRelease(ctx engine.Context, v model.ReleaseMsg) {
	q := sh.queues[v.Copy.Item]
	if q == nil {
		sh.wrongEpoch(ctx, v.Txn.Site, v.Txn, v.Attempt, v.Copy) // see onFinalTS
		return
	}
	e := q.find(v.Txn)
	if e == nil || e.attempt != v.Attempt || !e.granted {
		return
	}
	if v.ToSemi {
		// §4.2 rule 4: the T/O transaction received a pre-scheduled lock;
		// its operations are implemented now, and the lock becomes a
		// semi-lock until every item has issued a normal grant.
		if !e.semi {
			sh.implement(q, e, v)
			q.toSemi(e)
			sh.counters.Conversion++
		}
		sh.dispatch(ctx, q) // a no-op if the write just parked q
		return
	}
	if !e.semi {
		// Implemented at release (§4.3: 2PL/PA always; T/O when it received
		// no pre-scheduled lock and released directly).
		sh.implement(q, e, v)
	}
	q.remove(e)
	recycleEntry(e)
	sh.counters.Releases++
	sh.dispatch(ctx, q) // a no-op if the write just parked q
	sh.maybeRetire(v.Copy.Item, q)
}

// onSnapRead serves a read-only snapshot read directly from the store's
// version chain: no queue entry, no lock, no threshold check, and therefore
// no way to be rejected, backed off, or deadlocked. The read is recorded in
// the history log at the position of the version it observed, so the
// serializability checker sees the true dataflow order.
func (sh *shard) onSnapRead(ctx engine.Context, v model.SnapReadMsg) {
	if !sh.owns(v.Copy.Item) {
		sh.wrongEpoch(ctx, v.Site, v.Txn, v.Attempt, v.Copy) // see onRequest
		return
	}
	if sh.pending[v.Copy.Item] {
		// Sealed mid-transfer: the version chain here is still the fresh
		// initial copy, not the moved history — refuse rather than serve a
		// stale snapshot.
		sh.counters.Busy++
		sh.send(ctx, engine.RIAddr(v.Site), model.PooledBusy(model.BusyMsg{Txn: v.Txn, Attempt: v.Attempt, Copy: v.Copy}))
		return
	}
	if q := sh.queues[v.Copy.Item]; q != nil && q.parked {
		// The chain's head is journaled but not yet synced, and the reply
		// must not carry it: answer at the un-park.
		sh.snapWait = append(sh.snapWait, v)
		return
	}
	sh.counters.SnapReads++
	ver, exact := sh.m.store.ReadAt(v.Copy.Item, v.SnapMicros)
	if !exact {
		sh.counters.SnapStale++
	}
	if sh.m.recorder != nil {
		sh.m.recorder.ImplementedReadAt(model.CopyID{Item: v.Copy.Item, Site: sh.m.site}, v.Txn, ver.Version)
	}
	sh.send(ctx, engine.RIAddr(v.Site), model.PooledSnapReadReply(model.SnapReadReplyMsg{
		Txn:          v.Txn,
		Attempt:      v.Attempt,
		Copy:         v.Copy,
		Value:        ver.Value,
		Version:      ver.Version,
		CommitMicros: ver.CommitMicros,
		Exact:        exact,
	}))
}

// implement applies the operation to the store and the history log. A
// journaled write parks q until the sync that covers it.
func (sh *shard) implement(q *dataQueue, e *entry, v model.ReleaseMsg) {
	c := q.copyID
	if e.kind == model.OpWrite {
		if v.HasWrite {
			sh.m.store.Write(v.Copy.Item, e.txn, v.Value, v.CommitMicros) // journaled via the store's hook
			sh.park(q)
			if q.parked && sh.m.recorder != nil {
				sh.unsynced = append(sh.unsynced, unsyncedWrite{c, e.txn}) // the log entry below dies with the write at a crash
			}
		}
		if sh.m.recorder != nil {
			sh.m.recorder.Implemented(c, e.txn, model.OpWrite)
		}
	} else if sh.m.recorder != nil && !e.readRecorded {
		sh.m.recorder.Implemented(c, e.txn, model.OpRead)
	}
}

func (sh *shard) onAbort(ctx engine.Context, v model.AbortMsg) {
	q := sh.queues[v.Copy.Item]
	if q == nil {
		sh.wrongEpoch(ctx, v.Txn.Site, v.Txn, v.Attempt, v.Copy) // see onFinalTS
		return
	}
	e := q.find(v.Txn)
	if e == nil || e.attempt != v.Attempt {
		return
	}
	if e.readRecorded && sh.m.recorder != nil {
		// The grant-time read never took effect; drop it from the log so it
		// cannot fabricate conflict edges.
		sh.m.recorder.Discard(q.copyID, e.txn)
	}
	q.remove(e)
	recycleEntry(e)
	sh.counters.Aborts++
	sh.dispatch(ctx, q)
	sh.maybeRetire(v.Copy.Item, q)
}

// dispatch grants every grantable head in sequence and then promotes
// pre-scheduled locks whose earlier conflicts have all been released. A
// parked queue is left alone: flush dispatches it once its write is durable.
func (sh *shard) dispatch(ctx engine.Context, q *dataQueue) {
	if q.parked {
		return
	}
	for {
		hd := q.head()
		if hd == nil {
			break
		}
		d := q.decide(hd)
		if !d.ok {
			break
		}
		q.grant(hd, d)
		sh.counters.Grants++
		if d.preSched {
			sh.counters.PreGrants++
		}
		if hd.protocol == model.TO && hd.kind == model.OpRead && sh.m.recorder != nil {
			// A T/O read is implemented at its grant: the SRL it receives
			// is already a semi-lock (§4.3) and the value travels with the
			// grant. Recording it at release would order it after any
			// pre-scheduled write that converts in between, inverting the
			// conflict edge relative to the actual dataflow.
			sh.m.recorder.Implemented(q.copyID, hd.txn, model.OpRead)
			hd.readRecorded = true
		}
		ver := sh.m.store.Latest(q.copyID.Item)
		sh.sendGrant(ctx, engine.RIAddr(hd.prec.Site), model.GrantMsg{
			Txn:          hd.txn,
			Attempt:      hd.attempt,
			Copy:         q.copyID,
			Lock:         d.lock,
			PreScheduled: d.preSched,
			TS:           hd.prec.TS,
			Value:        ver.Value,
			Version:      ver.Version,
			CommitMicros: ver.CommitMicros,
		})
	}
	for _, e := range q.promotable() {
		e.normalSent = true
		sh.counters.Promotions++
		sh.send(ctx, engine.RIAddr(e.prec.Site), model.PooledNormalGrant(model.NormalGrantMsg{
			Txn: e.txn, Attempt: e.attempt, Copy: q.copyID,
		}))
	}
}
