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
// mailbox goroutines. The queues themselves live in the manager's one
// table (Manager.byItem); mu guards the slots of this shard's items.
type shard struct {
	m   *Manager
	idx int

	mu       sync.Mutex
	counters Counters
	// depthHigh is the deepest any of this shard's queues has ever been.
	depthHigh int
	// retiring counts this shard's queues flagged retiring (dataQueue.retiring).
	retiring int

	// Exposure discipline (see startSync): a write is journaled when
	// implemented, its queue is parked, and nothing carrying or ordered after
	// the value leaves the shard until the sync covering it has returned.
	dirty      bool                // journaled writes await a sync
	flushArmed bool                // a FlushMsg is pending for this shard
	flushMsg   model.Message       // this shard's FlushMsg, boxed once so arming allocates nothing
	parked     []*dataQueue        // queues whose dispatch waits for a sync (reused)
	snapWait   []model.SnapReadMsg // snapshot reads of parked items, answered at un-park (reused)
	// unsynced lists the writes journaled and not yet covered by a returned
	// sync, kept only when a history recorder is attached: a crash destroys
	// those writes, and their log entries are retracted with them (onCrash).
	unsynced []unsyncedWrite

	// The pipelined sync. gen is the generation of the next sync: a write
	// parks its queue at gen, and the sync that starts next covers it. At
	// most one sync is in flight (syncing), covering generation syncGen; it
	// runs off the mailbox loop (syncWork, via engine.Offload) and answers
	// with doneMsg, boxed once like flushMsg. syncErr is its result, written
	// by the sync and read by the completion its delivery orders after it.
	// staleSync marks a sync in flight that a crash overtook: its completion
	// un-parks nothing.
	gen       uint64
	syncing   bool
	syncGen   uint64
	staleSync bool
	syncErr   error
	syncWork  func()
	doneMsg   model.Message

	down     bool // site crashed: messages defer until recovery
	deferred []pendingMsg

	// held is the reply the batch being handled is building
	// (onRequestBatch, onSnapReadBatch). oneGrant and oneSnap are the
	// one-member arrays a reply it does not hold is sent from.
	held     heldReplies
	oneGrant [1]model.GrantMember
	oneSnap  [1]model.SnapReadReplyMember
}

type unsyncedWrite struct {
	copy model.CopyID
	txn  model.TxnID
	gen  uint64 // the sync generation that covers it
}

// heldReplies is the reply a batch builds while the shard handles it: the
// grants a request batch's own attempt earns, or a snapshot-read batch's
// replies, held until the batch handler ends. The member arrays are reused
// across batches.
type heldReplies struct {
	open    bool
	to      engine.Addr
	txn     model.TxnID
	attempt model.Attempt
	grants  []model.GrantMember
	snaps   []model.SnapReadReplyMember
}

// holds reports whether a reply to (to, txn, attempt) joins the batch's.
func (h *heldReplies) holds(to engine.Addr, txn model.TxnID, attempt model.Attempt) bool {
	return h.open && to == h.to && txn == h.txn && attempt == h.attempt
}

// onMessage handles one delivery for this shard. Crashed shards defer
// everything (durable message queues redeliver after a restart — the
// simulation's stand-in for the transport's reconnect-and-resend).
func (sh *shard) onMessage(ctx engine.Context, from engine.Addr, msg model.Message) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.down {
		// Deferred counts real protocol traffic held back by the outage; the
		// shard's own group-commit flush timers and sync completions are
		// deferred too but are not traffic.
		switch msg.(type) {
		case model.FlushMsg, model.FlushDoneMsg:
		default:
			sh.counters.Deferred++
		}
		// The deferred list outlives this delivery, but the delivery layer
		// recycles the message when OnMessage returns: keep a pooled copy,
		// which recovery recycles after the replay.
		sh.deferred = append(sh.deferred, pendingMsg{from: from, msg: model.RetainMessage(msg)})
		return
	}
	sh.handle(ctx, from, msg)
	sh.maybeFlush(ctx)
}

// handle dispatches one message. Callers hold sh.mu. A pooled message stays
// owned by the delivery layer, which recycles it after OnMessage returns.
func (sh *shard) handle(ctx engine.Context, from engine.Addr, msg model.Message) {
	switch v := msg.(type) {
	case *model.RequestBatchMsg:
		sh.onRequestBatch(ctx, v)
	case *model.ReleaseBatchMsg:
		sh.onReleaseBatch(ctx, v)
	case *model.AbortBatchMsg:
		sh.onAbortBatch(ctx, v)
	case *model.SnapReadBatchMsg:
		sh.onSnapReadBatch(ctx, v)
	case *model.FinalTSMsg:
		sh.onFinalTS(ctx, *v)
	case model.FlushMsg:
		sh.flushArmed = false
		sh.startSync(ctx)
	case model.FlushDoneMsg:
		sh.onSynced(ctx)
	default:
		panic(fmt.Sprintf("qm: site %d shard %d: unexpected message %T", sh.m.site, sh.idx, msg))
	}
}

// maybeFlush arms the shard's drain-sync, run after every handled message:
// if the delivery journaled a write and no sync is in flight, one
// self-addressed FlushMsg is set GroupCommitMicros ahead. A zero window
// lands it at the tail of what is already in the mailbox (engine.Runtime)
// or at the current instant (sim), so every release queued behind this one
// shares the sync; a positive window only delays the same message. While a
// sync is in flight the writes wait for its completion, which arms the next.
func (sh *shard) maybeFlush(ctx engine.Context) {
	if !sh.dirty || sh.flushArmed || sh.syncing {
		return
	}
	sh.flushArmed = true
	ctx.SetTimer(sh.m.groupCommitMicros.Load(), sh.flushMsg)
}

// park notes a write to q's item that was journaled but that no sync has
// covered yet: dispatch refuses q until the sync of the current generation
// returns — the next one to start, not one already in flight, which may
// have written the log out before this record. On a volatile site there is
// no journal to wait for and nothing parks. q may be nil (a shipped record
// for an item whose queue already retired).
func (sh *shard) park(q *dataQueue) {
	if sh.m.dur == nil {
		return
	}
	sh.dirty = true
	if q == nil {
		return
	}
	q.parkGen = sh.gen
	if !q.parked {
		q.parked = true
		sh.parked = append(sh.parked, q)
	}
}

// startSync is the FlushMsg: one pass through the site's group committer
// for everything this shard journaled so far (concurrently flushing shards
// coalesce into one media sync), run off the mailbox loop. The shard keeps
// handling messages meanwhile — a queue nobody wrote is served as usual, a
// parked one absorbs traffic and sends nothing — and un-parks when the
// completion arrives (onSynced). A context that cannot offload runs the
// sync in place, and the un-park follows at once.
func (sh *shard) startSync(ctx engine.Context) {
	if !sh.dirty || sh.syncing {
		return
	}
	sh.dirty = false
	sh.syncing, sh.syncGen = true, sh.gen
	sh.gen++
	if !engine.Offload(ctx, sh.syncWork, sh.doneMsg) {
		sh.onSynced(ctx)
	}
}

// runSync is the offloaded work: it touches no shard state but syncErr,
// which the completion reads after its delivery.
func (sh *shard) runSync() { sh.syncErr = sh.m.seq.Commit() }

// onSynced is the sync's completion: every queue whose writes it covered
// un-parks, and a queue written again meanwhile waits for the next sync,
// which the completion's maybeFlush arms. A completion that predates a
// crash is stale: the writes it covered died with the log tail, recovery
// has un-parked their queues against the recovered store, and it un-parks
// nothing.
func (sh *shard) onSynced(ctx engine.Context) {
	sh.syncing = false
	if sh.staleSync {
		sh.staleSync = false
		return
	}
	if err := sh.syncErr; err != nil {
		// Losing the WAL means losing the durability contract; there is no
		// meaningful way to continue serving writes.
		panic(fmt.Sprintf("qm: site %d shard %d: wal flush: %v", sh.m.site, sh.idx, err))
	}
	sh.unpark(ctx, sh.syncGen)
}

// flushNow makes everything this shard journaled durable in place and
// un-parks what that covers — the control plane's sync point (flushAll) and
// recovery's. With nothing journaled since the last sync started, an
// in-flight sync's completion un-parks its own queues; with no sync in
// flight either, whatever is still parked lost its write in a crash and
// un-parks against the recovered store.
func (sh *shard) flushNow(ctx engine.Context) {
	switch {
	case sh.dirty:
		if err := sh.m.seq.Commit(); err != nil {
			panic(fmt.Sprintf("qm: site %d shard %d: wal flush: %v", sh.m.site, sh.idx, err))
		}
		sh.dirty = false
	case sh.syncing && !sh.staleSync:
		return
	}
	sh.unpark(ctx, sh.gen)
}

// unpark is the one exposure point for journaled writes: each parked queue
// whose writes the sync of generation upTo covered is un-parked and
// dispatched — the grants and promotions held back while it was parked,
// including those owed to messages that arrived meanwhile, leave now — and
// then the snapshot reads held for those items are answered. Queues written
// again since stay parked, in order, for the next sync.
func (sh *shard) unpark(ctx engine.Context, upTo uint64) {
	unsynced := sh.unsynced[:0]
	for _, w := range sh.unsynced {
		if w.gen > upTo {
			unsynced = append(unsynced, w)
		}
	}
	sh.unsynced = unsynced
	parked := sh.parked[:0]
	for i, q := range sh.parked {
		sh.parked[i] = nil
		if q.parkGen > upTo {
			parked = append(parked, q)
			continue
		}
		q.parked = false
		sh.dispatch(ctx, q)
		sh.maybeRetire(q)
	}
	sh.parked = parked
	waiting := sh.snapWait[:0]
	for _, v := range sh.snapWait {
		if q := sh.m.queue(v.Copy.Item); q != nil && q.parked {
			waiting = append(waiting, v)
			continue
		}
		sh.onSnapRead(ctx, v)
	}
	sh.snapWait = waiting
}

// onRequestBatch handles every member exactly as the RequestMsg it stands
// for. The grants the batch's own attempt earns meanwhile are held and leave
// as one GrantBatchMsg when the last member is done; any other reply to the
// same issuer sends them first (send), so the issuer sees this shard's
// replies in the order they were produced.
func (sh *shard) onRequestBatch(ctx engine.Context, b *model.RequestBatchMsg) {
	sh.hold(b.Site, b.Txn, b.Attempt)
	for i := range b.Members {
		sh.onRequest(ctx, b.Request(i))
	}
	sh.sendHeld(ctx)
	sh.held.open = false
}

// onSnapReadBatch handles every member exactly as the SnapReadMsg it stands
// for, and holds the replies as onRequestBatch holds grants: the members
// served now leave as one SnapReadReplyBatchMsg, a parked member is answered
// at the un-park, and a NAK sends the replies held before it first.
func (sh *shard) onSnapReadBatch(ctx engine.Context, b *model.SnapReadBatchMsg) {
	sh.hold(b.Site, b.Txn, b.Attempt)
	for i := range b.Members {
		sh.onSnapRead(ctx, b.SnapRead(i))
	}
	sh.sendHeld(ctx)
	sh.held.open = false
}

// hold opens the reply of a batch from site's issuer for (txn, attempt).
func (sh *shard) hold(site model.SiteID, txn model.TxnID, attempt model.Attempt) {
	h := &sh.held
	h.open, h.to, h.txn, h.attempt = true, engine.RIAddr(site), txn, attempt
}

// onReleaseBatch handles every member exactly as the ReleaseMsg it stands
// for.
func (sh *shard) onReleaseBatch(ctx engine.Context, b *model.ReleaseBatchMsg) {
	for i := range b.Members {
		sh.onRelease(ctx, b.Release(i))
	}
}

// send delivers a reply. A reply to the issuer whose batch is being handled
// first sends the replies held for it, which keeps the shard's replies to
// each issuer in the order they were produced.
func (sh *shard) send(ctx engine.Context, to engine.Addr, msg model.Message) {
	if to == sh.held.to {
		sh.sendHeld(ctx)
	}
	ctx.Send(to, msg)
}

// sendGrant delivers txn's grant of one copy at this site, or holds it for
// the request batch being handled when it answers that batch's own attempt.
// A grant it does not hold leaves as a batch of one, built in the shard's
// one-member array.
func (sh *shard) sendGrant(ctx engine.Context, to engine.Addr, txn model.TxnID, attempt model.Attempt, g model.GrantMember) {
	if sh.held.holds(to, txn, attempt) {
		sh.held.grants = append(sh.held.grants, g)
		return
	}
	sh.oneGrant[0] = g
	sh.send(ctx, to, model.PooledGrantBatch(model.GrantBatchMsg{
		Txn: txn, Attempt: attempt, CopySite: sh.m.site, Members: sh.oneGrant[:],
	}))
}

// sendSnapReply delivers a snapshot reply, or holds it for the snapshot-read
// batch being handled when it answers that batch; one it does not hold
// leaves as a batch of one (see sendGrant).
func (sh *shard) sendSnapReply(ctx engine.Context, to engine.Addr, txn model.TxnID, attempt model.Attempt, r model.SnapReadReplyMember) {
	if sh.held.holds(to, txn, attempt) {
		sh.held.snaps = append(sh.held.snaps, r)
		return
	}
	sh.oneSnap[0] = r
	sh.send(ctx, to, model.PooledSnapReadReplyBatch(model.SnapReadReplyBatchMsg{
		Txn: txn, Attempt: attempt, CopySite: sh.m.site, Members: sh.oneSnap[:],
	}))
}

// sendHeld sends the replies held for the batch being handled, if any, as
// one batch message.
func (sh *shard) sendHeld(ctx engine.Context) {
	h := &sh.held
	if len(h.grants) > 0 {
		ctx.Send(h.to, model.PooledGrantBatch(model.GrantBatchMsg{
			Txn: h.txn, Attempt: h.attempt, CopySite: sh.m.site, Members: h.grants,
		}))
		h.grants = h.grants[:0]
	}
	if len(h.snaps) > 0 {
		ctx.Send(h.to, model.PooledSnapReadReplyBatch(model.SnapReadReplyBatchMsg{
			Txn: h.txn, Attempt: h.attempt, CopySite: sh.m.site, Members: h.snaps,
		}))
		h.snaps = h.snaps[:0]
	}
}

// queue returns item's data queue, which must exist.
func (sh *shard) queue(item model.ItemID) *dataQueue {
	q := sh.m.queue(item)
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
	q := sh.queue(v.Copy.Item)
	if q.pending {
		// Gained but not yet filled: the authoritative state is still in
		// flight from the old owner. Busy is the right refusal — the routing
		// was correct, the issuer just needs to retry under backoff.
		sh.counters.Busy++
		sh.send(ctx, engine.RIAddr(v.Site), model.PooledBusy(model.BusyMsg{Txn: v.Txn, Attempt: v.Attempt, Copy: v.Copy}))
		return
	}
	old := q.find(v.Txn)
	if bound := sh.m.opts.MaxQueueDepth; bound > 0 && len(q.entries) >= bound && old == nil {
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
	if old != nil {
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
	q := sh.m.queue(v.Copy.Item)
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
	q := sh.m.queue(v.Copy.Item)
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
	sh.maybeRetire(q)
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
	q := sh.m.queue(v.Copy.Item)
	if q != nil && q.pending {
		// Sealed mid-fill: the version chain here is still the fresh
		// initial copy, not the moved history — refuse rather than serve a
		// stale snapshot.
		sh.counters.Busy++
		sh.send(ctx, engine.RIAddr(v.Site), model.PooledBusy(model.BusyMsg{Txn: v.Txn, Attempt: v.Attempt, Copy: v.Copy}))
		return
	}
	if q != nil && q.parked {
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
	sh.sendSnapReply(ctx, engine.RIAddr(v.Site), v.Txn, v.Attempt, model.SnapReadReplyMember{
		Item:         v.Copy.Item,
		Value:        ver.Value,
		Version:      ver.Version,
		CommitMicros: ver.CommitMicros,
		Exact:        exact,
	})
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
				sh.unsynced = append(sh.unsynced, unsyncedWrite{c, e.txn, sh.gen}) // the log entry below dies with the write at a crash
			}
		}
		if sh.m.recorder != nil {
			sh.m.recorder.Implemented(c, e.txn, model.OpWrite)
		}
	} else if sh.m.recorder != nil && !e.readRecorded {
		sh.m.recorder.Implemented(c, e.txn, model.OpRead)
	}
}

// onAbortBatch handles every member exactly as the AbortMsg it stands for.
func (sh *shard) onAbortBatch(ctx engine.Context, b *model.AbortBatchMsg) {
	for i := range b.Members {
		sh.onAbort(ctx, b.Abort(i))
	}
}

func (sh *shard) onAbort(ctx engine.Context, v model.AbortMsg) {
	q := sh.m.queue(v.Copy.Item)
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
	sh.maybeRetire(q)
}

// dispatch grants every grantable head in sequence and then promotes
// pre-scheduled locks whose earlier conflicts have all been released. A
// parked queue is left alone: unpark dispatches it once its write is durable.
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
		sh.sendGrant(ctx, engine.RIAddr(hd.prec.Site), hd.txn, hd.attempt, model.GrantMember{
			Item:         q.copyID.Item,
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
