package ri

import (
	"cmp"
	"slices"

	"ucc/internal/engine"
	"ucc/internal/model"
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
	// held marks a spare copy of a thrifty quorum attempt (holdSpares): no
	// request went to it yet, so it holds no entry anywhere and is neither
	// withdrawn nor released, but gate(predAny) counts it as reachable.
	// hedge requests it and clears the mark.
	held bool
}

// txnState is the issuer-side state of one in-flight transaction.
type txnState struct {
	// txn is the issuer's own copy of the submitted transaction, its read
	// and write sets in the slab items; both are kept across reuse, so a
	// submit copies without allocating once they have grown.
	txn     model.Txn
	items   []model.ItemID
	attempt model.Attempt
	// order is the attempt's slab of copy requests, sorted in deterministic
	// (item, site) order: iterating the reqs map directly would reorder
	// network sends between runs and break seed-reproducibility. reqs points
	// into it, one entry per copy. The map points in only after fillRequests
	// has filled and sorted the slab; nothing appends afterwards.
	reqs  map[model.CopyID]*copyReq
	order []copyReq

	firstArrival int64
	messages     int64
	attempts     int
	attemptState
}

// attemptState is the part of a transaction's state that every attempt
// starts afresh (launch).
type attemptState struct {
	phase phase
	ts    model.Timestamp
	// expectTS filters stale PA grants: only grants stamped with expectTS
	// count after the agreed timestamp was finalized.
	expectTS      model.Timestamp
	arrival       int64
	firstGrant    int64
	backoffMax    model.Timestamp
	anyBackoff    bool
	finalized     bool
	backoffReads  int
	backoffWrites int
	preSchedAny   bool
	// spares is true while some copy of the attempt is held.
	spares bool
}

// kindAt returns the operation the attempt requested at copy c; a copy both
// read and written answers as the write.
func (s *txnState) kindAt(c model.CopyID) model.OpKind {
	if r := s.reqs[c]; r != nil {
		return r.kind
	}
	return model.OpRead
}

// launch sends the attempt's requests to every queue manager involved (see
// eachCopy); a thrifty quorum attempt holds its spares back and arms the
// hedge sweep (holdSpares).
func (ri *Issuer) launch(ctx engine.Context, s *txnState) {
	s.attempts++
	s.attemptState = attemptState{phase: phaseNegotiating, arrival: ctx.NowMicros(), ts: model.NoTimestamp}
	if s.txn.Protocol != model.TwoPL {
		s.ts = ri.nextTS(ctx)
	}
	s.expectTS = s.ts
	ri.fillRequests(s)
	ri.holdSpares(s)
	ri.sendRequests(ctx, s, false)
	if s.spares {
		ri.armSweep(ctx)
	}
}

// fillRequests rebuilds the attempt's copy requests under the current map:
// the previous attempt's are dropped, the slab is filled and sorted by
// (item, site), and only then does reqs take pointers into it. A copy that
// is both read and written keeps the write in reqs (the read stays in the
// slab, so its request and release still go out).
func (ri *Issuer) fillRequests(s *txnState) {
	clear(s.reqs)
	s.order = s.order[:0]
	ri.eachCopy(&s.txn, func(item model.ItemID, site model.SiteID, kind model.OpKind) {
		c := model.CopyID{Item: item, Site: site}
		s.order = append(s.order, copyReq{copyID: c, to: ri.qmAddr(c), kind: kind})
	})
	slices.SortFunc(s.order, func(a, b copyReq) int {
		if c := cmp.Compare(a.copyID.Item, b.copyID.Item); c != 0 {
			return c
		}
		return cmp.Compare(a.copyID.Site, b.copyID.Site)
	})
	if s.reqs == nil {
		s.reqs = make(map[model.CopyID]*copyReq, len(s.order))
	}
	for i := range s.order {
		r := &s.order[i]
		if s.reqs[r.copyID] == nil || r.kind == model.OpWrite {
			s.reqs[r.copyID] = r
		}
	}
}

// sendRequests requests the attempt's copies whose held mark equals spares:
// the unheld ones when the attempt opens, the held ones when it is hedged.
// It sends one RequestBatchMsg per queue-manager mailbox, carrying that
// mailbox's copies in item order (s.order is sorted by (item, site)). A
// mailbox with one copy gets a batch of one, which travels as exactly the
// RequestMsg it stands for. s.messages counts copies, the unit the
// per-transaction message tables report.
func (ri *Issuer) sendRequests(ctx engine.Context, s *txnState, spares bool) {
	for _, to := range ri.mailboxes(s) {
		members := ri.reqMembers[:0]
		for i := range s.order {
			r := &s.order[i]
			if r.to == to && r.held == spares {
				members = append(members, model.RequestMember{Item: r.copyID.Item, Kind: r.kind})
			}
		}
		ri.reqMembers = members
		if len(members) == 0 {
			continue
		}
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
	for i := range s.order {
		r := &s.order[i]
		if !slices.Contains(out, r.to) {
			out = append(out, r.to)
		}
	}
	ri.mailboxScratch = out
	return out
}

func (ri *Issuer) send(ctx engine.Context, s *txnState, to engine.Addr, msg model.Message) {
	s.messages++
	ctx.Send(to, msg)
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
	ri.heard(v.Copy.Site)
	if s := ri.stateFor(v.Txn, v.Attempt); s != nil && ri.applyGrant(ctx, s, v) {
		ri.advance(ctx, s)
	}
}

// onGrantBatch applies every member of a grant batch, then advances the
// attempt once: the batch is its members, and the attempt's gates see them
// together.
func (ri *Issuer) onGrantBatch(ctx engine.Context, b *model.GrantBatchMsg) {
	ri.heard(b.CopySite)
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
	for i := range s.order {
		r := &s.order[i]
		if r.excluded || r.held {
			continue // withdrawn from the quorum, or never asked: no entry
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
	ri.heard(v.Copy.Site)
	s := ri.stateFor(v.Txn, v.Attempt)
	if s == nil {
		return
	}
	r := s.reqs[v.Copy]
	if r == nil || r.excluded {
		return
	}
	if s.finalized {
		if ri.dropStraggler(ctx, s, r) {
			return
		}
		// Lemma 1 guarantees at most one back-off per transaction; count
		// any violation (tests assert zero) but recover by re-finalizing.
		ri.stats.ReBackoffs++
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

// computeMicros is t's local computing phase duration.
func (ri *Issuer) computeMicros(t *model.Txn) int64 {
	if t.ComputeMicros > 0 {
		return t.ComputeMicros
	}
	return ri.opts.DefaultComputeMicros
}

func (ri *Issuer) startCompute(ctx engine.Context, s *txnState) {
	s.phase = phaseComputing
	ctx.SetTimer(ri.computeMicros(&s.txn), model.PooledComputeDone(model.ComputeDoneMsg{Txn: s.txn.ID, Attempt: s.attempt}))
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
		if !ri.gate(s, predNormal) {
			s.phase = phaseAwaitNormal
			ri.markExecuted(ctx, s)
			return
		}
	}
	ri.releaseAll(ctx, s, false)
	ri.finish(ctx, s)
}

// writeValue evaluates the write-phase value for item from the attempt's
// collected pre-images (default: pre-image + 1).
func (ri *Issuer) writeValue(s *txnState, item model.ItemID) int64 {
	if spec, ok := s.txn.SpecFor(item); ok {
		if spec.UseSource {
			return ri.preImage(s, spec.Source) + spec.AddConst
		}
		return spec.AddConst
	}
	return ri.preImage(s, item) + 1
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
	ri.withdrawUngranted(ctx, s)
	for _, to := range ri.mailboxes(s) {
		members := ri.relMembers[:0]
		for i := range s.order {
			r := &s.order[i]
			if r.to != to || !ri.releases(s, r) {
				continue
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
	ri.stats.Committed++
	ri.adm.onCommit(ctx.NowMicros(), ctx.NowMicros()-s.firstArrival)
	if ri.recorder != nil {
		ri.recorder.Committed(s.txn.ID, s.txn.Protocol)
		if s.txn.Protocol != model.TwoPL {
			ri.finalTS[s.txn.ID] = s.expectTS // the timestamp-order oracle (see finalTS)
		}
	}
	ri.reportAttempt(ctx, s, model.OutcomeCommitted, model.OpRead)
}

// finish completes a transaction whose releases have all been sent.
func (ri *Issuer) finish(ctx engine.Context, s *txnState) {
	if s.phase != phaseAwaitNormal {
		ri.markExecuted(ctx, s) // a semi-converted one was reported at conversion
	}
	ri.retire(ctx, s)
}

// retire ends a committed or dropped transaction: it leaves ri.active, the
// driver hears of it, and its state goes on the free list.
func (ri *Issuer) retire(ctx engine.Context, s *txnState) {
	id := s.txn.ID
	delete(ri.active, id)
	ri.finished(ctx, id)
	ri.recycleTxn(s)
}

// reportAttempt emits a TxnDoneMsg for this attempt's terminal event.
func (ri *Issuer) reportAttempt(ctx engine.Context, s *txnState, outcome model.TxnOutcome, rejectKind model.OpKind) {
	now := ctx.NowMicros()
	locked := int64(0)
	if s.firstGrant > 0 {
		locked = now - s.firstGrant
	}
	ctx.Send(engine.CollectorAddr(), model.PooledTxnDone(model.TxnDoneMsg{
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
	}))
}
