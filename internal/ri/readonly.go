package ri

import (
	"slices"

	"ucc/internal/engine"
	"ucc/internal/model"
)

// roState is the issuer-side state of one in-flight read-only snapshot
// transaction: no locks, no negotiation, no restarts — just a scatter of
// snapshot reads and a gather of their replies.
type roState struct {
	txn      model.Txn // the issuer's own copy, as in txnState
	items    []model.ItemID
	snapTS   int64
	arrival  int64
	pending  map[model.CopyID]bool
	messages int64
}

// launchRO starts a read-only snapshot transaction: it reads each item's
// primary copy at a snapshot timestamp safely in the past, with one
// SnapReadBatchMsg per queue-manager mailbox carrying that mailbox's items in
// item order (see sendRequests). There is no negotiation and no lock: the
// transaction cannot be rejected, backed off, victimized, or restarted, and
// it never re-enters launch.
func (ri *Issuer) launchRO(ctx engine.Context, s *roState) {
	t := &s.txn
	now := ctx.NowMicros()
	snap := now - ri.opts.SnapshotStalenessMicros
	if snap < 0 {
		snap = 0
	}
	s.snapTS = snap
	s.arrival = now
	if s.pending == nil {
		s.pending = make(map[model.CopyID]bool, len(t.ReadSet))
	}
	ri.roActive[t.ID] = s
	// ReadSet is sorted, so the send order is deterministic (map iteration
	// would reorder same-timestamp events between runs). roAddrs[i] is item
	// i's mailbox.
	addrs, mailboxes := ri.roAddrs[:0], ri.mailboxScratch[:0]
	for _, item := range t.ReadSet {
		c := model.CopyID{Item: item, Site: ri.pmap.Primary(item)}
		s.pending[c] = true
		to := ri.qmAddr(c)
		addrs = append(addrs, to)
		if !slices.Contains(mailboxes, to) {
			mailboxes = append(mailboxes, to)
		}
	}
	ri.roAddrs, ri.mailboxScratch = addrs, mailboxes
	for _, to := range mailboxes {
		members := ri.snapMembers[:0]
		for i, item := range t.ReadSet {
			if addrs[i] == to {
				members = append(members, item)
			}
		}
		ri.snapMembers = members
		s.messages += int64(len(members))
		ctx.Send(to, model.PooledSnapReadBatch(model.SnapReadBatchMsg{
			Txn:        t.ID,
			SnapMicros: snap,
			Site:       ri.site,
			Epoch:      ri.pmap.Epoch,
			CopySite:   to.ID,
			Members:    members,
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
	ctx.SetTimer(ri.computeMicros(&s.txn), model.PooledComputeDone(model.ComputeDoneMsg{Txn: s.txn.ID}))
}

func (ri *Issuer) onSnapReply(ctx engine.Context, v model.SnapReadReplyMsg) {
	if s := ri.roActive[v.Txn]; s != nil && ri.applySnapReply(s, v) && len(s.pending) == 0 {
		ri.startROCompute(ctx, s)
	}
}

// onSnapReplyBatch applies every member of a snapshot reply batch, then
// checks once whether the transaction's reads are all in (see
// onGrantBatch).
func (ri *Issuer) onSnapReplyBatch(ctx engine.Context, b *model.SnapReadReplyBatchMsg) {
	s := ri.roActive[b.Txn]
	if s == nil {
		return
	}
	applied := false
	for i := range b.Members {
		if ri.applySnapReply(s, b.Reply(i)) {
			applied = true
		}
	}
	if applied && len(s.pending) == 0 {
		ri.startROCompute(ctx, s)
	}
}

// applySnapReply records one copy's snapshot reply on s, reporting whether it
// counted (a duplicate, or one for a copy the transaction does not read, does
// not).
func (ri *Issuer) applySnapReply(s *roState, v model.SnapReadReplyMsg) bool {
	if !s.pending[v.Copy] {
		return false
	}
	delete(s.pending, v.Copy)
	if !v.Exact {
		ri.stats.ROStale++
	}
	return true
}

// finishRO commits a read-only snapshot transaction.
func (ri *Issuer) finishRO(ctx engine.Context, s *roState) {
	ri.stats.Committed++
	ri.stats.ROCommitted++
	ri.adm.onCommit(ctx.NowMicros(), ctx.NowMicros()-s.arrival)
	if ri.recorder != nil {
		ri.recorder.Committed(s.txn.ID, model.ROSnapshot)
	}
	ri.endRO(ctx, s, model.OutcomeCommitted)
}

// endRO reports a read-only snapshot transaction's terminal outcome — its
// commit, or a NAK that sheds it (the fast path has no restart machinery) —
// and recycles its state.
func (ri *Issuer) endRO(ctx engine.Context, s *roState, outcome model.TxnOutcome) {
	id := s.txn.ID
	ctx.Send(engine.CollectorAddr(), model.PooledTxnDone(model.TxnDoneMsg{
		Txn:                id,
		Protocol:           model.ROSnapshot,
		Outcome:            outcome,
		ArrivalMicros:      s.arrival,
		DoneMicros:         ctx.NowMicros(),
		FirstArrivalMicros: s.arrival,
		Attempts:           1,
		Size:               s.txn.Size(),
		Reads:              s.txn.NumReads(),
		Messages:           s.messages,
	}))
	delete(ri.roActive, id)
	ri.finished(ctx, id)
	ri.recycleRO(s)
}
