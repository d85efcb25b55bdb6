package ri

import (
	"ucc/internal/engine"
	"ucc/internal/model"
)

// nakTarget returns the live attempt a rejection, deadlock, busy or
// wrong-epoch NAK addresses, or nil when the NAK is stale or the attempt is
// already executing. Once every needed grant has arrived (computing, or a
// semi-converted T/O attempt awaiting normal grants) the queue managers hold
// the attempt as a resident and serve its releases, so it finishes rather
// than waste the held locks.
func (ri *Issuer) nakTarget(id model.TxnID, attempt model.Attempt) *txnState {
	s := ri.stateFor(id, attempt)
	if s == nil || s.phase == phaseComputing || s.phase == phaseAwaitNormal {
		return nil
	}
	return s
}

func (ri *Issuer) onReject(ctx engine.Context, v model.RejectMsg) {
	s := ri.nakTarget(v.Txn, v.Attempt)
	if s == nil || s.txn.Protocol != model.TO {
		return
	}
	ri.stats.Rejects++
	if v.Threshold >= ri.clock {
		ri.clock = v.Threshold + 1
	}
	// The copy that rejected the request holds no entry.
	ri.failAttempt(ctx, s, model.OutcomeRejected, s.kindAt(v.Copy), v.Copy)
}

func (ri *Issuer) onVictim(ctx engine.Context, v model.VictimMsg) {
	s := ri.nakTarget(v.Txn, v.Attempt)
	if s == nil || s.txn.Protocol != model.TwoPL {
		return
	}
	ri.stats.Victims++
	ri.failAttempt(ctx, s, model.OutcomeDeadlockVictim, model.OpRead, withdrawNone)
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
		ri.adm.onBusy(now)
		ri.stats.BusyNAKs++
		ri.stats.ROBusyShed++
		ri.endRO(ctx, ro, model.OutcomeBusy)
		return
	}
	s := ri.nakTarget(v.Txn, v.Attempt)
	if s == nil {
		return
	}
	// Congestion at any member is real AIMD feedback, even when a quorum
	// absorbs the busy copy and the attempt survives it.
	ri.adm.onBusy(now)
	ri.stats.BusyNAKs++
	if ri.absorbBusy(ctx, s, v.Copy) {
		return
	}
	// Withdraw EVERY request, including the NAK'd copy: a transport-
	// synthesized NAK (eviction, dropped batch) cannot know whether the
	// request reached the queue manager — a partially-received batch may
	// have left a resident entry that nothing else would ever retire if
	// this was the transaction's final attempt (MaxAttempts). A genuine QM
	// NAK queued nothing, and the QM treats an abort for an entry it never
	// held as a no-op, so the extra message is harmless there.
	ri.failAttempt(ctx, s, model.OutcomeBusy, s.kindAt(v.Copy), withdrawNone)
}

// onWrongEpoch handles a placement NAK: the request raced a partition-map
// change and reached a queue manager that no longer owns the addressed copy.
// The NAK piggybacks the authoritative map, so the issuer installs it and
// restarts the attempt against the new placement. Unlike a busy NAK this is
// not congestion feedback — the admission window is left alone: the cluster
// has capacity, the router was merely stale. Read-only snapshot transactions
// are shed terminally, exactly as under onBusy — the fast path has no
// restart machinery, the client retries against the (now corrected) map. An
// attempt whose needed grants all arrived before the flip finishes: the old
// owner admitted it as a resident and serves its releases through the drain.
func (ri *Issuer) onWrongEpoch(ctx engine.Context, v model.WrongEpochMsg) {
	ri.installMap(&v.Map)
	if ro := ri.roActive[v.Txn]; ro != nil && ro.pending[v.Copy] {
		ri.stats.WrongEpochNAKs++
		ri.endRO(ctx, ro, model.OutcomeBusy)
		return
	}
	s := ri.nakTarget(v.Txn, v.Attempt)
	if s == nil {
		return
	}
	ri.stats.WrongEpochNAKs++
	// Withdraw every request: entries parked at still-owned copies must not
	// outlive the attempt, and the old owner treats an abort for an entry it
	// never held (or already NAK'd) as a no-op.
	ri.failAttempt(ctx, s, model.OutcomeBusy, s.kindAt(v.Copy), withdrawNone)
}

// withdrawNone is failAttempt's skip sentinel meaning "withdraw every copy":
// Item -1 can never name a real copy (item ids are non-negative).
var withdrawNone = model.CopyID{Item: -1}

// failAttempt ends the attempt s on a NAK: it reports the attempt with the
// operation kind the NAK'd copy was requested for, withdraws every request
// but skip's (pass withdrawNone to withdraw all), and schedules the restart
// or the MaxAttempts drop. The attempt's held spares are never asked.
func (ri *Issuer) failAttempt(ctx engine.Context, s *txnState, outcome model.TxnOutcome, kind model.OpKind, skip model.CopyID) {
	ri.reportAttempt(ctx, s, outcome, kind)
	ri.withdraw(ctx, s, func(r *copyReq) bool { return r.copyID != skip })
	s.spares = false
	ri.scheduleRestart(ctx, s)
}

// withdraw aborts the attempt's requests at every copy pick selects: one
// AbortBatchMsg per queue-manager mailbox, carrying that mailbox's selected
// copies in item order (see sendRequests). It is the issuer's only withdraw
// path — a NAK'd attempt, a quorum exclusion and the un-granted copies of a
// quorum commit all leave through it — so a mailbox gets one envelope per
// withdrawal however many of its copies go. A held spare was never
// requested, so there is nothing to withdraw.
func (ri *Issuer) withdraw(ctx engine.Context, s *txnState, pick func(*copyReq) bool) {
	for _, to := range ri.mailboxes(s) {
		members := ri.abortMembers[:0]
		for i := range s.order {
			if r := &s.order[i]; r.to == to && !r.held && pick(r) {
				members = append(members, r.copyID.Item)
			}
		}
		ri.abortMembers = members
		if len(members) == 0 {
			continue
		}
		s.messages += int64(len(members))
		ctx.Send(to, model.PooledAbortBatch(model.AbortBatchMsg{
			Txn: s.txn.ID, Attempt: s.attempt, CopySite: to.ID, Members: members,
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
		ri.stats.Dropped++
		ri.retire(ctx, s)
		return
	}
	s.attempt++
	delay := ri.rawRestartDelay(s.attempts)
	if delay > 0 {
		delay = delay/2 + ctx.Rand().Int63n(delay) // ±50% jitter, kept from the flat scheme
	}
	ctx.SetTimer(delay, model.PooledRestart(model.RestartMsg{Txn: s.txn.ID, Attempt: s.attempt}))
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
