package ri

import (
	"slices"

	"ucc/internal/engine"
	"ucc/internal/model"
)

// Replica access is quorum access (Options.Quorum; read-one/write-all is
// Quorum{N, N, 1}): an item advances on any R (reads) or W (writes) of its
// copies, and a copy can be excluded from the attempt. A first attempt is
// thrifty: it requests only a quorum of each item's copies, the issuer's own
// first, and holds the rest as spares that are sent — hedged — only when the
// quorum stalls: on an exclusion, or, under W < N, when the sweep finds the
// attempt still short Options.RestartDelayMicros after it launched. Under
// W < N a restart requests every copy.

func predGranted(r *copyReq) bool   { return r.granted }
func predResponded(r *copyReq) bool { return r.responded }
func predNormal(r *copyReq) bool    { return r.normal }
func predAny(*copyReq) bool         { return true }

// gate evaluates an attempt-progress condition: each item needs pred on at
// least its quorum — W of the item's copies for writes, R for reads — among
// the copies not excluded from the attempt, a copy both read and written
// counting once, through its reqs entry. s.order is sorted by item, so one
// pass counts each item's run; an item whose copies are all excluded still
// has its run, so it can never pass vacuously. A held copy is not excluded,
// so gate(s, predAny) reports whether every item can still reach its quorum,
// spares included.
func (ri *Issuer) gate(s *txnState, pred func(*copyReq) bool) bool {
	for i := 0; i < len(s.order); {
		end, need := ri.itemRun(s, i)
		got := 0
		for ; i < end; i++ {
			if r := &s.order[i]; s.reqs[r.copyID] == r && !r.excluded && pred(r) {
				got++
			}
		}
		if got < need {
			return false
		}
	}
	return true
}

// itemRun returns the end of the run of s.order entries that starts at i,
// all of one item (s.order is sorted by item), and that item's quorum: W if
// the attempt writes it, R if it only reads it.
func (ri *Issuer) itemRun(s *txnState, i int) (end, need int) {
	item, need := s.order[i].copyID.Item, ri.opts.Quorum.R
	for end = i; end < len(s.order) && s.order[end].copyID.Item == item; end++ {
		if s.order[end].kind == model.OpWrite {
			need = ri.opts.Quorum.W
		}
	}
	return end, need
}

// eachCopy calls f for every copy an attempt of t may request under the
// current map: every replica, read or written. Any R copies answer a read:
// it must intersect every write quorum, and any single copy — the primary
// included — may be dead or lagging, so every copy is a candidate.
// holdSpares then holds back what a thrifty attempt does not request yet.
func (ri *Issuer) eachCopy(t *model.Txn, f func(model.ItemID, model.SiteID, model.OpKind)) {
	for _, item := range t.ReadSet {
		for _, site := range ri.pmap.Replicas(item) {
			f(item, site, model.OpRead)
		}
	}
	for _, item := range t.WriteSet {
		for _, site := range ri.pmap.Replicas(item) {
			f(item, site, model.OpWrite)
		}
	}
}

// preImage returns the value the attempt read for item: the freshest granted
// copy's. Quorum intersection guarantees at least one member of any R- or
// W-sized grant set carries the newest committed write, and the commit stamp
// identifies it.
func (ri *Issuer) preImage(s *txnState, item model.ItemID) int64 {
	var best *copyReq
	for i := range s.order {
		r := &s.order[i]
		if r.copyID.Item != item || r.excluded || !r.granted {
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

// holdSpares makes a thrifty attempt of s: each item requests only its
// quorum — W copies if it is written, R if it is only read — picked in
// copyRank order, and every other copy is held. Under W < N only a first
// attempt is thrifty: a restart requests every copy, and so does every
// attempt when Options.RestartDelayMicros is zero, which leaves no hedge
// window. Under W = N every attempt is: only a read holds spares, and
// asking all its copies would queue a lock request at each where read-one
// queues one, so a request at a copy the read does not need could close a
// deadlock cycle.
func (ri *Issuer) holdSpares(s *txnState) {
	if !ri.writeAll() && (ri.opts.RestartDelayMicros <= 0 || s.attempts > 1) {
		return
	}
	for i := 0; i < len(s.order); {
		end, need := ri.itemRun(s, i)
		for ; i < end; i++ {
			if r := &s.order[i]; ri.copyRank(r.copyID) >= need {
				r.held = true
				s.spares = true
			}
		}
	}
}

// copyRank is c's place in the order a thrifty attempt picks its item's
// copies: the issuer's own copy first when it holds one, then the copies
// after it in partition-map order, wrapping around. Every item an issuer
// shares with the same sites thus picks the same ones, and an attempt's
// chosen copies sit on as few mailboxes as the placement allows. An issuer
// holding no copy takes them in partition-map order. Copies on a site on
// probation come last, in the same order.
func (ri *Issuer) copyRank(c model.CopyID) int {
	reps := ri.pmap.Replicas(c.Item)
	mine, rank := ri.preference(reps, slices.Index(reps, c.Site)), 0
	for i := range reps {
		if ri.preference(reps, i) < mine {
			rank++
		}
	}
	return rank
}

// preference is copyRank's sort key for the copy at reps[i], lower first.
func (ri *Issuer) preference(reps []model.SiteID, i int) int {
	p := i
	if local := slices.Index(reps, ri.site); local >= 0 {
		p = (i - local + len(reps)) % len(reps)
	}
	if slices.Contains(ri.probation, reps[i]) {
		p += len(reps)
	}
	return p
}

// probate puts site on probation: a thrifty attempt ranks its copies after
// every other (copyRank), so a site that is down or saturated stops being
// picked first and stalling attempts until the sweep hedges them. Without
// it, issuers whose own copy sits on a dead site each hold their live copy
// and hedge to the one the other holds — a lock cycle per stall. This is
// the latency-induced probation of Dean and Barroso's "The Tail at Scale".
func (ri *Issuer) probate(site model.SiteID) {
	if !slices.Contains(ri.probation, site) {
		ri.probation = append(ri.probation, site)
	}
}

// heard takes site off probation: one of its copies granted or backed off
// to this issuer, so it answers again, whichever attempt the answer was
// for.
func (ri *Issuer) heard(site model.SiteID) {
	if i := slices.Index(ri.probation, site); i >= 0 {
		ri.probation = slices.Delete(ri.probation, i, i+1)
	}
}

// hedge requests every held spare of s, one RequestBatchMsg per mailbox,
// into the same attempt. A spare sent late is indistinguishable from a
// request the network delayed, which every protocol rule already tolerates.
func (ri *Issuer) hedge(ctx engine.Context, s *txnState) {
	ri.sendRequests(ctx, s, true)
	for i := range s.order {
		s.order[i].held = false
	}
	s.spares = false
	ri.stats.QuorumHedged++
}

// armSweep arms the issuer's one hedge sweep timer unless it is armed
// already. A timer per attempt would cost the runtime an allocation per
// transaction; one per issuer costs one per Options.RestartDelayMicros, and
// only while some attempt holds spares. Under W = N there is no sweep: the
// only spares are a read's other copies, and a chosen copy that has not
// granted yet is nearly always a round trip or a lock wait, not a dead
// site — hedging it would only put live sites on probation and add lock
// holders. Such spares go out on an exclusion alone, and a copy that never
// answers stalls a read as it stalls every write of its item.
func (ri *Issuer) armSweep(ctx engine.Context) {
	if !ri.sweepArmed && !ri.writeAll() {
		ri.sweepArmed = true
		ctx.SetTimer(ri.opts.RestartDelayMicros, model.TickMsg{})
	}
}

// onSweep hedges every attempt that holds spares and is still short of its
// quorum Options.RestartDelayMicros after it launched, in TxnID order so
// seeded runs stay reproducible: a chosen copy that never answers (a crashed
// or partitioned site) would otherwise stall the attempt. The sites of a
// hedged attempt's copies that have not answered go on probation. A PA
// attempt past finalization cannot take a spare (see excludeCopy), so it
// fails and restarts on every copy instead. The sweep re-arms while an
// attempt short of its quorum still holds spares.
func (ri *Issuer) onSweep(ctx engine.Context) {
	ri.sweepArmed = false
	due := ri.sweepScratch[:0]
	for _, s := range ri.active {
		if s.spares && (s.phase == phaseNegotiating || s.phase == phaseAwaitGrants) {
			due = append(due, s)
		}
	}
	slices.SortFunc(due, func(a, b *txnState) int { return a.txn.ID.Compare(b.txn.ID) })
	now := ctx.NowMicros()
	for _, s := range due {
		switch {
		case now-s.arrival < ri.opts.RestartDelayMicros:
			ri.armSweep(ctx)
		case s.finalized:
			ri.failAttempt(ctx, s, model.OutcomeBusy, model.OpRead, withdrawNone)
		default:
			for i := range s.order {
				if r := &s.order[i]; !r.held && !r.excluded && !r.responded {
					ri.probate(r.copyID.Site)
				}
			}
			ri.hedge(ctx, s)
		}
	}
	clear(due)
	ri.sweepScratch = due[:0]
}

// snapshotFastPath reports whether a read-only snapshot may take the fast
// path, which reads each item's primary copy alone. Only W = N has one: every
// committed write reached every copy, the primary included, while a smaller
// write quorum may have left the primary out, so a snapshot could miss a
// committed write that its other reads depend on.
func (ri *Issuer) snapshotFastPath() bool {
	return ri.writeAll() && !ri.opts.DisableROFastPath
}

// writeAll reports whether the quorum is read-one/write-all's: W = N, so
// every committed write reached every copy of its item.
func (ri *Issuer) writeAll() bool { return ri.opts.Quorum.W == ri.opts.Quorum.N }

// releases reports whether releaseAll releases request r: a copy once (a
// copy both read and written through its write request), and only a granted
// copy still in the quorum: the rest are withdrawUngranted's.
func (ri *Issuer) releases(s *txnState, r *copyReq) bool {
	return s.reqs[r.copyID] == r && !r.excluded && r.granted
}

// withdrawUngranted withdraws, at release time, every request that never
// granted: a hedged spare, or a chosen copy that lagged, lies outside the
// quorum that carried the commit, so its pending request is withdrawn
// instead of releasing a grant that never came. A held spare was never
// asked and needs nothing. The copy converges through log shipping, never
// through a write it did not accept. A lagging mailbox gets one withdrawal
// envelope for all of the attempt's copies it holds.
func (ri *Issuer) withdrawUngranted(ctx engine.Context, s *txnState) {
	ri.withdraw(ctx, s, func(r *copyReq) bool { return s.reqs[r.copyID] == r && !r.excluded && !r.granted })
}

// excludeCopy drops one copy from the attempt's quorum and withdraws its
// request: any entry it holds is retired so it cannot block other
// transactions, and none of its past or future responses count toward a
// gate. The copy converges later via log shipping. The attempt's held spares
// are hedged in to take its place — unless a PA attempt has already
// broadcast its final timestamp: a spare asked now could only answer as a
// straggler, so the attempt fails and restarts on every copy. It reports
// whether every item can still reach its quorum. When the copy's item cannot
// (under W = N, any written copy), it sends nothing: the caller fails the
// attempt, and that withdrawal is the copy's only one.
func (ri *Issuer) excludeCopy(ctx engine.Context, s *txnState, r *copyReq) bool {
	r.excluded = true
	if !ri.gate(s, predAny) {
		return false
	}
	ri.stats.QuorumExcluded++
	ri.withdraw(ctx, s, func(q *copyReq) bool { return q == r })
	if s.spares {
		if s.finalized {
			return false
		}
		ri.hedge(ctx, s)
	}
	return true
}

// absorbBusy reports whether the live attempt s survives a busy NAK for copy
// c: the copy leaves the attempt's quorum, its site goes on probation, and
// the attempt keeps waiting on the remaining members unless an item dropped
// below quorum. A duplicate NAK for a copy already withdrawn is absorbed too.
func (ri *Issuer) absorbBusy(ctx engine.Context, s *txnState, c model.CopyID) bool {
	r := s.reqs[c]
	if r == nil || r.excluded {
		return true
	}
	ri.probate(c.Site)
	return ri.excludeCopy(ctx, s, r)
}

// dropStraggler handles a PA back-off from copy r after the agreed timestamp
// was broadcast. Finalization waits for a quorum of responses, not every
// copy's, so such a straggler is expected, not a Lemma 1 violation: it
// leaves the quorum, and only dropping an item below quorum restarts the
// attempt (overload semantics, like a busy NAK).
func (ri *Issuer) dropStraggler(ctx engine.Context, s *txnState, r *copyReq) {
	if !ri.excludeCopy(ctx, s, r) {
		ri.adm.onBusy(ctx.NowMicros())
		ri.failAttempt(ctx, s, model.OutcomeBusy, r.kind, withdrawNone)
	}
}
