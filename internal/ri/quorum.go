package ri

import (
	"ucc/internal/engine"
	"ucc/internal/model"
)

// Replica access. By default reads go to the primary copy, writes to every
// replica (read-one/write-all), and an attempt advances once every request
// satisfies its phase's predicate. Options.Quorum switches to quorum mode:
// reads go to every copy too, an item advances on any R (reads) or W (writes)
// of its copies, and a copy can be excluded from the attempt. Every choice
// between the two modes is made in this file.

func predGranted(r *copyReq) bool   { return r.granted }
func predResponded(r *copyReq) bool { return r.responded }
func predNormal(r *copyReq) bool    { return r.normal }
func predAny(*copyReq) bool         { return true }

// gate evaluates an attempt-progress condition. In write-all mode every
// request must satisfy pred. In quorum mode each item group needs pred on at
// least its quorum — W of the item's copies for writes, R for reads — among
// the copies not excluded from the attempt; the group's need is counted even
// when every copy is excluded, so a fully-excluded item can never pass
// vacuously. gate(s, predAny) thus reports whether every item can still
// reach its quorum.
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

// eachCopy calls f for every copy an attempt of t requests under the current
// map: reads go to the primary copy (every copy in quorum mode), writes to
// every replica.
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

// preImage returns the value the attempt read for item. The freshest granted
// copy wins in quorum mode: quorum intersection guarantees at least one
// member of any R- or W-sized grant set carries the newest committed write,
// and the commit stamp identifies it. Write-all prefers the primary copy.
func (ri *Issuer) preImage(s *txnState, item model.ItemID) int64 {
	if ri.opts.Quorum != nil {
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
	if r, ok := s.reqs[model.CopyID{Item: item, Site: ri.pmap.Primary(item)}]; ok {
		return r.value
	}
	for i := range s.order {
		if r := &s.order[i]; r.copyID.Item == item {
			return r.value
		}
	}
	return 0
}

// releases reports whether releaseAll releases request r. Write-all releases
// every request. Quorum mode releases a copy once (a copy both read and
// written through its write request), and only a granted copy still in the
// quorum: the rest are withdrawUngranted's.
func (ri *Issuer) releases(s *txnState, r *copyReq) bool {
	return ri.opts.Quorum == nil || (s.reqs[r.copyID] == r && !r.excluded && r.granted)
}

// withdrawUngranted withdraws, at release time, every quorum request that
// never granted: the copy lies outside the quorum that carried the commit,
// so its pending request is withdrawn instead of releasing a grant that
// never came. The copy converges through log shipping, never through a write
// it did not accept. A lagging mailbox thus gets one withdrawal envelope for
// all of the attempt's copies it holds.
func (ri *Issuer) withdrawUngranted(ctx engine.Context, s *txnState) {
	if ri.opts.Quorum == nil {
		return
	}
	ri.withdraw(ctx, s, func(r *copyReq) bool { return s.reqs[r.copyID] == r && !r.excluded && !r.granted })
}

// excludeCopy drops one copy from the attempt's quorum and withdraws its
// request: any entry it holds is retired so it cannot block other
// transactions, and none of its past or future responses count toward a
// gate. The copy converges later via log shipping. It reports whether every
// item can still reach its quorum.
func (ri *Issuer) excludeCopy(ctx engine.Context, s *txnState, r *copyReq) bool {
	r.excluded = true
	ri.stats.QuorumExcluded++
	ri.withdraw(ctx, s, func(q *copyReq) bool { return q == r })
	return ri.gate(s, predAny)
}

// absorbBusy reports whether the live attempt s survives a busy NAK for copy
// c, which it does only in quorum mode: the copy leaves the attempt's quorum,
// and the attempt keeps waiting on the remaining members unless an item
// dropped below quorum. A duplicate NAK for a copy already withdrawn is
// absorbed too.
func (ri *Issuer) absorbBusy(ctx engine.Context, s *txnState, c model.CopyID) bool {
	if ri.opts.Quorum == nil {
		return false
	}
	r := s.reqs[c]
	return r == nil || r.excluded || ri.excludeCopy(ctx, s, r)
}

// dropStraggler handles a PA back-off from copy r after the agreed timestamp
// was broadcast, reporting whether quorum mode took it. Quorum finalization
// waits for W responses, not N, so such a straggler is expected, not a
// Lemma 1 violation: it leaves the quorum, and only dropping an item below
// quorum restarts the attempt (overload semantics, like a busy NAK).
func (ri *Issuer) dropStraggler(ctx engine.Context, s *txnState, r *copyReq) bool {
	if ri.opts.Quorum == nil {
		return false
	}
	if !ri.excludeCopy(ctx, s, r) {
		ri.adm.onBusy(ctx.NowMicros())
		ri.failAttempt(ctx, s, model.OutcomeBusy, r.kind, withdrawNone)
	}
	return true
}
