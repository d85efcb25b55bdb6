package ri

import (
	"slices"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/placement"
)

// wireOf drains the envelopes of type M actually sent (one per batch).
func wireOf[M model.Message](c *fakeCtx) (to []engine.Addr, msgs []M) {
	var rest []engine.Envelope
	for _, e := range c.wire {
		if m, ok := e.Msg.(M); ok {
			to = append(to, e.To)
			msgs = append(msgs, m)
		} else {
			rest = append(rest, e)
		}
	}
	c.wire = rest
	return to, msgs
}

// checkOnePerMailbox: exactly one envelope per distinct mailbox, each
// carrying that mailbox's copies in item order, and all of them together
// carrying exactly copies items.
func checkOnePerMailbox(t *testing.T, what string, to []engine.Addr, items [][]model.ItemID, site []model.SiteID, copies int) {
	t.Helper()
	seen := map[engine.Addr]bool{}
	total := 0
	for i, addr := range to {
		if seen[addr] {
			t.Fatalf("%s: two envelopes to %v", what, addr)
		}
		seen[addr] = true
		if site[i] != addr.ID {
			t.Fatalf("%s to %v names copy site %d", what, addr, site[i])
		}
		if !slices.IsSorted(items[i]) {
			t.Fatalf("%s to %v: members %v not in item order", what, addr, items[i])
		}
		total += len(items[i])
	}
	if total != copies {
		t.Fatalf("%s: %d members in all, want %d", what, total, copies)
	}
}

// TestWriteAllSendsOneBatchPerMailbox: a 4-item write-all transaction over 3
// sites (reads 0,1 at their primaries; writes 2,3 at both replicas: 6 copies
// at 3 mailboxes) opens with one RequestBatchMsg per mailbox and releases
// with one ReleaseBatchMsg per mailbox, each in item order — and still
// reports 12 per-copy protocol messages, what it reported when every copy
// travelled alone.
func TestWriteAllSendsOneBatchPerMailbox(t *testing.T) {
	iss, c := testIssuer(8, 3, 2)
	submit(iss, c, model.TwoPL, []model.ItemID{0, 1}, []model.ItemID{2, 3})

	to, reqs := wireOf[model.RequestBatchMsg](c)
	if len(c.wire) != 0 {
		t.Fatalf("the attempt opened with more than request batches: %+v", c.wire)
	}
	if len(to) != 3 {
		t.Fatalf("%d request envelopes, want one per mailbox (3)", len(to))
	}
	var items [][]model.ItemID
	var sites []model.SiteID
	for _, b := range reqs {
		var its []model.ItemID
		for _, m := range b.Members {
			its = append(its, m.Item)
		}
		items, sites = append(items, its), append(sites, b.CopySite)
	}
	checkOnePerMailbox(t, "request batch", to, items, sites, 6)

	for _, r := range take[model.RequestMsg](c) {
		lock := model.RL
		if r.Kind == model.OpWrite {
			lock = model.WL
		}
		grant(iss, c, r, lock, false)
	}
	fireTimers(iss, c) // compute done → release round
	to, rels := wireOf[model.ReleaseBatchMsg](c)
	items, sites = nil, nil
	for _, b := range rels {
		var its []model.ItemID
		for _, m := range b.Members {
			its = append(its, m.Item)
		}
		items, sites = append(items, its), append(sites, b.CopySite)
	}
	if len(to) != 3 {
		t.Fatalf("%d release envelopes, want one per mailbox (3)", len(to))
	}
	checkOnePerMailbox(t, "release batch", to, items, sites, 6)

	dones := take[model.TxnDoneMsg](c)
	if len(dones) != 1 || dones[0].Outcome != model.OutcomeCommitted {
		t.Fatalf("done = %+v", dones)
	}
	if dones[0].Messages != 12 {
		t.Fatalf("TxnDoneMsg.Messages = %d, want 12 (6 requests + 6 releases, counted per copy)", dones[0].Messages)
	}
}

// TestQuorumBatchesAndOneAdvancePerGrantBatch: under N3/W2/R2 a 4-item
// transaction's 12 copies go out as 3 request batches (one per site, 4
// members each), and a GrantBatchMsg moves the attempt forward once, after
// all of its members are in: the first site's batch leaves every item one
// grant short, the second completes every quorum and starts exactly one
// computing phase, and the third changes nothing.
func TestQuorumBatchesAndOneAdvancePerGrantBatch(t *testing.T) {
	iss, c := quorumIssuer()
	submit(iss, c, model.PA, []model.ItemID{0, 1}, []model.ItemID{2, 3})
	to, reqs := wireOf[model.RequestBatchMsg](c)
	if len(to) != 3 {
		t.Fatalf("%d request envelopes for 12 copies, want 3", len(to))
	}
	for i, b := range reqs {
		if len(b.Members) != 4 {
			t.Fatalf("batch to %v carries %d members, want 4", to[i], len(b.Members))
		}
	}
	take[model.RequestMsg](c)

	grantBatch := func(b model.RequestBatchMsg) model.GrantBatchMsg {
		g := model.GrantBatchMsg{Txn: b.Txn, Attempt: b.Attempt, CopySite: b.CopySite}
		for _, m := range b.Members {
			lock := model.RL
			if m.Kind == model.OpWrite {
				lock = model.WL
			}
			g.Members = append(g.Members, model.GrantMember{Item: m.Item, Lock: lock, TS: b.TS, Value: 7})
		}
		return g
	}
	for i, b := range reqs {
		// Pooled, as the transport and the runtime deliver it.
		iss.OnMessage(c, to[i], model.PooledGrantBatch(grantBatch(b)))
		want := 0
		if i >= 1 {
			want = 1
		}
		if len(c.timers) != want {
			t.Fatalf("after grant batch %d: %d compute timers, want %d", i, len(c.timers), want)
		}
	}
	fireTimers(iss, c)
	if dones := take[model.TxnDoneMsg](c); len(dones) != 1 || dones[0].Outcome != model.OutcomeCommitted {
		t.Fatalf("done = %+v", dones)
	}
	if _, rels := wireOf[model.ReleaseBatchMsg](c); len(rels) != 3 {
		t.Fatalf("%d release envelopes, want 3", len(rels))
	}
}

// TestIssuerRetainsNothingAfterFinish: without a history recorder (every
// node and the benchmark run without one) the issuer keeps no per-
// transaction state once a transaction is finished — the timestamp-order
// oracle used to grow by one entry per committed T/O or PA transaction for
// the life of the process.
func TestIssuerRetainsNothingAfterFinish(t *testing.T) {
	pm := placement.Build(placement.RoundRobin, 8, []model.SiteID{0, 1}, 1)
	iss := New(0, pm, nil, Options{PAIntervalMicros: 10, RestartDelayMicros: 100, DefaultComputeMicros: 50}, nil)
	c := newCtx()
	protocols := []model.Protocol{model.TwoPL, model.TO, model.PA}
	const txns = 1000
	for i := 0; i < txns; i++ {
		tx := model.NewTxn(model.TxnID{Site: 0, Seq: uint64(i + 1)}, protocols[i%3],
			[]model.ItemID{model.ItemID(i % 8)}, []model.ItemID{model.ItemID((i + 3) % 8)}, 50)
		iss.OnMessage(c, engine.DriverAddr(0), model.SubmitTxnMsg{Txn: tx})
		for _, r := range take[model.RequestMsg](c) {
			lock := model.RL
			if r.Kind == model.OpWrite {
				lock = model.WL
			}
			grant(iss, c, r, lock, false)
		}
		fireTimers(iss, c)
		c.sent, c.wire = nil, nil
	}
	if s := iss.Snapshot(); s.Committed != txns {
		t.Fatalf("committed %d of %d", s.Committed, txns)
	}
	if len(iss.active) != 0 || len(iss.finalTS) != 0 {
		t.Fatalf("after %d finished transactions the issuer retains %d active and %d final timestamps, want none",
			txns, len(iss.active), len(iss.finalTS))
	}
}
