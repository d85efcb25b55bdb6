package ri

import (
	"bytes"
	"fmt"
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
// transaction's first attempt asks 8 of its 12 copies: site 0's own and
// those at site 1, the next in partition-map order. They go out as 2
// request batches, one per site, 4 members each, and a GrantBatchMsg moves
// the attempt forward once, after all of its members are in: site 0's batch
// leaves every item one grant short, and site 1's completes every quorum and
// starts exactly one computing phase. The release round has one batch per
// site and withdraws nothing: the spares at site 2 were never asked.
func TestQuorumBatchesAndOneAdvancePerGrantBatch(t *testing.T) {
	iss, c := quorumIssuer()
	submit(iss, c, model.PA, []model.ItemID{0, 1}, []model.ItemID{2, 3})
	to, reqs := wireOf[model.RequestBatchMsg](c)
	if len(to) != 2 {
		t.Fatalf("%d request envelopes for 8 copies, want 2", len(to))
	}
	var items [][]model.ItemID
	var sites []model.SiteID
	for i, b := range reqs {
		var its []model.ItemID
		for _, m := range b.Members {
			its = append(its, m.Item)
		}
		if b.CopySite != model.SiteID(i) || !slices.Equal(its, []model.ItemID{0, 1, 2, 3}) {
			t.Fatalf("request batch %d to site %d carries %v, want items 0-3 to site %d", i, b.CopySite, its, i)
		}
		items, sites = append(items, its), append(sites, b.CopySite)
	}
	checkOnePerMailbox(t, "request batch", to, items, sites, 8)
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
		if i == len(reqs)-1 {
			want = 1
		}
		if n := timersOf[*model.ComputeDoneMsg](c); n != want {
			t.Fatalf("after grant batch %d: %d compute timers, want %d", i, n, want)
		}
	}
	fireTimers(iss, c)
	if dones := take[model.TxnDoneMsg](c); len(dones) != 1 || dones[0].Outcome != model.OutcomeCommitted {
		t.Fatalf("done = %+v", dones)
	}
	if _, rels := wireOf[model.ReleaseBatchMsg](c); len(rels) != 2 {
		t.Fatalf("%d release envelopes, want 2", len(rels))
	}
	if _, aborts := wireOf[model.AbortBatchMsg](c); len(aborts) != 0 {
		t.Fatalf("withdrawals %+v, want none", aborts)
	}
}

// TestROScatterOneEnvelopePerMailbox: an 8-item read-only snapshot
// transaction over 3 sites (4, 3 and 1 items) reads with one
// SnapReadBatchMsg per queue-manager mailbox, members in item order, with
// one and with two shards per site. The one-item group goes out as a batch
// of one whose bytes are those of the SnapReadMsg it stands for. The
// transaction starts computing once, after the last reply batch, and still
// reports 8 per-copy messages.
func TestROScatterOneEnvelopePerMailbox(t *testing.T) {
	reads := []model.ItemID{0, 1, 2, 3, 4, 6, 7, 9}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			pm := placement.Build(placement.RoundRobin, 12, []model.SiteID{0, 1, 2}, 1)
			iss := New(0, pm, nil, Options{DefaultComputeMicros: 50, QMShards: shards}, nil)
			c := newCtx()
			tx := model.NewTxn(model.TxnID{Site: 0, Seq: 5}, model.ROSnapshot, reads, nil, 50)
			iss.OnMessage(c, engine.DriverAddr(0), model.SubmitTxnMsg{Txn: tx})

			to, batches := wireOf[model.SnapReadBatchMsg](c)
			if len(c.wire) != 0 {
				t.Fatalf("the scatter sent more than snapshot-read batches: %+v", c.wire)
			}
			mailboxes := map[engine.Addr]bool{}
			for _, item := range reads {
				mailboxes[engine.QMShardAddr(pm.Primary(item), model.ShardOfItem(item, shards))] = true
			}
			if len(to) != len(mailboxes) {
				t.Fatalf("%d envelopes for %d mailboxes", len(to), len(mailboxes))
			}
			var items [][]model.ItemID
			var sites []model.SiteID
			ones := 0
			for i, b := range batches {
				for _, item := range b.Members {
					if want := engine.QMShardAddr(pm.Primary(item), model.ShardOfItem(item, shards)); want != to[i] {
						t.Fatalf("item %d went to %v, its mailbox is %v", item, to[i], want)
					}
				}
				items, sites = append(items, b.Members), append(sites, b.CopySite)
				if len(b.Members) != 1 {
					continue
				}
				ones++
				single := model.SnapReadMsg{
					Txn: tx.ID, Copy: model.CopyID{Item: b.Members[0], Site: to[i].ID}, SnapMicros: b.SnapMicros, Site: 0,
				}
				got, _ := model.AppendBody(nil, new(model.WireStream), b)
				want, _ := model.AppendBody(nil, new(model.WireStream), single)
				if tag, _ := model.MessageTag(b); tag != model.TagSnapRead || !bytes.Equal(got, want) {
					t.Fatalf("a batch of one travels under tag %d as %x, its SnapReadMsg as %x", tag, got, want)
				}
			}
			if ones == 0 {
				t.Fatal("no one-item group: the case does not exercise a batch of one")
			}
			checkOnePerMailbox(t, "snapshot-read batch", to, items, sites, len(reads))

			for i, b := range batches {
				reply := model.SnapReadReplyBatchMsg{Txn: b.Txn, Attempt: b.Attempt, CopySite: b.CopySite}
				for _, item := range b.Members {
					reply.Members = append(reply.Members, model.SnapReadReplyMember{Item: item, Value: 1, Exact: true})
				}
				if len(c.timers) != 0 {
					t.Fatalf("computing before reply batch %d of %d", i, len(batches))
				}
				iss.OnMessage(c, to[i], model.PooledSnapReadReplyBatch(reply))
			}
			if len(c.timers) != 1 {
				t.Fatalf("%d compute timers after the last reply batch, want 1", len(c.timers))
			}
			fireTimers(iss, c)
			dones := take[model.TxnDoneMsg](c)
			if len(dones) != 1 || dones[0].Outcome != model.OutcomeCommitted {
				t.Fatalf("done = %+v", dones)
			}
			if dones[0].Messages != int64(len(reads)) {
				t.Fatalf("TxnDoneMsg.Messages = %d, want %d (one per copy read)", dones[0].Messages, len(reads))
			}
		})
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

// abortMembers lists each withdrawal envelope's items and copy site.
func abortMembers(aborts []model.AbortBatchMsg) (items [][]model.ItemID, sites []model.SiteID) {
	for _, b := range aborts {
		items, sites = append(items, b.Members), append(sites, b.CopySite)
	}
	return items, sites
}

// TestLaggingMailboxIsWithdrawnOnce: a quorum write of four items whose
// copies at site 1 never grant. The first attempt asks sites 0 and 1; site
// 0's grants leave every item one short, so the sweep hedges in the spares
// at site 2, whose grants complete the attempt. At release site 1 holds four
// ungranted requests and gets all four withdrawals in one envelope, beside
// one release batch per granting mailbox, and the transaction still reports
// one protocol message per copy.
func TestLaggingMailboxIsWithdrawnOnce(t *testing.T) {
	iss, c := quorumIssuer()
	submit(iss, c, model.TwoPL, nil, []model.ItemID{0, 1, 2, 3})
	granting := func() {
		var reqs []model.RequestMsg
		for _, r := range take[model.RequestMsg](c) {
			if r.Copy.Site != 1 {
				reqs = append(reqs, r)
			}
		}
		grantAll(iss, c, reqs)
	}
	granting()
	if n := timersOf[*model.ComputeDoneMsg](c); n != 0 {
		t.Fatal("computing on one grant per item")
	}
	sweepAt(iss, c, 100)
	granting()
	c.wire = nil
	fireTimers(iss, c) // compute done: the release round
	to, aborts := wireOf[model.AbortBatchMsg](c)
	if len(to) != 1 || to[0].ID != 1 || !slices.Equal(aborts[0].Members, []model.ItemID{0, 1, 2, 3}) {
		t.Fatalf("withdrawals %+v to %v, want one to site 1 carrying items 0-3", aborts, to)
	}
	items, sites := abortMembers(aborts)
	checkOnePerMailbox(t, "abort batch", to, items, sites, 4)
	if relTo, _ := wireOf[model.ReleaseBatchMsg](c); len(relTo) != 2 {
		t.Fatalf("%d release envelopes, want one per granting mailbox (2)", len(relTo))
	}
	dones := take[model.TxnDoneMsg](c)
	if len(dones) != 1 || dones[0].Outcome != model.OutcomeCommitted || dones[0].Messages != 8+4+8+4 {
		t.Fatalf("done = %+v, want committed with 24 per-copy messages (8 requests, 4 hedged, 8 releases, 4 withdrawals)", dones)
	}
}

// TestFailedAttemptWithdrawsOncePerMailbox: a NAK'd attempt (here a deadlock
// victim) withdraws every copy with one envelope per mailbox, each carrying
// that mailbox's copies in item order.
func TestFailedAttemptWithdrawsOncePerMailbox(t *testing.T) {
	iss, c := testIssuer(8, 3, 2)
	tx := submit(iss, c, model.TwoPL, []model.ItemID{0, 1}, []model.ItemID{2, 3})
	c.wire = nil
	iss.OnMessage(c, engine.DetectorAddr(), model.VictimMsg{Txn: tx.ID, Attempt: 0})
	to, aborts := wireOf[model.AbortBatchMsg](c)
	if len(to) != 3 {
		t.Fatalf("%d withdrawal envelopes (%+v), want one per mailbox (3)", len(to), aborts)
	}
	items, sites := abortMembers(aborts)
	checkOnePerMailbox(t, "abort batch", to, items, sites, 6)
}
