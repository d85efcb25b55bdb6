package qm

import (
	"fmt"
	"reflect"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
)

// batchOf is a request batch from issuer site 1 for items, all of one kind.
func batchOf(txn uint64, p model.Protocol, kind model.OpKind, ts model.Timestamp, items ...model.ItemID) model.RequestBatchMsg {
	b := model.RequestBatchMsg{
		Txn: model.TxnID{Site: 1, Seq: txn}, Protocol: p, TS: ts, Interval: 10, Site: 1,
	}
	for _, it := range items {
		b.Members = append(b.Members, model.RequestMember{Item: it, Kind: kind})
	}
	return b
}

// grantedItems expands the grant batches (and single grants) sent to the
// issuer into the items they grant, per transaction.
func grantedItems(ctx *fakeCtx) map[model.TxnID][]model.ItemID {
	out := map[model.TxnID][]model.ItemID{}
	for _, b := range take[model.GrantBatchMsg](ctx) {
		for _, g := range b.Members {
			out[b.Txn] = append(out[b.Txn], g.Item)
		}
	}
	for _, g := range takeGrants(ctx) {
		out[g.Txn] = append(out[g.Txn], g.Copy.Item)
	}
	return out
}

// TestRequestBatchAnsweredByOneGrantBatch: an uncontended batch earns one
// grant per member, and they leave as one envelope.
func TestRequestBatchAnsweredByOneGrantBatch(t *testing.T) {
	m, _ := testManager(4, true)
	ctx := newFakeCtx()
	deliver(m, ctx, engine.RIAddr(1), batchOf(1, model.PA, model.OpWrite, 5, 0, 1, 3))
	batches := take[model.GrantBatchMsg](ctx)
	if len(batches) != 1 || len(ctx.sent) != 0 {
		t.Fatalf("replies: %d grant batches + %+v, want exactly one grant batch", len(batches), ctx.sent)
	}
	b := batches[0]
	if b.Txn != (model.TxnID{Site: 1, Seq: 1}) || b.CopySite != 0 || len(b.Members) != 3 {
		t.Fatalf("grant batch = %+v", b)
	}
	for i, want := range []model.ItemID{0, 1, 3} {
		if g := b.Grant(i); g.Copy.Item != want || g.Lock != model.WL || g.Value != 100 || g.TS != 5 {
			t.Fatalf("member %d = %+v", i, g)
		}
	}
	if c := m.Snapshot(); c.Requests != 3 || c.Grants != 3 {
		t.Fatalf("counters %+v: a batch counts per copy", c)
	}
}

// TestGrantBatchKeepsReplyOrder: a reply to the same issuer that is not one
// of the batch's own grants — here a rejection of a later member — sends the
// grants held so far first, so the issuer sees grant-then-reject, the order
// single requests would have produced.
func TestGrantBatchKeepsReplyOrder(t *testing.T) {
	m, _ := testManager(3, true)
	ctx := newFakeCtx()
	// A T/O write at item 1 with timestamp 50 raises W-TS there.
	deliver(m, ctx, engine.RIAddr(2), model.RequestMsg{
		Txn: model.TxnID{Site: 2, Seq: 9}, Protocol: model.TO, Kind: model.OpWrite,
		Copy: model.CopyID{Item: 1}, TS: 50, Site: 2,
	})
	ctx.sent = nil
	// An older T/O batch over items 0, 1, 2: item 0 grants, item 1 rejects,
	// item 2 grants.
	deliver(m, ctx, engine.RIAddr(1), batchOf(1, model.TO, model.OpWrite, 10, 0, 1, 2))
	var kinds []string
	for _, env := range ctx.sent {
		switch v := env.Msg.(type) {
		case model.GrantBatchMsg:
			for _, g := range v.Members {
				kinds = append(kinds, "grant", string(rune('0'+g.Item)))
			}
		case model.RejectMsg:
			kinds = append(kinds, "reject", string(rune('0'+v.Copy.Item)))
		}
	}
	want := []string{"grant", "0", "reject", "1", "grant", "2"}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("replies %v, want %v", kinds, want)
	}
	if len(ctx.sent) != 3 {
		t.Fatalf("%d envelopes, want 3 (a grant batch of one, the reject, a grant batch of one)", len(ctx.sent))
	}
}

// TestCrashDefersBatchWithItsOwnMembers: a batch that reaches a crashed site
// waits for recovery and is then handled with its own members — although the
// pooled message it arrived in was recycled when OnMessage returned and its
// members array handed to the next batch. A deferral that kept the pooled
// array (a shallow UnpoolMessage) would replay the second batch's items
// under the first batch's transaction.
func TestCrashDefersBatchWithItsOwnMembers(t *testing.T) {
	m, _ := testManager(4, true)
	m.SetDurable(&fakeDurable{st: m.store, saved: m.store.Chains()})
	ctx := newFakeCtx()
	m.OnMessage(ctx, engine.RIAddr(1), model.CrashMsg{})

	deliver(m, ctx, engine.RIAddr(1), batchOf(1, model.PA, model.OpWrite, 5, 0, 1))
	deliver(m, ctx, engine.RIAddr(1), batchOf(2, model.PA, model.OpRead, 6, 2, 3))
	if len(ctx.sent) != 0 {
		t.Fatalf("replies while down: %+v", ctx.sent)
	}
	if d := m.Snapshot().Deferred; d != 2 {
		t.Fatalf("deferred %d messages, want the 2 batches", d)
	}

	m.OnMessage(ctx, engine.RIAddr(1), model.RecoverMsg{})
	got := grantedItems(ctx)
	want := map[model.TxnID][]model.ItemID{
		{Site: 1, Seq: 1}: {0, 1},
		{Site: 1, Seq: 2}: {2, 3},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovery granted %v, want %v", got, want)
	}
}

// snapBatchOf is a snapshot-read batch from issuer site 1 for items at site 0.
func snapBatchOf(txn uint64, items ...model.ItemID) model.SnapReadBatchMsg {
	return model.SnapReadBatchMsg{Txn: model.TxnID{Site: 1, Seq: txn}, SnapMicros: 1 << 40, Site: 1, Members: items}
}

// deliverSnap hands a pooled copy of b to m, as deliver does.
func deliverSnap(m *Manager, ctx engine.Context, b model.SnapReadBatchMsg) {
	p := model.PooledSnapReadBatch(b)
	m.OnMessage(ctx, engine.RIAddr(b.Site), p)
	model.RecycleMessage(p)
}

// repliedItems lists, in send order, the items the snapshot replies sent so
// far answer, and how many envelopes carried them.
func repliedItems(sent []engine.Envelope) (items []model.ItemID, envelopes int) {
	for _, env := range sent {
		switch v := env.Msg.(type) {
		case model.SnapReadReplyBatchMsg:
			for _, r := range v.Members {
				items = append(items, r.Item)
			}
		default:
			continue
		}
		envelopes++
	}
	return items, envelopes
}

// TestSnapReadBatchAnsweredOnce: a snapshot-read batch is handled member by
// member exactly as the SnapReadMsgs it stands for, and the members served
// while the shard handles it leave as one reply batch.
func TestSnapReadBatchAnsweredOnce(t *testing.T) {
	t.Run("one reply batch", func(t *testing.T) {
		m, _ := testManager(4, true)
		ctx := newFakeCtx()
		deliverSnap(m, ctx, snapBatchOf(1, 0, 1, 3))
		replies := take[model.SnapReadReplyBatchMsg](ctx)
		if len(replies) != 1 || len(ctx.sent) != 0 {
			t.Fatalf("replies: %d reply batches + %+v, want exactly one reply batch", len(replies), ctx.sent)
		}
		b := replies[0]
		if b.Txn != (model.TxnID{Site: 1, Seq: 1}) || b.CopySite != 0 || len(b.Members) != 3 {
			t.Fatalf("reply batch = %+v", b)
		}
		for i, want := range []model.ItemID{0, 1, 3} {
			if r := b.Reply(i); r.Copy.Item != want || r.Value != 100 || !r.Exact {
				t.Fatalf("member %d = %+v", i, r)
			}
		}
		if c := m.Snapshot(); c.SnapReads != 3 {
			t.Fatalf("SnapReads = %d, want 3: a batch counts per copy", c.SnapReads)
		}
	})

	t.Run("parked member waits for the un-park", func(t *testing.T) {
		m, ctx, _, _ := exposureSite(t, 1, 0)
		ri := engine.RIAddr(1)
		deliver(m, ctx, ri, req(1, model.TwoPL, model.OpWrite, 2, model.NoTimestamp))
		takeGrants(ctx.fakeCtx)
		deliver(m, ctx, ri, writeRelease(1, 2, 7, 100)) // parks item 2
		deliverSnap(m, ctx, snapBatchOf(2, 1, 2, 3))
		if items, n := repliedItems(ctx.sent); n != 1 || !reflect.DeepEqual(items, []model.ItemID{1, 3}) {
			t.Fatalf("before the sync: %d envelopes answering %v, want one answering [1 3]", n, items)
		}
		ctx.sent = nil
		ctx.fire()
		r := takeSnapReplies(ctx.fakeCtx)
		if len(r) != 1 || r[0].Copy.Item != 2 || r[0].Value != 7 {
			t.Fatalf("after the sync: replies %+v, want item 2 with the synced value 7", r)
		}
		if c := m.Snapshot(); c.SnapReads != 3 {
			t.Fatalf("SnapReads = %d, want 3", c.SnapReads)
		}
	})

	t.Run("NAKs leave after the held replies", func(t *testing.T) {
		m, _ := testManager(4, true)
		m.SetPartitionMap(&model.PartitionMap{Epoch: 1, Assignments: [][]model.SiteID{{0}, {0}, {1}, {0}}})
		m.shardFor(3).pending[3] = true // sealed mid-transfer
		ctx := newFakeCtx()
		deliverSnap(m, ctx, snapBatchOf(1, 0, 1, 2, 3))
		var got []string
		for _, env := range ctx.sent {
			switch v := env.Msg.(type) {
			case model.SnapReadReplyBatchMsg:
				items, _ := repliedItems([]engine.Envelope{env})
				got = append(got, fmt.Sprintf("replies%d", items))
			case model.WrongEpochMsg:
				got = append(got, fmt.Sprintf("wrong-epoch%d", v.Copy.Item))
			case model.BusyMsg:
				got = append(got, fmt.Sprintf("busy%d", v.Copy.Item))
			default:
				got = append(got, fmt.Sprintf("%T", v))
			}
		}
		if want := []string{"replies[0 1]", "wrong-epoch2", "busy3"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("sent %v, want %v (items 0 and 1 in one batch, then the NAKs)", got, want)
		}
		if c := m.Snapshot(); c.SnapReads != 2 || c.WrongEpoch != 1 || c.Busy != 1 {
			t.Fatalf("counters %+v, want 2 reads, 1 wrong-epoch NAK, 1 busy NAK", c)
		}
	})

	t.Run("batch spanning shards is split in member order", func(t *testing.T) {
		m, _ := shardedManager(8, 2)
		ctx := newFakeCtx()
		all := []model.ItemID{0, 1, 2, 3, 4, 5, 6, 7}
		deliverSnap(m, ctx, snapBatchOf(1, all...))
		runs := 1
		for i := 1; i < len(all); i++ {
			if model.ShardOfItem(all[i], 2) != model.ShardOfItem(all[i-1], 2) {
				runs++
			}
		}
		items, n := repliedItems(ctx.sent)
		if !reflect.DeepEqual(items, all) || n != runs {
			t.Fatalf("%d envelopes answering %v, want %d (one per run of same-shard members) answering %v", n, items, runs, all)
		}
		if runs == 1 {
			t.Fatal("every item hashed to one shard: the case does not exercise a split")
		}
	})
}

// TestSnapReadBatchAllocatesNothing: a snapshot-read batch and its reply
// batch cost the queue manager no allocation once the shard's reply scratch
// and the pools are warm.
func TestSnapReadBatchAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m, _ := testManager(8, true)
	m.recorder = nil
	var ctx drainCtx
	b := snapBatchOf(1, 0, 2, 3, 5, 7)
	deliverSnap(m, &ctx, b)
	if got := testing.AllocsPerRun(200, func() { deliverSnap(m, &ctx, b) }); got != 0 {
		t.Fatalf("one snapshot-read batch allocates %.0f times, want 0", got)
	}
}

// TestAbortBatchAllocatesNothing: an attempt opened at one mailbox by a
// request batch and withdrawn there by one pooled AbortBatchMsg — a quorum
// write's lagging copy, or a NAK'd attempt — costs the queue manager no
// allocation once the pools are warm, and every member is withdrawn.
func TestAbortBatchAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m, _ := testManager(8, true)
	m.recorder = nil
	var ctx drainCtx
	open := batchOf(1, model.TwoPL, model.OpWrite, model.NoTimestamp, 0, 2, 3, 5)
	withdraw := model.AbortBatchMsg{Txn: open.Txn, Members: []model.ItemID{0, 2, 3, 5}}
	cycle := func() {
		p := model.PooledRequestBatch(open)
		deliver(m, &ctx, engine.RIAddr(1), p)
		model.RecycleMessage(p)
		a := model.PooledAbortBatch(withdraw)
		deliver(m, &ctx, engine.RIAddr(1), a)
		model.RecycleMessage(a)
	}
	cycle()
	if got := testing.AllocsPerRun(200, cycle); got != 0 {
		t.Fatalf("a request batch and its withdrawal allocate %.0f times, want 0", got)
	}
	if c := m.Snapshot(); c.Aborts != 4*202 { // AllocsPerRun warms up with one run of its own
		t.Fatalf("%d aborts over 202 withdrawals of 4 copies, want %d", c.Aborts, 4*202)
	}
	for _, item := range withdraw.Members {
		if d := m.QueueDepth(item); d != 0 {
			t.Fatalf("item %d keeps %d entries after the withdrawal", item, d)
		}
	}
}

// TestBatchSpanningShardsIsSplit: a batch whose members hash to different
// shards (an issuer whose QMShards disagrees with the site's) is still
// handled member by member, each by the shard owning its item.
func TestBatchSpanningShardsIsSplit(t *testing.T) {
	m, _ := shardedManager(8, 4)
	ctx := newFakeCtx()
	deliver(m, ctx, engine.RIAddr(1), batchOf(1, model.PA, model.OpWrite, 5, 0, 1, 2, 3, 4, 5, 6, 7))
	got := grantedItems(ctx)[model.TxnID{Site: 1, Seq: 1}]
	if len(got) != 8 {
		t.Fatalf("granted items %v, want all 8", got)
	}
	for i := 0; i < 8; i++ {
		if m.QueueDepth(model.ItemID(i)) != 1 {
			t.Fatalf("item %d not queued at its shard", i)
		}
	}
}
