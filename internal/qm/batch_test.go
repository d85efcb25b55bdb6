package qm

import (
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

// deliver hands a pooled copy of msg to m and recycles it once OnMessage
// returns, as the runtime's mailbox loop does.
func deliver(m *Manager, ctx *fakeCtx, msg model.RequestBatchMsg) {
	p := model.PooledRequestBatch(msg)
	m.OnMessage(ctx, engine.RIAddr(msg.Site), p)
	model.RecycleMessage(p)
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
	for _, g := range take[model.GrantMsg](ctx) {
		out[g.Txn] = append(out[g.Txn], g.Copy.Item)
	}
	return out
}

// TestRequestBatchAnsweredByOneGrantBatch: an uncontended batch earns one
// grant per member, and they leave as one envelope.
func TestRequestBatchAnsweredByOneGrantBatch(t *testing.T) {
	m, _ := testManager(4, true)
	ctx := newFakeCtx()
	deliver(m, ctx, batchOf(1, model.PA, model.OpWrite, 5, 0, 1, 3))
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
	m.OnMessage(ctx, engine.RIAddr(2), model.RequestMsg{
		Txn: model.TxnID{Site: 2, Seq: 9}, Protocol: model.TO, Kind: model.OpWrite,
		Copy: model.CopyID{Item: 1}, TS: 50, Site: 2,
	})
	ctx.sent = nil
	// An older T/O batch over items 0, 1, 2: item 0 grants, item 1 rejects,
	// item 2 grants.
	deliver(m, ctx, batchOf(1, model.TO, model.OpWrite, 10, 0, 1, 2))
	var kinds []string
	for _, env := range ctx.sent {
		switch v := env.Msg.(type) {
		case model.GrantBatchMsg:
			for _, g := range v.Members {
				kinds = append(kinds, "grant", string(rune('0'+g.Item)))
			}
		case model.GrantMsg:
			kinds = append(kinds, "single-grant", string(rune('0'+v.Copy.Item)))
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

	deliver(m, ctx, batchOf(1, model.PA, model.OpWrite, 5, 0, 1))
	deliver(m, ctx, batchOf(2, model.PA, model.OpRead, 6, 2, 3))
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

// TestBatchSpanningShardsIsSplit: a batch whose members hash to different
// shards (an issuer whose QMShards disagrees with the site's) is still
// handled member by member, each by the shard owning its item.
func TestBatchSpanningShardsIsSplit(t *testing.T) {
	m, _ := shardedManager(8, 4)
	ctx := newFakeCtx()
	deliver(m, ctx, batchOf(1, model.PA, model.OpWrite, 5, 0, 1, 2, 3, 4, 5, 6, 7))
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
