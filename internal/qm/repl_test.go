package qm

import (
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/repl"
	"ucc/internal/storage"
	"ucc/internal/wal"
)

// replSite builds site 0 of a quorum cluster over a real site log: items
// 0..7, catch-up peers 1 and 2.
func replSite(t *testing.T) (*Manager, *storage.Store, *wal.SiteLog) {
	t.Helper()
	st := storage.NewStore(0)
	for i := 0; i < 8; i++ {
		st.Create(model.ItemID(i), 100)
	}
	sl, err := wal.Open(wal.NewMemMedia(), st, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.SetJournal(sl)
	m := New(0, st, nil, Options{})
	m.SetDurable(sl)
	m.SetReplication(repl.NewPuller(repl.Options{Site: 0, Peers: []model.SiteID{1, 2}}), sl)
	return m, st, sl
}

func shippedRec(seq uint64, item model.ItemID, stamp int64) wal.Record {
	return wal.Record{Seq: seq, Item: item, Txn: model.TxnID{Site: 2, Seq: seq}, Value: stamp, Version: seq, CommitMicros: stamp}
}

func frameAll(recs ...wal.Record) []byte {
	var b []byte
	for _, r := range recs {
		b = wal.AppendRecordFrame(b, r)
	}
	return b
}

// TestTornBatchWithMoreWaitsForTheTick: a batch whose last frame is damaged
// applies its intact prefix and leaves the watermark alone. With More set,
// re-pulling at once would send the same watermark and fetch the same batch
// again, for as long as the damage repeats; the periodic tick re-pulls
// instead.
func TestTornBatchWithMoreWaitsForTheTick(t *testing.T) {
	m, st, _ := replSite(t)
	ctx := newFakeCtx()
	frames := frameAll(shippedRec(1, 1, 10), shippedRec(2, 2, 20), shippedRec(3, 3, 30))
	frames[len(frames)-1] ^= 0x01
	m.OnMessage(ctx, engine.QMAddr(2), model.ReplRecordsMsg{From: 2, Frames: frames, NextAfterSeq: 3, More: true})
	if pulls := take[model.ReplPullMsg](ctx); len(pulls) != 0 {
		t.Fatalf("torn batch re-pulled at once: %+v", pulls)
	}
	if c := m.Snapshot(); c.ReplApplied != 2 {
		t.Fatalf("applied %d records of the intact prefix, want 2", c.ReplApplied)
	}
	if v, _ := st.Read(2); v != 20 {
		t.Fatalf("item 2 holds %d, want the shipped 20", v)
	}
	if mark := m.ReplWatermarks()[2]; mark != 0 {
		t.Fatalf("watermark moved to %d past a torn batch", mark)
	}
	// The same batch intact: the mark moves, so More re-pulls from it.
	frames[len(frames)-1] ^= 0x01
	m.OnMessage(ctx, engine.QMAddr(2), model.ReplRecordsMsg{From: 2, Frames: frames, NextAfterSeq: 3, More: true})
	pulls := take[model.ReplPullMsg](ctx)
	if len(pulls) != 1 || pulls[0].AfterSeq != 3 || pulls[0].Have != nil {
		t.Fatalf("intact batch with More: pulls %+v, want one from seq 3 with no digest", pulls)
	}
}

// TestOnlyPeriodicPullsCarryTheDigest: the tick's pulls all carry the one
// digest of what was journaled since the previous tick; the next tick's
// carry only what is new; settle pulls carry none.
func TestOnlyPeriodicPullsCarryTheDigest(t *testing.T) {
	m, st, _ := replSite(t)
	ctx := newFakeCtx()
	st.Write(5, model.TxnID{Site: 0, Seq: 1}, 1, 40)
	st.Write(5, model.TxnID{Site: 0, Seq: 2}, 2, 60)
	st.Write(3, model.TxnID{Site: 0, Seq: 3}, 3, 50)
	m.OnMessage(ctx, engine.QMAddr(0), model.TickMsg{Tag: ReplTickTag})
	pulls := take[model.ReplPullMsg](ctx)
	if len(pulls) != 2 {
		t.Fatalf("tick sent %d pulls, want one per peer", len(pulls))
	}
	for _, p := range pulls {
		have, ok := repl.DecodeHave(p.Have, nil)
		if !ok || len(have) != 2 || have[0] != (wal.Have{Item: 3, CommitMicros: 50}) || have[1] != (wal.Have{Item: 5, CommitMicros: 60}) {
			t.Fatalf("pull %+v carries digest %v (ok %v), want items 3@50 and 5@60", p, have, ok)
		}
	}
	m.OnMessage(ctx, engine.QMAddr(0), model.TickMsg{Tag: ReplSettleTickTag})
	m.OnMessage(ctx, engine.QMAddr(0), model.TickMsg{Tag: ReplTickTag})
	for _, p := range take[model.ReplPullMsg](ctx) {
		if p.Have != nil {
			t.Fatalf("pull %+v carries a digest though nothing was journaled since the last tick", p)
		}
	}
}

// TestShippedRecordsAreNotEchoed: a record applied from a peer's batch is
// journaled here like any write, so it sits in this site's log — but it is
// durable at the peer that shipped it, and is never shipped back to it. A
// third site, which may well lack it, still gets it.
func TestShippedRecordsAreNotEchoed(t *testing.T) {
	m, st, sl := replSite(t)
	ctx := newFakeCtx()
	st.Write(1, model.TxnID{Site: 0, Seq: 1}, 10, 10)
	if err := sl.Flush(); err != nil {
		t.Fatal(err)
	}
	m.OnMessage(ctx, engine.QMAddr(2), model.ReplRecordsMsg{From: 2, Frames: frameAll(shippedRec(9, 3, 50)), NextAfterSeq: 9})
	if v, _ := st.Read(3); v != 50 {
		t.Fatalf("item 3 holds %d, want the shipped 50", v)
	}
	for _, peer := range []model.SiteID{1, 2} {
		m.OnMessage(ctx, engine.QMAddr(peer), model.ReplPullMsg{From: peer, AfterSeq: 1})
	}
	replies := take[model.ReplRecordsMsg](ctx)
	if len(replies) != 2 {
		t.Fatalf("%d replies, want 2", len(replies))
	}
	for i, want := range []int{1, 0} { // to peer 1: the record; to peer 2: nothing
		n := 0
		repl.Apply(replies[i].Frames, func(wal.Record) bool { n++; return true })
		if n != want || replies[i].NextAfterSeq != 2 {
			t.Fatalf("reply %d shipped %d records to next %d, want %d records to next 2", i, n, replies[i].NextAfterSeq, want)
		}
	}
}
