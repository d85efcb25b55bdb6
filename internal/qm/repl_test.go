package qm

import (
	"slices"
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
	m := owning(New(0, st, nil, Options{}), 1, 2)
	m.SetDurable(sl)
	m.SetReplication(repl.NewPuller(repl.Options{Site: 0, Peers: []model.SiteID{1, 2}}), sl)
	return m, st, sl
}

func shippedRec(seq uint64, item model.ItemID, stamp int64) wal.Record {
	return wal.Record{Seq: seq, Item: item, Txn: model.TxnID{Site: 2, Seq: seq}, Value: stamp, Version: seq, CommitMicros: stamp}
}

func frameAll(recs ...wal.Record) []byte {
	var b []byte
	var prev wal.Record
	for _, r := range recs {
		b = wal.AppendShipped(b, prev, r)
		prev = r
	}
	return b
}

// TestTornBatchWithMoreWaitsForTheTick: a batch whose last record is damaged
// applies its intact prefix and leaves the watermark alone. With More set,
// re-pulling at once would send the same watermark and fetch the same batch
// again, for as long as the damage repeats; the periodic tick re-pulls
// instead.
func TestTornBatchWithMoreWaitsForTheTick(t *testing.T) {
	m, st, _ := replSite(t)
	ctx := newFakeCtx()
	frames := frameAll(shippedRec(1, 1, 10), shippedRec(2, 2, 20), shippedRec(3, 3, 30))
	frames[len(frames)-1] ^= 0x80
	deliver(m, ctx, engine.QMAddr(2), model.ReplRecordsMsg{From: 2, Frames: frames, NextAfterSeq: 3, More: true})
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
	frames[len(frames)-1] ^= 0x80
	deliver(m, ctx, engine.QMAddr(2), model.ReplRecordsMsg{From: 2, Frames: frames, NextAfterSeq: 3, More: true})
	pulls := take[model.ReplPullMsg](ctx)
	if len(pulls) != 1 || pulls[0].AfterSeq != 3 || pulls[0].Have != nil {
		t.Fatalf("intact batch with More: pulls %+v, want one from seq 3 with no digest", pulls)
	}
}

// TestReplyFromBeforeTheCrashIsDropped: a crash starts a new puller
// incarnation. The reply to a pull sent before it, landing after recovery,
// would advance a zeroed watermark past records the crash destroyed; it is
// dropped whole — nothing applied, no mark moved, no re-pull — while the
// same batch answering a pull of the new incarnation applies.
func TestReplyFromBeforeTheCrashIsDropped(t *testing.T) {
	m, st, _ := replSite(t)
	ctx := newFakeCtx()
	m.OnMessage(ctx, engine.QMAddr(0), model.TickMsg{Tag: ReplTickTag})
	before := take[model.ReplPullMsg](ctx)
	m.OnMessage(ctx, ctx.self, model.CrashMsg{})
	m.OnMessage(ctx, ctx.self, model.RecoverMsg{})
	m.OnMessage(ctx, engine.QMAddr(0), model.TickMsg{Tag: ReplTickTag})
	after := take[model.ReplPullMsg](ctx)
	if len(before) != 1 || len(after) != 1 || after[0].Incarnation == before[0].Incarnation {
		t.Fatalf("pulls before %+v and after %+v the crash, want one each in distinct incarnations", before, after)
	}
	stale := model.ReplRecordsMsg{From: 1, Frames: frameAll(shippedRec(4, 2, 70)), NextAfterSeq: 4, More: true, Incarnation: before[0].Incarnation}
	deliver(m, ctx, engine.QMAddr(1), stale)
	if v, _ := st.Read(2); v != 100 {
		t.Fatalf("a pre-crash reply installed %d at item 2", v)
	}
	if mark := m.ReplWatermarks()[1]; mark != 0 {
		t.Fatalf("a pre-crash reply moved the watermark to %d", mark)
	}
	if pulls := take[model.ReplPullMsg](ctx); len(pulls) != 0 {
		t.Fatalf("a pre-crash reply re-pulled: %+v", pulls)
	}
	current := stale
	current.Incarnation = after[0].Incarnation
	deliver(m, ctx, engine.QMAddr(1), current)
	if v, _ := st.Read(2); v != 70 || m.ReplWatermarks()[1] != 4 {
		t.Fatalf("the current reply left item 2 at %d, mark %d; want 70, 4", v, m.ReplWatermarks()[1])
	}
	if pulls := take[model.ReplPullMsg](ctx); len(pulls) != 1 || pulls[0].Incarnation != after[0].Incarnation {
		t.Fatalf("More re-pulled %+v, want one pull in the current incarnation", pulls)
	}
}

// TestOnlyPeriodicPullsCarryTheDigest: each tick pulls one peer, in round
// robin; each pull's digest names exactly what was journaled since the
// previous pull to that peer — so the pull to the second peer names what the
// first pull left behind, and what a shipped batch installed in between —
// and settle pulls go to every peer and carry none.
func TestOnlyPeriodicPullsCarryTheDigest(t *testing.T) {
	m, st, _ := replSite(t)
	ctx := newFakeCtx()
	// pulls drains the pulls sent so far, with the sites they went to.
	pulls := func() (to []model.SiteID, msgs []model.ReplPullMsg) {
		for _, e := range ctx.sent {
			if p, ok := e.Msg.(model.ReplPullMsg); ok {
				to, msgs = append(to, e.To.ID), append(msgs, p)
			}
		}
		take[model.ReplPullMsg](ctx)
		return to, msgs
	}
	tick := func(want model.SiteID, wantHave ...wal.Have) {
		t.Helper()
		m.OnMessage(ctx, engine.QMAddr(0), model.TickMsg{Tag: ReplTickTag})
		if ticks := take[model.TickMsg](ctx); len(ticks) != 1 || ticks[0].Tag != ReplTickTag {
			t.Fatalf("tick re-armed %+v, want one pull tick", ticks)
		}
		to, sent := pulls()
		if len(sent) != 1 || len(ctx.sent) != 0 || to[0] != want {
			t.Fatalf("tick pulled %v (%+v, and sent %+v), want one pull to site %d", to, sent, ctx.sent, want)
		}
		have, ok := repl.DecodeHave(sent[0].Have, nil)
		if !ok || !slices.Equal(have, wantHave) {
			t.Fatalf("pull to site %d carries digest %v (ok %v), want %v", want, have, ok, wantHave)
		}
	}
	st.Write(5, model.TxnID{Site: 0, Seq: 1}, 1, 40)
	st.Write(5, model.TxnID{Site: 0, Seq: 2}, 2, 60)
	st.Write(3, model.TxnID{Site: 0, Seq: 3}, 3, 50)
	tick(1, wal.Have{Item: 3, CommitMicros: 50}, wal.Have{Item: 5, CommitMicros: 60})
	deliver(m, ctx, engine.QMAddr(1), model.ReplRecordsMsg{From: 1, Frames: frameAll(shippedRec(4, 2, 70)), NextAfterSeq: 4})
	if to, _ := pulls(); len(to) != 0 {
		t.Fatalf("an uncut batch re-pulled from %v", to)
	}
	tick(2, wal.Have{Item: 2, CommitMicros: 70}, wal.Have{Item: 3, CommitMicros: 50}, wal.Have{Item: 5, CommitMicros: 60})
	st.Write(6, model.TxnID{Site: 0, Seq: 4}, 4, 80)
	tick(1, wal.Have{Item: 2, CommitMicros: 70}, wal.Have{Item: 6, CommitMicros: 80})
	tick(2, wal.Have{Item: 6, CommitMicros: 80})
	tick(1)

	st.Write(1, model.TxnID{Site: 0, Seq: 5}, 5, 90)
	m.OnMessage(ctx, engine.QMAddr(0), model.TickMsg{Tag: ReplSettleTickTag})
	to, sent := pulls()
	if !slices.Equal(to, []model.SiteID{1, 2}) {
		t.Fatalf("settle pulled %v, want each peer once", to)
	}
	for _, p := range sent {
		if p.Have != nil {
			t.Fatalf("settle pull %+v carries a digest", p)
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
	deliver(m, ctx, engine.QMAddr(2), model.ReplRecordsMsg{From: 2, Frames: frameAll(shippedRec(9, 3, 50)), NextAfterSeq: 9})
	if v, _ := st.Read(3); v != 50 {
		t.Fatalf("item 3 holds %d, want the shipped 50", v)
	}
	for _, peer := range []model.SiteID{1, 2} {
		deliver(m, ctx, engine.QMAddr(peer), model.ReplPullMsg{From: peer, AfterSeq: 1})
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

// TestShippedRecordOfALiveWriterWaitsForItsRelease: a writer's record can
// ship here from a peer that got its release first, while this copy's queue
// still holds the writer's entry. The record skips — installing it would put
// the write ahead of the writer's own place in the queue's order — and ends
// the batch: the records after it skip too, and the watermark stays, so the
// next pull ships them again. By then the writer's release has installed the
// write once, and the re-shipped record skips as a duplicate; or, under
// W < N, a withdrawal retired the entry instead, and the re-shipped record
// is what installs the write.
func TestShippedRecordOfALiveWriterWaitsForItsRelease(t *testing.T) {
	for _, end := range []string{"release", "withdrawal"} {
		t.Run(end, func(t *testing.T) {
			m, st, _ := replSite(t)
			ctx := newFakeCtx()
			w := req(5, model.TwoPL, model.OpWrite, 3, model.NoTimestamp)
			deliver(m, ctx, engine.RIAddr(1), w)
			if grants := takeGrants(ctx); len(grants) != 1 {
				t.Fatalf("write request drew %d grants, want 1", len(grants))
			}
			batch := model.ReplRecordsMsg{From: 2, NextAfterSeq: 8, Frames: frameAll(
				wal.Record{Seq: 7, Item: 3, Txn: w.Txn, Value: 40, Version: 7, CommitMicros: 40},
				shippedRec(8, 4, 50),
			)}
			deliver(m, ctx, engine.QMAddr(2), batch)
			if v, _ := st.Read(3); v != 100 {
				t.Fatalf("item 3 holds %d while its writer's entry is live, want the untouched 100", v)
			}
			if v, _ := st.Read(4); v != 100 {
				t.Fatalf("item 4 holds %d, want the record past the live writer's held back", v)
			}
			if mark := m.ReplWatermarks()[2]; mark != 0 {
				t.Fatalf("watermark moved to %d past a live writer's record", mark)
			}
			if c := m.Snapshot(); c.ReplApplied != 0 || c.ReplSkipped != 2 {
				t.Fatalf("applied %d, skipped %d shipped records, want 0 and 2", c.ReplApplied, c.ReplSkipped)
			}
			if end == "release" {
				rel := release(5, 3, true, 40)
				rel.CommitMicros = 40
				deliver(m, ctx, engine.RIAddr(1), rel)
			} else {
				deliver(m, ctx, engine.RIAddr(1), model.AbortMsg{Txn: w.Txn, Copy: w.Copy})
			}
			deliver(m, ctx, engine.QMAddr(2), batch)
			if v, _ := st.Read(3); v != 40 || st.ChainLen(3) != 2 {
				t.Fatalf("item 3 holds %d in %d versions, want 40 in 2", v, st.ChainLen(3))
			}
			if v, _ := st.Read(4); v != 50 {
				t.Fatalf("item 4 holds %d, want the re-shipped 50", v)
			}
			if mark := m.ReplWatermarks()[2]; mark != 8 {
				t.Fatalf("watermark at %d after the re-shipped batch applied, want 8", mark)
			}
		})
	}
}

// TestPullDigestNamesOnlyThePeersItems: under partial replication each
// pull's digest names only the items the installed map gives the pulled peer
// a copy of. The peer serves no other item, so naming one is waste.
func TestPullDigestNamesOnlyThePeersItems(t *testing.T) {
	m, st, _ := replSite(t)
	// Site 0 shares items 0–3 with site 1 and items 4–7 with site 2.
	as := make([][]model.SiteID, 8)
	for i := range as {
		as[i] = []model.SiteID{0, model.SiteID(1 + i/4)}
	}
	pm := &model.PartitionMap{Epoch: 1, Assignments: as}
	m.SetPartitionMap(pm)
	ctx := newFakeCtx()
	for i := 0; i < 8; i++ {
		st.Write(model.ItemID(i), model.TxnID{Site: 0, Seq: uint64(i + 1)}, int64(i), int64(10*(i+1)))
	}
	for _, peer := range []model.SiteID{1, 2} {
		m.OnMessage(ctx, engine.QMAddr(0), model.TickMsg{Tag: ReplTickTag})
		var have []wal.Have
		for _, e := range ctx.sent {
			if p, ok := e.Msg.(model.ReplPullMsg); ok && e.To.ID == peer {
				have, _ = repl.DecodeHave(p.Have, nil)
			}
		}
		ctx.sent = nil
		if len(have) != 4 || slices.ContainsFunc(have, func(h wal.Have) bool { return !pm.Owns(h.Item, peer) }) {
			t.Fatalf("pull to site %d names %v, want exactly its 4 items", peer, have)
		}
	}
}

// TestCatchUpTickAllocatesNothing: once warm, a catch-up tick — a pull with
// a digest filtered by the installed map, in a pooled message, and the
// re-pulls of no open fill — allocates nothing.
func TestCatchUpTickAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	m, st, _ := replSite(t)
	as := make([][]model.SiteID, 8)
	for i := range as {
		as[i] = []model.SiteID{0, model.SiteID(1 + i%2)}
	}
	m.SetPartitionMap(&model.PartitionMap{Epoch: 1, Assignments: as})
	for i := 0; i < 8; i++ {
		st.Write(model.ItemID(i), model.TxnID{Site: 0, Seq: uint64(i + 1)}, int64(i), int64(10*(i+1)))
	}
	var ctx drainCtx
	var tick model.Message = model.TickMsg{Tag: ReplTickTag}
	fire := func() {
		m.puller.ResetAll() // every pull digests the whole tail again
		deliver(m, &ctx, engine.QMAddr(0), tick)
	}
	fire()
	fire()
	if n := testing.AllocsPerRun(50, fire); n != 0 {
		t.Fatalf("%v allocations per catch-up tick, want 0", n)
	}
}
