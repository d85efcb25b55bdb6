package qm

import (
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/repl"
	"ucc/internal/storage"
	"ucc/internal/wal"
)

// pmapManager builds a single-site manager whose store holds exactly the
// given items (the site's copies under the initial map), volatile, no
// recorder.
func pmapManager(items ...model.ItemID) *Manager {
	st := storage.NewStore(0)
	for _, it := range items {
		st.Create(it, 100)
	}
	return owning(New(0, st, nil, Options{InitialValue: 100}))
}

// TestRequestWrongEpochNAK pins the request-path refusal: a request routed to
// a site the installed map says does not own the copy is answered with a
// WrongEpochMsg carrying that map — even though (as here) a queue for
// the item still exists.
func TestRequestWrongEpochNAK(t *testing.T) {
	m, _ := testManager(4, true)
	m.SetPartitionMap(&model.PartitionMap{
		Epoch:       1,
		Assignments: [][]model.SiteID{{0}, {0}, {1}, {1}},
	})
	ctx := newFakeCtx()

	// Owned item: normal grant, no NAK.
	deliver(m, ctx, engine.RIAddr(1), req(1, model.TwoPL, model.OpRead, 0, model.NoTimestamp))
	if g := takeGrants(ctx); len(g) != 1 {
		t.Fatalf("owned item: grants=%d want 1", len(g))
	}

	// Disowned item: NAK with the installed map attached, nothing granted.
	deliver(m, ctx, engine.RIAddr(1), req(2, model.TwoPL, model.OpWrite, 2, model.NoTimestamp))
	naks := take[model.WrongEpochMsg](ctx)
	if len(naks) != 1 {
		t.Fatalf("naks=%d want 1", len(naks))
	}
	if naks[0].Map.Epoch != 1 || naks[0].Map.Primary(2) != 1 {
		t.Fatalf("NAK map = %+v, want the installed epoch-1 map", naks[0].Map)
	}
	if g := takeGrants(ctx); len(g) != 0 {
		t.Fatalf("disowned item granted: %+v", g)
	}
	if c := m.Snapshot(); c.WrongEpoch != 1 {
		t.Fatalf("WrongEpoch counter = %d want 1", c.WrongEpoch)
	}
}

// TestSnapReadWrongEpochNAK pins the same refusal on the read-only snapshot
// path.
func TestSnapReadWrongEpochNAK(t *testing.T) {
	m, _ := testManager(2, true)
	m.SetPartitionMap(&model.PartitionMap{
		Epoch:       3,
		Assignments: [][]model.SiteID{{0}, {1}},
	})
	ctx := newFakeCtx()
	deliver(m, ctx, engine.RIAddr(1), model.SnapReadMsg{
		Txn:  model.TxnID{Site: 1, Seq: 7},
		Copy: model.CopyID{Item: 1, Site: 0},
		Site: 1,
	})
	naks := take[model.WrongEpochMsg](ctx)
	if len(naks) != 1 || naks[0].Map.Epoch != 3 {
		t.Fatalf("naks=%+v want one with the epoch-3 map", naks)
	}
}

// TestCompleterWrongEpochNAK pins the completer-path refusal: after an
// ownership flip drains an item away, a Release or Abort for it (from a
// transaction that straddled the flip) gets the wrong-epoch NAK instead of
// silently vanishing or panicking.
func TestCompleterWrongEpochNAK(t *testing.T) {
	m := pmapManager(0, 1)
	m.SetPartitionMap(&model.PartitionMap{
		Epoch:       1,
		Assignments: [][]model.SiteID{{0}, {0}},
	})
	ctx := newFakeCtx()

	// Epoch 2 moves item 1 to site 1; its queue is empty, so it deletes
	// immediately.
	m.OnMessage(ctx, ctx.self, model.MapInstallMsg{Map: model.PartitionMap{
		Epoch:       2,
		Assignments: [][]model.SiteID{{0}, {1}},
	}})
	if c := m.Snapshot(); c.MapInstalls != 1 {
		t.Fatalf("MapInstalls = %d want 1", c.MapInstalls)
	}

	deliver(m, ctx, engine.RIAddr(1), release(9, 1, true, 42))
	naks := take[model.WrongEpochMsg](ctx)
	if len(naks) != 1 || naks[0].Map.Epoch != 2 {
		t.Fatalf("release naks=%+v want one with the epoch-2 map", naks)
	}

	deliver(m, ctx, engine.RIAddr(1), model.AbortMsg{
		Txn:  model.TxnID{Site: 1, Seq: 10},
		Copy: model.CopyID{Item: 1, Site: 0},
	})
	naks = take[model.WrongEpochMsg](ctx)
	if len(naks) != 1 || naks[0].Map.Epoch != 2 {
		t.Fatalf("abort naks=%+v want one with the epoch-2 map", naks)
	}
	if c := m.Snapshot(); c.WrongEpoch != 2 {
		t.Fatalf("WrongEpoch counter = %d want 2", c.WrongEpoch)
	}
}

// TestOutOfMapItemGetsWrongEpoch: a frame naming an item outside the map —
// negative, or at the map's item count — is refused like any disowned item,
// on every path, and never indexes a table out of bounds: the opener and the
// completers get the wrong-epoch NAK, and a shipped record for it is
// skipped.
func TestOutOfMapItemGetsWrongEpoch(t *testing.T) {
	const items = 4
	m, _ := testManager(items, true)
	m.SetPartitionMap(&model.PartitionMap{Epoch: 1, Assignments: [][]model.SiteID{{0}, {0}, {0}, {0}}})
	ctx := newFakeCtx()
	for _, item := range []model.ItemID{-1, items, -1 << 31} {
		deliver(m, ctx, engine.RIAddr(1), req(1, model.TwoPL, model.OpWrite, item, model.NoTimestamp))
		deliver(m, ctx, engine.RIAddr(1), model.SnapReadMsg{Txn: model.TxnID{Site: 1, Seq: 2}, Copy: model.CopyID{Item: item, Site: 0}, Site: 1})
		deliver(m, ctx, engine.RIAddr(1), release(3, item, true, 42))
		deliver(m, ctx, engine.RIAddr(1), model.AbortMsg{Txn: model.TxnID{Site: 1, Seq: 4}, Copy: model.CopyID{Item: item, Site: 0}})
		deliver(m, ctx, engine.RIAddr(1), model.FinalTSMsg{Txn: model.TxnID{Site: 1, Seq: 5}, Copy: model.CopyID{Item: item, Site: 0}, TS: 9})
		if naks := take[model.WrongEpochMsg](ctx); len(naks) != 5 {
			t.Fatalf("item %d: %d wrong-epoch NAKs, want one per path (5)", item, len(naks))
		}
		if len(ctx.sent) != 0 {
			t.Fatalf("item %d: sent %v besides the NAKs", item, ctx.sent)
		}
		frames := wal.AppendShipped(nil, wal.Record{}, wal.Record{Item: item, Txn: model.TxnID{Site: 1, Seq: 6}, Value: 7, CommitMicros: 10})
		m.OnMessage(ctx, engine.QMAddr(1), &model.ReplRecordsMsg{From: 1, Frames: frames, Incarnation: m.puller.Incarnation()})
		// A negative item does not even decode (items ship unsigned): the
		// batch is torn there, and nothing applies either way.
		wantSkipped := uint64(0)
		if item >= 0 {
			wantSkipped = 1
		}
		if c := m.Snapshot(); c.ReplApplied != 0 || c.ReplSkipped != wantSkipped {
			t.Fatalf("item %d: shipped record applied %d, skipped %d; want 0 and %d", item, c.ReplApplied, c.ReplSkipped, wantSkipped)
		}
		m.shards[0].counters.ReplSkipped = 0
	}
}

// TestMapInstallGainSealsUntilTransfer walks the gaining side of a flip: the
// gained item is created sealed (requests get Busy, not a grant and not a
// NAK — the routing is correct, the state is in flight), a fill pull goes to
// the old primary, and the item opens with the filled value once the fill is
// done.
func TestMapInstallGainSealsUntilTransfer(t *testing.T) {
	m := pmapManager(0)
	m.SetPartitionMap(&model.PartitionMap{
		Epoch:       1,
		Assignments: [][]model.SiteID{{0}, {1}},
	})
	ctx := newFakeCtx()

	m.OnMessage(ctx, ctx.self, model.MapInstallMsg{Map: model.PartitionMap{
		Epoch:       2,
		Assignments: [][]model.SiteID{{0}, {0}},
	}})
	pulls := take[model.ReplPullMsg](ctx)
	if len(pulls) != 1 || pulls[0].Epoch != 2 || pulls[0].From != 0 {
		t.Fatalf("pulls=%+v want one for epoch 2 from site 0", pulls)
	}
	if c := m.Snapshot(); c.ItemsGained != 1 {
		t.Fatalf("ItemsGained = %d want 1", c.ItemsGained)
	}
	if !m.FillsOpen() {
		t.Fatal("FillsOpen() = false during transfer")
	}

	// Sealed: correct routing, so Busy rather than WrongEpoch.
	deliver(m, ctx, engine.RIAddr(1), req(1, model.TwoPL, model.OpRead, 1, model.NoTimestamp))
	if b := take[model.BusyMsg](ctx); len(b) != 1 {
		t.Fatalf("busy=%d want 1 while transfer pending", len(b))
	}
	if n := take[model.WrongEpochMsg](ctx); len(n) != 0 {
		t.Fatalf("unexpected NAK on a gained item: %+v", n)
	}

	// The old owner's answer: one record for item 1 at commit stamp 5, done.
	frames := wal.AppendShipped(nil, wal.Record{}, wal.Record{
		Item: 1, Txn: model.TxnID{Site: 1, Seq: 3}, Value: 777, CommitMicros: 5,
	})
	deliver(m, ctx, ctx.self, model.ReplRecordsMsg{
		From: 1, Epoch: 2, Frames: frames, NextAfterSeq: 4,
	})
	if m.FillsOpen() {
		t.Fatal("FillsOpen() = true after Done")
	}
	if c := m.Snapshot(); c.TransferApplied != 1 || c.TransferBytes == 0 {
		t.Fatalf("transfer counters = %+v want 1 applied, >0 bytes", c)
	}

	deliver(m, ctx, engine.RIAddr(1), req(2, model.TwoPL, model.OpRead, 1, model.NoTimestamp))
	grants := takeGrants(ctx)
	if len(grants) != 1 || grants[0].Value != 777 {
		t.Fatalf("grants=%+v want one with the transferred value 777", grants)
	}
}

// fillHookCtx is a fakeCtx that runs onFill once, from inside the Send of
// the first fill pull: the moment of an install when the shard locks are
// released, the fills go out, and a shard on its own mailbox goroutine may
// already be handling requests.
type fillHookCtx struct {
	*fakeCtx
	onFill func()
}

func (c *fillHookCtx) Send(to engine.Addr, msg model.Message) {
	_, fill := msg.(*model.ReplPullMsg)
	c.fakeCtx.Send(to, msg)
	if f := c.onFill; fill && f != nil {
		c.onFill = nil
		f()
	}
}

// TestRequestDuringMapInstallSeesTheNewMap: a request a shard handles while
// an install is still sending its fills is judged by the new map. The item
// the site just lost, whose empty queue retired, gets the wrong-epoch NAK
// with the new map (not a lookup of the deleted queue), and the item it
// gained gets Busy (not a NAK carrying the superseded map).
func TestRequestDuringMapInstallSeesTheNewMap(t *testing.T) {
	m := pmapManager(0, 2)
	m.SetPartitionMap(&model.PartitionMap{
		Epoch:       1,
		Assignments: [][]model.SiteID{{0}, {1}, {0}},
	})
	ctx := &fillHookCtx{fakeCtx: newFakeCtx()}
	ctx.onFill = func() {
		deliver(m, ctx, engine.RIAddr(1), req(1, model.TwoPL, model.OpRead, 1, model.NoTimestamp))
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("request for the lost item during the install: %v", r)
			}
		}()
		deliver(m, ctx, engine.RIAddr(1), req(2, model.TwoPL, model.OpRead, 0, model.NoTimestamp))
	}
	m.OnMessage(ctx, ctx.self, model.MapInstallMsg{Map: model.PartitionMap{
		Epoch:       2,
		Assignments: [][]model.SiteID{{1}, {0}, {0}},
	}})
	if ctx.onFill != nil {
		t.Fatal("the install sent no fill pull")
	}
	if b := take[model.BusyMsg](ctx.fakeCtx); len(b) != 1 || b[0].Copy.Item != 1 {
		t.Errorf("busy=%+v, want one for the gained item 1", b)
	}
	naks := take[model.WrongEpochMsg](ctx.fakeCtx)
	for _, n := range naks {
		if n.Copy.Item != 0 || n.Map.Epoch != 2 {
			t.Errorf("NAK for item %d with the epoch-%d map, want only item 0's with the epoch-2 map", n.Copy.Item, n.Map.Epoch)
		}
	}
	if len(naks) != 1 {
		t.Errorf("%d wrong-epoch NAKs, want one, for the lost item 0", len(naks))
	}
}

// TestTransferPullNotReadyWhileDraining pins the handoff discipline that
// makes the flip atomic per item: the losing site refuses to serve a fill
// while a transaction granted under the old epoch is still resident, and
// serves it once the item drains.
func TestTransferPullNotReadyWhileDraining(t *testing.T) {
	m := pmapManager(0)
	m.SetPartitionMap(&model.PartitionMap{
		Epoch:       1,
		Assignments: [][]model.SiteID{{0}},
	})
	ctx := newFakeCtx()

	// Resident transaction under epoch 1.
	deliver(m, ctx, engine.RIAddr(1), req(1, model.TwoPL, model.OpWrite, 0, model.NoTimestamp))
	if g := takeGrants(ctx); len(g) != 1 {
		t.Fatalf("setup grant missing")
	}

	// Epoch 2 moves item 0 away; the resident keeps it retiring.
	m.OnMessage(ctx, ctx.self, model.MapInstallMsg{Map: model.PartitionMap{
		Epoch:       2,
		Assignments: [][]model.SiteID{{1}},
	}})
	pull := model.ReplPullMsg{From: 1, Epoch: 2, Scope: repl.AppendScope(nil, []model.ItemID{0})}
	deliver(m, ctx, ctx.self, pull)
	recs := take[model.ReplRecordsMsg](ctx)
	if len(recs) != 1 || !recs[0].NotReady {
		t.Fatalf("recs=%+v want one NotReady while draining", recs)
	}

	// New openers are refused with the NAK even mid-retirement.
	deliver(m, ctx, engine.RIAddr(1), req(2, model.TwoPL, model.OpRead, 0, model.NoTimestamp))
	if n := take[model.WrongEpochMsg](ctx); len(n) != 1 {
		t.Fatalf("naks=%d want 1 for a new opener on a retiring item", len(n))
	}

	// The resident releases; the queue drains and retires.
	deliver(m, ctx, engine.RIAddr(1), release(1, 0, true, 555))
	deliver(m, ctx, ctx.self, pull)
	recs = take[model.ReplRecordsMsg](ctx)
	if len(recs) != 1 || recs[0].NotReady {
		t.Fatalf("recs=%+v want a served batch after drain", recs)
	}
	if len(recs[0].Frames) == 0 || !recs[0].Reset {
		t.Fatalf("recs=%+v want a non-empty Reset snapshot batch", recs[0])
	}

	// The follow-up pull for the tail: volatile sites have none, so Done.
	pull.AfterSeq = recs[0].NextAfterSeq
	deliver(m, ctx, ctx.self, pull)
	recs = take[model.ReplRecordsMsg](ctx)
	if len(recs) != 1 || recs[0].More || recs[0].NotReady {
		t.Fatalf("recs=%+v want a Done tail batch", recs)
	}
	if c := m.Snapshot(); c.TransferPulls != 2 {
		t.Fatalf("TransferPulls = %d want 2", c.TransferPulls)
	}
}

// TestTransferReplyFromBeforeTheCrashIsDropped: a crash zeroes each open
// fill's mark and starts a new incarnation. A reply to a pull sent before the
// crash would advance the zeroed mark — or finish the fill — over records the
// crash destroyed; it is dropped, and the pull tick pulls again in the new
// incarnation, whose reply completes the fill of the gained copy, which the
// crash must not lose.
func TestTransferReplyFromBeforeTheCrashIsDropped(t *testing.T) {
	st := storage.NewStore(0)
	st.Create(0, 100)
	sl, err := wal.Open(wal.NewMemMedia(), st, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.SetJournal(sl)
	m := New(0, st, nil, Options{InitialValue: 100})
	m.SetDurable(sl)
	m.SetPartitionMap(&model.PartitionMap{Epoch: 1, Assignments: [][]model.SiteID{{0}, {1}}})
	ctx := newFakeCtx()
	m.OnMessage(ctx, ctx.self, model.MapInstallMsg{Map: model.PartitionMap{Epoch: 2, Assignments: [][]model.SiteID{{0}, {0}}}})
	before := take[model.ReplPullMsg](ctx)
	m.OnMessage(ctx, ctx.self, model.CrashMsg{})
	m.OnMessage(ctx, ctx.self, model.RecoverMsg{})
	frames := wal.AppendShipped(nil, wal.Record{}, wal.Record{Item: 1, Txn: model.TxnID{Site: 1, Seq: 3}, Value: 777, CommitMicros: 5})
	deliver(m, ctx, ctx.self, model.ReplRecordsMsg{From: 1, Epoch: 2, Frames: frames, NextAfterSeq: 4, Incarnation: before[0].Incarnation})
	if !m.FillsOpen() {
		t.Fatal("a pre-crash reply completed the transfer")
	}
	if c := m.Snapshot(); c.TransferApplied != 0 {
		t.Fatalf("a pre-crash reply applied %d records", c.TransferApplied)
	}
	m.OnMessage(ctx, ctx.self, model.TickMsg{Tag: ReplTickTag})
	after := take[model.ReplPullMsg](ctx)
	if len(before) != 1 || len(after) != 1 || after[0].AfterSeq != 0 || after[0].Incarnation == before[0].Incarnation {
		t.Fatalf("pulls before %+v and after %+v the crash, want one each from seq 0 in distinct incarnations", before, after)
	}
	deliver(m, ctx, ctx.self, model.ReplRecordsMsg{From: 1, Epoch: 2, Frames: frames, NextAfterSeq: 4, Incarnation: after[0].Incarnation})
	if m.FillsOpen() {
		t.Fatal("the current reply did not complete the transfer")
	}
	// The gained copy was created with nothing journaled since the last
	// snapshot; it must still survive the crash and take the transfer.
	if !st.Has(1) {
		t.Fatal("the copy gained at the map install did not survive the crash")
	}
	if v, _ := st.Read(1); v != 777 {
		t.Fatalf("gained copy holds %d after the transfer, want 777", v)
	}
}
