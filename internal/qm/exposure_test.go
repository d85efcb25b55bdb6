package qm

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ucc/internal/engine"
	"ucc/internal/history"
	"ucc/internal/model"
	"ucc/internal/repl"
	"ucc/internal/storage"
	"ucc/internal/wal"
)

// walDouble is a recording Durable and storage.Journal with a WAL's
// contract and nothing else: RecordWrite appends to an unsynced tail, Flush
// makes durable exactly the records journaled before the call, Crash loses
// the tail, Recover rebuilds the store from the attach-time chains plus the
// synced records. synced answers the question the exposure tests ask: has a
// returned Flush covered this version of this item?
type walDouble struct {
	st    *storage.Store
	base  []storage.CopyChain
	delay time.Duration // simulated media sync time

	mu      sync.Mutex
	tail    []walRec
	log     []walRec
	durable map[model.ItemID]uint64 // newest version a returned Flush covers
	flushes int
}

type walRec struct {
	item         model.ItemID
	txn          model.TxnID
	value        int64
	version      uint64
	commitMicros int64
}

func newWALDouble(st *storage.Store) *walDouble {
	d := &walDouble{st: st, base: st.Chains(), durable: map[model.ItemID]uint64{}}
	st.SetJournal(d)
	return d
}

func (d *walDouble) RecordWrite(item model.ItemID, txn model.TxnID, value int64, version uint64, commitMicros int64) {
	d.mu.Lock()
	d.tail = append(d.tail, walRec{item, txn, value, version, commitMicros})
	d.mu.Unlock()
}

func (d *walDouble) Flush() error {
	d.mu.Lock()
	batch := d.tail
	d.tail = nil
	d.mu.Unlock()
	time.Sleep(d.delay)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.log = append(d.log, batch...)
	for _, r := range batch {
		d.durable[r.item] = r.version
	}
	d.flushes++
	return nil
}

func (d *walDouble) Crash() {
	d.mu.Lock()
	d.tail = nil
	d.mu.Unlock()
}

func (d *walDouble) Recover() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.base {
		d.st.RestoreChain(c)
	}
	for _, r := range d.log {
		d.st.Apply(r.item, r.txn, r.value, r.version, r.commitMicros)
	}
	return nil
}

func (d *walDouble) synced(item model.ItemID) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.durable[item]
}

func (d *walDouble) syncs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.flushes
}

// exposureCtx is the fake context plus the write-ahead assertion, checked on
// every send: a grant or snapshot reply must not carry — and a promotion
// must not be ordered after — a version no returned Flush has covered. Timers
// are kept apart from sends so a test delivers them when it chooses.
type exposureCtx struct {
	*fakeCtx
	t      *testing.T
	m      *Manager
	d      *walDouble
	timers []armedTimer
}

type armedTimer struct {
	delay int64
	msg   model.Message
}

func (c *exposureCtx) Send(to engine.Addr, msg model.Message) {
	switch v := valueForm(msg).(type) {
	case model.GrantBatchMsg:
		for _, g := range v.Members {
			c.check("grant", g.Item, g.Version)
		}
	case model.SnapReadReplyBatchMsg:
		for _, r := range v.Members {
			c.check("snapshot reply", r.Item, r.Version)
		}
	case model.NormalGrantMsg:
		c.check("promotion", v.Copy.Item, c.m.store.Latest(v.Copy.Item).Version)
	}
	c.fakeCtx.Send(to, msg)
}

func (c *exposureCtx) check(what string, item model.ItemID, version uint64) {
	c.t.Helper()
	if s := c.d.synced(item); version > s {
		c.t.Errorf("%s exposes %v version %d before a Flush covering it returned (synced through %d)", what, item, version, s)
	}
}

func (c *exposureCtx) SetTimer(delay int64, msg model.Message) {
	c.timers = append(c.timers, armedTimer{delay, msg})
}

// fire delivers every armed timer, in arming order.
func (c *exposureCtx) fire() {
	ts := c.timers
	c.timers = nil
	for _, tm := range ts {
		deliver(c.m, c, c.self, tm.msg)
	}
}

// exposureSite is one durable site over items 0..7 with a history recorder.
func exposureSite(t *testing.T, shards int, window int64) (*Manager, *exposureCtx, *walDouble, *history.Recorder) {
	st := storage.NewStore(0)
	for i := 0; i < 8; i++ {
		st.Create(model.ItemID(i), 100)
	}
	rec := history.NewRecorder()
	m := owning(New(0, st, rec, Options{Shards: shards, GroupCommitMicros: window, InitialValue: 100}))
	d := newWALDouble(st)
	m.SetDurable(d)
	return m, &exposureCtx{fakeCtx: newFakeCtx(), t: t, m: m, d: d}, d, rec
}

// twoItems returns two items of different shards (any two when unsharded).
func twoItems(shards int) (a, b model.ItemID) {
	for b = 1; model.ShardOfItem(b, shards) == model.ShardOfItem(0, shards) && shards > 1; b++ {
	}
	return 0, b
}

func writeRelease(txn uint64, item model.ItemID, val, commitMicros int64) model.ReleaseMsg {
	r := release(txn, item, true, val)
	r.CommitMicros = commitMicros
	return r
}

// exposureMatrix runs one case over window {0, 5 ms} × shards {1, 4}.
func exposureMatrix(t *testing.T, run func(t *testing.T, shards int, window int64)) {
	for _, window := range []int64{0, 5_000} {
		for _, shards := range []int{1, 4} {
			window, shards := window, shards
			t.Run(fmt.Sprintf("window=%dus/shards=%d", window, shards), func(t *testing.T) { run(t, shards, window) })
		}
	}
}

// TestExposureWaitsForSync is the discipline's core: a write release
// journals and parks, arms one FlushMsg per shard at the configured window,
// and the grants waiting on the written items leave only after the sync —
// each shard un-parking its own queues with its own FlushMsg.
func TestExposureWaitsForSync(t *testing.T) {
	exposureMatrix(t, func(t *testing.T, shards int, window int64) {
		m, ctx, d, _ := exposureSite(t, shards, window)
		ri := engine.RIAddr(1)
		a, b := twoItems(shards)
		for i, item := range []model.ItemID{a, b} {
			deliver(m, ctx, ri, req(uint64(10+i), model.TwoPL, model.OpWrite, item, model.NoTimestamp))
			deliver(m, ctx, ri, req(uint64(20+i), model.TwoPL, model.OpWrite, item, model.NoTimestamp))
		}
		if g := takeGrants(ctx.fakeCtx); len(g) != 2 {
			t.Fatalf("setup grants=%d want 2", len(g))
		}
		deliver(m, ctx, ri, writeRelease(10, a, 7, 50))
		deliver(m, ctx, ri, writeRelease(11, b, 8, 51))
		if g := takeGrants(ctx.fakeCtx); len(g) != 0 {
			t.Fatalf("%d grants left before the sync", len(g))
		}
		if d.syncs() != 0 {
			t.Fatalf("%d syncs inside the release deliveries; the sync belongs to the FlushMsg", d.syncs())
		}
		wantTimers := 1
		if shards > 1 {
			wantTimers = 2 // a and b live in different shards
		}
		if len(ctx.timers) != wantTimers {
			t.Fatalf("armed %d FlushMsgs, want %d", len(ctx.timers), wantTimers)
		}
		for _, tm := range ctx.timers {
			if _, ok := tm.msg.(model.FlushMsg); !ok || tm.delay != window {
				t.Fatalf("armed %T after %dµs, want FlushMsg after %dµs", tm.msg, tm.delay, window)
			}
		}

		// The first FlushMsg syncs once and exposes its own shard's item
		// only; the other shard's queue stays parked until its own arrives.
		first, rest := ctx.timers[0], ctx.timers[1:]
		ctx.timers = nil
		deliver(m, ctx, ctx.self, first.msg)
		wantGrants := 3 - wantTimers // both items when they share the shard
		g := takeGrants(ctx.fakeCtx)
		if len(g) != wantGrants || d.syncs() != 1 {
			t.Fatalf("first flush: %d grants %d syncs, want %d and 1", len(g), d.syncs(), wantGrants)
		}
		if g[0].Copy.Item != a || g[0].Version != 1 || g[0].Value != 7 {
			t.Fatalf("un-parked grant = %+v, want item %v version 1 value 7", g[0], a)
		}
		for _, tm := range rest {
			deliver(m, ctx, ctx.self, tm.msg)
		}
		if g := takeGrants(ctx.fakeCtx); len(g) != 2-wantGrants {
			t.Fatalf("second flush released %d grants, want %d", len(g), 2-wantGrants)
		}

		// The window is read live: a slow-disk fault applies to the next arm.
		m.SetGroupCommitMicros(9_000)
		deliver(m, ctx, ri, writeRelease(20, a, 9, 60))
		if len(ctx.timers) != 1 || ctx.timers[0].delay != 9_000 {
			t.Fatalf("after SetGroupCommitMicros(9000): timers %+v", ctx.timers)
		}
		ctx.fire()
		if len(ctx.timers) != 0 {
			t.Fatalf("a flush with nothing left to sync re-armed: %+v", ctx.timers)
		}
	})
}

// TestParkedQueueAbsorbsTraffic: a request, an abort, a final timestamp and
// a second release reaching a parked queue update it but send no grant or
// promotion; the un-park dispatch covers them all.
func TestParkedQueueAbsorbsTraffic(t *testing.T) {
	exposureMatrix(t, func(t *testing.T, shards int, window int64) {
		m, ctx, d, _ := exposureSite(t, shards, window)
		ri := engine.RIAddr(1)
		const item = 0

		// T/O writer 1 holds the lock, converts to a semi-lock (its write is
		// implemented, §4.2 rule 4): the queue parks.
		deliver(m, ctx, ri, req(1, model.TO, model.OpWrite, item, 10))
		takeGrants(ctx.fakeCtx)
		semi := writeRelease(1, item, 11, 100)
		semi.ToSemi = true
		deliver(m, ctx, ri, semi)

		// Request on the parked queue: T/O writer 2 would be granted a
		// pre-scheduled lock right away.
		deliver(m, ctx, ri, req(2, model.TO, model.OpWrite, item, 20))
		// A PA request behind the write threshold backs off (the back-off is
		// not an exposure and leaves at once); its final timestamp arrives
		// while still parked.
		deliver(m, ctx, ri, req(3, model.PA, model.OpWrite, item, 5))
		if b := take[model.BackoffMsg](ctx.fakeCtx); len(b) != 1 {
			t.Fatalf("backoffs=%d want 1 (a parked queue still answers admission)", len(b))
		}
		deliver(m, ctx, ri, model.FinalTSMsg{Txn: model.TxnID{Site: 1, Seq: 3}, Copy: model.CopyID{Item: item}, TS: 40})
		// A request that is then aborted, both while parked.
		deliver(m, ctx, ri, req(4, model.TO, model.OpWrite, item, 30))
		deliver(m, ctx, ri, model.AbortMsg{Txn: model.TxnID{Site: 1, Seq: 4}, Copy: model.CopyID{Item: item}})
		if len(ctx.sent) != 0 {
			t.Fatalf("a parked queue sent %+v", ctx.sent)
		}
		if got := m.QueueDepth(item); got != 3 {
			t.Fatalf("queue depth %d, want 3 (writers 1, 2 and 3; 4 aborted)", got)
		}

		ctx.fire()
		g := takeGrants(ctx.fakeCtx)
		if len(g) != 1 || g[0].Txn.Seq != 2 || !g[0].PreScheduled || g[0].Version != 1 {
			t.Fatalf("un-park grants = %+v, want writer 2 pre-scheduled at version 1", g)
		}

		// Writer 2 converts too (parks again), then writer 1's final release
		// — a second release on a parked queue — makes writer 2's promotion
		// due. The promotion is ordered after writer 2's unsynced value and
		// must wait for the flush.
		semi2 := writeRelease(2, item, 22, 200)
		semi2.ToSemi = true
		deliver(m, ctx, ri, semi2)
		deliver(m, ctx, ri, release(1, item, false, 0))
		if len(ctx.sent) != 0 {
			t.Fatalf("a parked queue sent %+v", ctx.sent)
		}
		before := d.syncs()
		ctx.fire()
		if p := take[model.NormalGrantMsg](ctx.fakeCtx); len(p) != 1 || p[0].Txn.Seq != 2 {
			t.Fatalf("un-park promotions = %+v, want writer 2", p)
		}
		if d.syncs() != before+1 {
			t.Fatalf("two releases on one parked queue cost %d syncs, want 1", d.syncs()-before)
		}
	})
}

// TestSnapshotReadOfParkedItemWaits: the reply to a snapshot read must not
// carry an unsynced version, so it is held to the un-park; other items are
// answered at once.
func TestSnapshotReadOfParkedItemWaits(t *testing.T) {
	exposureMatrix(t, func(t *testing.T, shards int, window int64) {
		m, ctx, _, _ := exposureSite(t, shards, window)
		ri := engine.RIAddr(1)
		a, b := twoItems(shards)
		deliver(m, ctx, ri, req(1, model.TwoPL, model.OpWrite, a, model.NoTimestamp))
		takeGrants(ctx.fakeCtx)
		deliver(m, ctx, ri, writeRelease(1, a, 7, 100))

		snap := func(seq uint64, item model.ItemID) model.SnapReadMsg {
			return model.SnapReadMsg{Txn: model.TxnID{Site: 1, Seq: seq}, Copy: model.CopyID{Item: item}, SnapMicros: 150, Site: 1}
		}
		deliver(m, ctx, ri, snap(2, a))
		deliver(m, ctx, ri, snap(3, b))
		r := takeSnapReplies(ctx.fakeCtx)
		if len(r) != 1 || r[0].Copy.Item != b {
			t.Fatalf("before the sync: replies %+v, want only item %v", r, b)
		}
		ctx.fire()
		r = takeSnapReplies(ctx.fakeCtx)
		if len(r) != 1 || r[0].Copy.Item != a || r[0].Version != 1 || r[0].Value != 7 {
			t.Fatalf("after the sync: replies %+v, want item %v at version 1", r, a)
		}
		if c := m.Snapshot(); c.SnapReads != 2 {
			t.Fatalf("SnapReads=%d want 2", c.SnapReads)
		}
	})
}

// TestCrashWithQueuesParked: a crash between a write's journaling and its
// sync loses the write — which nobody saw. Recovery un-parks the queue
// against the recovered store, the lost write's history entry is retracted,
// the FlushMsg armed before the crash is harmless whenever it lands, and the
// shard keeps committing afterwards.
func TestCrashWithQueuesParked(t *testing.T) {
	for _, flushDuringOutage := range []bool{false, true} {
		flushDuringOutage := flushDuringOutage
		t.Run(fmt.Sprintf("flushDuringOutage=%v", flushDuringOutage), func(t *testing.T) {
			exposureMatrix(t, crashWithQueuesParked(flushDuringOutage))
		})
	}
}

func crashWithQueuesParked(flushDuringOutage bool) func(t *testing.T, shards int, window int64) {
	return func(t *testing.T, shards int, window int64) {
		m, ctx, d, rec := exposureSite(t, shards, window)
		ri := engine.RIAddr(1)
		const item = 0
		deliver(m, ctx, ri, req(1, model.TwoPL, model.OpWrite, item, model.NoTimestamp))
		deliver(m, ctx, ri, req(2, model.TwoPL, model.OpWrite, item, model.NoTimestamp))
		takeGrants(ctx.fakeCtx)
		deliver(m, ctx, ri, writeRelease(1, item, 7, 100))

		m.OnMessage(ctx, ctx.self, model.CrashMsg{})
		if flushDuringOutage {
			ctx.fire() // defers with the rest of the outage's traffic
		}
		if c := m.Snapshot(); c.Deferred != 0 {
			t.Fatalf("Deferred=%d: the shard's own FlushMsg is not traffic", c.Deferred)
		}
		m.OnMessage(ctx, ctx.self, model.RecoverMsg{})
		g := takeGrants(ctx.fakeCtx)
		if len(g) != 1 || g[0].Txn.Seq != 2 || g[0].Version != 0 || g[0].Value != 100 {
			t.Fatalf("recovery grants = %+v, want txn 2 at the recovered version 0", g)
		}
		if d.syncs() != 0 {
			t.Fatalf("%d syncs: the parked write died with the log tail, there was nothing to sync", d.syncs())
		}
		for _, e := range rec.Log(model.CopyID{Item: item, Site: 0}) {
			if e.Txn.Seq == 1 {
				t.Fatalf("history still holds the crash-discarded write: %+v", e)
			}
		}
		ctx.fire() // the pre-crash FlushMsg, if it is only landing now
		if len(ctx.sent) != 0 || d.syncs() != 0 {
			t.Fatalf("stale FlushMsg sent %+v, synced %d times", ctx.sent, d.syncs())
		}

		deliver(m, ctx, ri, req(3, model.TwoPL, model.OpWrite, item, model.NoTimestamp))
		deliver(m, ctx, ri, writeRelease(2, item, 8, 200))
		if len(ctx.timers) != 1 {
			t.Fatalf("post-recovery write armed %d FlushMsgs, want 1", len(ctx.timers))
		}
		ctx.fire()
		g = takeGrants(ctx.fakeCtx)
		if len(g) != 1 || g[0].Txn.Seq != 3 || g[0].Version != 1 || g[0].Value != 8 {
			t.Fatalf("post-recovery grants = %+v, want txn 3 at version 1 value 8", g)
		}
	}
}

// TestRetireWhileParked: an item that moves away while its last write is
// still unsynced keeps its queue — and the site keeps answering NotReady to
// the new owner's fill pull — until the flush; only then does the queue
// retire and the fill serve the write.
func TestRetireWhileParked(t *testing.T) {
	exposureMatrix(t, func(t *testing.T, shards int, window int64) {
		m, ctx, _, _ := exposureSite(t, shards, window)
		ri := engine.RIAddr(1)
		const item = 0
		owners := func(first model.SiteID) [][]model.SiteID {
			as := make([][]model.SiteID, 8)
			for i := range as {
				as[i] = []model.SiteID{0}
			}
			as[item] = []model.SiteID{first}
			return as
		}
		m.SetPartitionMap(&model.PartitionMap{Epoch: 1, Assignments: owners(0)})
		deliver(m, ctx, ri, req(1, model.TwoPL, model.OpWrite, item, model.NoTimestamp))
		takeGrants(ctx.fakeCtx)
		deliver(m, ctx, ri, writeRelease(1, item, 7, 100))

		m.OnMessage(ctx, ctx.self, model.MapInstallMsg{Map: model.PartitionMap{Epoch: 2, Assignments: owners(1)}})
		if m.queueOf(item) == nil {
			t.Fatal("map install deleted a parked queue")
		}
		pull := model.ReplPullMsg{From: 1, Epoch: 2, Scope: repl.AppendScope(nil, []model.ItemID{item})}
		deliver(m, ctx, engine.QMAddr(1), pull)
		if r := take[model.ReplRecordsMsg](ctx.fakeCtx); len(r) != 1 || !r[0].NotReady {
			t.Fatalf("transfer served before the handed-off write was durable: %+v", r)
		}

		ctx.fire()
		if m.queueOf(item) != nil {
			t.Fatal("drained retiring queue survived its un-park")
		}
		deliver(m, ctx, engine.QMAddr(1), pull)
		if r := take[model.ReplRecordsMsg](ctx.fakeCtx); len(r) != 1 || r[0].NotReady || len(r[0].Frames) == 0 {
			t.Fatalf("transfer after the flush: %+v, want the store image", r)
		}
	})
}

// chainRI is a minimal issuer for the runtime test: per item it runs a chain
// of write transactions — grant, release with a write, next request — and
// checks on every grant it receives that the version it carries was synced.
// One extra transaction closes each chain: its grant proves the last write
// was released, flushed and exposed.
type chainRI struct {
	t      *testing.T
	d      *walDouble
	shards int
	rounds uint64
	mu     sync.Mutex
	live   int
	done   chan struct{}
}

func (r *chainRI) request(ctx engine.Context, item model.ItemID, seq uint64) {
	ctx.Send(engine.QMShardAddr(0, model.ShardOfItem(item, r.shards)), pooled(model.RequestMsg{
		Txn: model.TxnID{Site: model.SiteID(item) + 1, Seq: seq}, Protocol: model.TwoPL, Kind: model.OpWrite,
		Copy: model.CopyID{Item: item}, Site: 1,
	}))
}

func (r *chainRI) OnMessage(ctx engine.Context, _ engine.Addr, msg model.Message) {
	if _, start := msg.(model.TickMsg); start {
		for i := 0; i < r.live; i++ {
			r.request(ctx, model.ItemID(i), 1)
		}
		return
	}
	g, ok := grantOf(msg)
	if !ok {
		r.t.Errorf("unexpected %T", msg)
		return
	}
	item := g.Copy.Item
	if s := r.d.synced(item); g.Version > s {
		r.t.Errorf("grant exposes %v version %d, synced through %d", item, g.Version, s)
	}
	if g.Version != g.Txn.Seq-1 {
		r.t.Errorf("%v: txn %d granted at version %d: a write was lost or repeated", item, g.Txn.Seq, g.Version)
	}
	ctx.Send(engine.QMShardAddr(0, model.ShardOfItem(item, r.shards)), pooled(model.ReleaseMsg{
		Txn: g.Txn, Copy: g.Copy, HasWrite: g.Txn.Seq <= r.rounds, Value: int64(g.Txn.Seq), CommitMicros: ctx.NowMicros(),
	}))
	if g.Txn.Seq <= r.rounds {
		r.request(ctx, item, g.Txn.Seq+1)
		return
	}
	r.mu.Lock()
	r.live--
	if r.live == 0 {
		close(r.done)
	}
	r.mu.Unlock()
}

// TestShardMailboxesFlushConcurrently runs four shard mailboxes on
// engine.Runtime against a slow sync: every shard arms, syncs through the
// shared commit sequencer and un-parks on its own goroutine. Under -race
// this is the data-race gate for the parked state; the issuer checks the
// exposure order and that no un-park was lost (every chain completes).
func TestShardMailboxesFlushConcurrently(t *testing.T) {
	const items, shards, rounds = 32, 4, 150
	st := storage.NewStore(0)
	for i := 0; i < items; i++ {
		st.Create(model.ItemID(i), 100)
	}
	m := owning(New(0, st, nil, Options{Shards: shards}))
	d := newWALDouble(st)
	d.delay = 50 * time.Microsecond
	m.SetDurable(d)

	rt := engine.NewRuntime(engine.FixedLatency{}, 1)
	defer rt.Shutdown()
	for i := 0; i < shards; i++ {
		rt.Register(engine.QMShardAddr(0, i), m)
	}
	ri := &chainRI{t: t, d: d, shards: shards, rounds: rounds, live: items, done: make(chan struct{})}
	rt.Register(engine.RIAddr(1), ri)
	rt.Post(engine.Envelope{From: engine.RIAddr(1), To: engine.RIAddr(1), Msg: model.TickMsg{}})

	select {
	case <-ri.done:
	case <-time.After(60 * time.Second):
		t.Fatalf("chains stalled: a parked queue was never dispatched (counters %+v)", m.Snapshot())
	}
	writes := items * rounds
	if s := d.syncs(); s == 0 || s > writes {
		t.Fatalf("%d syncs for %d writes", s, writes)
	} else {
		t.Logf("%d writes in %d syncs (%.1f writes/sync)", writes, s, float64(writes)/float64(s))
	}
}

// hookedWAL runs before at the start of every Flush, on the flushing
// goroutine — which, for a control-plane flush, holds the shard's lock.
type hookedWAL struct {
	*walDouble
	before func()
}

func (h *hookedWAL) Flush() error {
	h.before()
	return h.walDouble.Flush()
}

// unparkRI is the issuer side of TestControlPlaneUnparkPrecedesShardSends:
// it runs the scripted transactions of one round on one item and checks the
// order and the sending address of the two read grants.
type unparkRI struct {
	t       *testing.T
	d       *walDouble
	shard   engine.Addr
	item    model.ItemID
	round   uint64 // transactions of a round are numbered 3·round + {0, 1, 2}
	granted int    // grants seen this round
	done    chan struct{}
}

func (r *unparkRI) txn(k uint64) model.TxnID { return model.TxnID{Site: 1, Seq: 3*r.round + k} }

func (r *unparkRI) OnMessage(ctx engine.Context, from engine.Addr, msg model.Message) {
	if _, start := msg.(model.TickMsg); start {
		r.granted = 0
		ctx.Send(r.shard, pooled(req(r.txn(0).Seq, model.TwoPL, model.OpWrite, r.item, model.NoTimestamp)))
		return
	}
	g, ok := grantOf(msg)
	if !ok {
		r.t.Errorf("unexpected %T", msg)
		return
	}
	if s := r.d.synced(r.item); g.Version > s {
		r.t.Errorf("grant exposes version %d, synced through %d", g.Version, s)
	}
	r.granted++
	switch r.granted {
	case 1: // the writer: write, release, and queue a read behind the now-parked item
		ctx.Send(r.shard, pooled(writeRelease(g.Txn.Seq, r.item, int64(r.round), int64(3*r.round+1))))
		ctx.Send(r.shard, pooled(req(r.txn(1).Seq, model.TwoPL, model.OpRead, r.item, model.NoTimestamp)))
	case 2:
		if g.Txn != r.txn(1) || from != engine.QMAddr(0) {
			r.t.Errorf("round %d: second grant is %v from %v, want the parked read %v un-parked by the control shard %v",
				r.round, g.Txn, from, r.txn(1), engine.QMAddr(0))
		}
	case 3:
		if g.Txn != r.txn(2) || from != r.shard {
			r.t.Errorf("round %d: third grant is %v from %v, want the following read %v granted by its own shard %v",
				r.round, g.Txn, from, r.txn(2), r.shard)
		}
		ctx.Send(r.shard, pooled(release(r.txn(1).Seq, r.item, false, 0)))
		ctx.Send(r.shard, pooled(release(r.txn(2).Seq, r.item, false, 0)))
		r.round++
		r.done <- struct{}{}
	}
}

// TestControlPlaneUnparkPrecedesShardSends closes the cross-address ordering
// question on engine.Runtime with Shards > 1. A shipped-record apply
// (onReplRecords → flushAll) un-parks an item's queue on the CONTROL shard's
// goroutine, so the grant it releases leaves from the control shard's address
// while the item's own shard mailbox already holds the next request, whose
// grant leaves from the shard's address a moment later. Both sends complete
// under the shard's lock and Runtime sends are synchronous, so the issuer
// must see the un-park's grant first, every round. The group-commit window
// is a minute, so no shard-own flush ever un-parks first: each round takes
// exactly this path, and the grants' sender addresses are asserted too.
func TestControlPlaneUnparkPrecedesShardSends(t *testing.T) {
	const shards, rounds = 4, 300
	item := model.ItemID(0)
	for model.ShardOfItem(item, shards) == 0 {
		item++
	}
	shardAddr := engine.QMShardAddr(0, model.ShardOfItem(item, shards))
	st := storage.NewStore(0)
	st.Create(item, 100)
	m := owning(New(0, st, nil, Options{Shards: shards, GroupCommitMicros: 60_000_000}))
	d := newWALDouble(st)
	d.delay = 50 * time.Microsecond
	rt := engine.NewRuntime(nil, 1)
	defer rt.Shutdown()
	ri := &unparkRI{t: t, d: d, shard: shardAddr, item: item, done: make(chan struct{}, 1)}

	// The control plane's flush is the only one that runs. When it does — on
	// the control shard's goroutine, holding the item's shard lock — drop the
	// next read request into that shard's own mailbox.
	var next atomic.Uint64 // the read to drop in; zero when none is due
	m.SetDurable(&hookedWAL{walDouble: d, before: func() {
		if seq := next.Swap(0); seq != 0 {
			rt.Post(engine.Envelope{From: engine.RIAddr(1), To: shardAddr,
				Msg: pooled(req(seq, model.TwoPL, model.OpRead, item, model.NoTimestamp))})
		}
	}})
	m.SetReplication(repl.NewPuller(repl.Options{Site: 0, Peers: []model.SiteID{2}}), nil)
	for i := 0; i < shards; i++ {
		rt.Register(engine.QMShardAddr(0, i), m)
	}
	rt.Register(engine.RIAddr(1), ri)

	for round := uint64(0); round < rounds; round++ {
		rt.Post(engine.Envelope{From: engine.RIAddr(1), To: engine.RIAddr(1), Msg: model.TickMsg{}})
		// Wait until the shard has taken the write's release and queued the
		// read behind the parked item (requests handled: two per round so
		// far, three per completed round).
		for deadline := time.Now().Add(30 * time.Second); m.Snapshot().Requests < 3*round+2; time.Sleep(20 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: the parked read was never queued (counters %+v)", round, m.Snapshot())
			}
		}
		next.Store(3*round + 2)
		frames := wal.AppendShipped(nil, wal.Record{}, wal.Record{
			Item: item, Txn: model.TxnID{Site: 2, Seq: round}, Value: -int64(round), CommitMicros: int64(3*round + 2),
		})
		rt.Post(engine.Envelope{From: engine.QMAddr(2), To: engine.QMAddr(0),
			Msg: pooled(model.ReplRecordsMsg{From: 2, Frames: frames, NextAfterSeq: round + 1})})
		select {
		case <-ri.done:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d stalled (counters %+v)", round, m.Snapshot())
		}
		if t.Failed() {
			return
		}
	}
	if c := m.Snapshot(); c.ReplApplied != rounds {
		t.Fatalf("applied %d shipped records in %d rounds: the un-park did not come from a shipped-record apply every time", c.ReplApplied, rounds)
	}
}
