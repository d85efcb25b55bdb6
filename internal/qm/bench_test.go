package qm

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/storage"
)

// drainCtx is the cheapest possible delivery layer: sends are recycled on
// the spot and the one timer a shard arms is kept for the caller to deliver.
type drainCtx struct {
	timer model.Message
}

func (c *drainCtx) NowMicros() int64                    { return 0 }
func (c *drainCtx) Self() engine.Addr                   { return engine.QMAddr(0) }
func (c *drainCtx) Rand() *rand.Rand                    { return nil }
func (c *drainCtx) Send(_ engine.Addr, m model.Message) { model.RecycleMessage(m) }
func (c *drainCtx) SetTimer(_ int64, m model.Message)   { c.timer = m }

// countDurable counts syncs and does nothing else.
type countDurable struct{ syncs int }

func (d *countDurable) Flush() error   { d.syncs++; return nil }
func (d *countDurable) Crash()         {}
func (d *countDurable) Recover() error { return nil }

// commitBatch is one mailbox drain of a durable single-shard site: k
// transactions take a write lock each, their k write releases are delivered
// back to back, then the one FlushMsg those releases armed. The messages are
// built once as batches of one, and each delivery takes a warm pooled copy,
// so a cycle's allocations are the queue manager's own.
type commitBatch struct {
	m        *Manager
	d        *countDurable
	ctx      drainCtx
	requests []model.Message
	releases []model.Message
}

func newCommitBatch(k int) *commitBatch {
	st := storage.NewStore(0)
	cb := &commitBatch{d: &countDurable{}}
	for i := 0; i < k; i++ {
		st.Create(model.ItemID(i), 100)
		r := req(uint64(i+1), model.TwoPL, model.OpWrite, model.ItemID(i), model.NoTimestamp)
		cb.requests = append(cb.requests, asBatch(r))
		cb.releases = append(cb.releases, asBatch(model.ReleaseMsg{Txn: r.Txn, Copy: r.Copy, HasWrite: true, Value: int64(i)}))
	}
	cb.m = owning(New(0, st, nil, Options{}))
	cb.m.SetDurable(cb.d)
	return cb
}

func (cb *commitBatch) drain() {
	ri := engine.RIAddr(1)
	for _, r := range cb.requests {
		deliver(cb.m, &cb.ctx, ri, r)
	}
	for _, r := range cb.releases {
		deliver(cb.m, &cb.ctx, ri, r)
	}
	deliver(cb.m, &cb.ctx, cb.ctx.Self(), cb.ctx.timer)
}

// BenchmarkShardCommitBatch gates the drain-sync by count, not by time: k
// write releases delivered ahead of their FlushMsg must cost exactly one
// sync, so writes/sync reads k on any machine. A sync per release — the
// discipline this replaced — reads 1.
func BenchmarkShardCommitBatch(b *testing.B) {
	const k = 16
	cb := newCommitBatch(k)
	cb.drain() // size the reused slices
	cb.d.syncs = 0
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		cb.drain()
	}
	b.ReportMetric(float64(k*b.N)/float64(cb.d.syncs), "writes/sync")
}

// TestDrainSyncAllocatesNothing keeps the allocs-per-transaction gate
// honest: arming the FlushMsg, parking, syncing and un-parking reuse the
// shard's boxed messages and slices. AllocsPerRun floors the average, so the
// store's occasional chain regrowth does not count — a per-flush or
// per-write allocation would. The drain runs twice: with the sync in place
// (a context that cannot offload), and on engine.Runtime, where the sync
// goes to the shard's offload worker and un-parks by its completion message.
func TestDrainSyncAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	t.Run("in place", func(t *testing.T) {
		cb := newCommitBatch(4)
		cb.drain()
		if got := testing.AllocsPerRun(200, cb.drain); got != 0 {
			t.Fatalf("one drain of 4 write releases + FlushMsg allocates %.0f times, want 0", got)
		}
		if cb.d.syncs != 202 {
			t.Fatalf("%d syncs for 202 drains, want one each", cb.d.syncs)
		}
	})
	t.Run("offloaded", func(t *testing.T) {
		rd := newRuntimeDrain(4)
		defer rd.rt.Shutdown()
		for i := 0; i < 50; i++ {
			rd.drain()
		}
		if got := testing.AllocsPerRun(200, rd.drain); got != 0 {
			t.Fatalf("one offloaded drain of 4 write releases allocates %.0f times, want 0", got)
		}
		// A drain cannot end without a sync; it may take two when the
		// mailbox loop reaches the FlushMsg before all the releases are
		// posted.
		if s := rd.d.syncs.Load(); s < 251 || s > 2*251 {
			t.Fatalf("%d syncs for 251 drains, want one or two each", s)
		}
	})
}

// atomicDurable counts syncs made on any goroutine and does nothing else.
type atomicDurable struct{ syncs atomic.Int64 }

func (d *atomicDurable) Flush() error   { d.syncs.Add(1); return nil }
func (d *atomicDurable) Crash()         {}
func (d *atomicDurable) Recover() error { return nil }

// grantSignal signals done at every every-th grant it receives.
type grantSignal struct {
	every, n int
	done     chan struct{}
}

func (g *grantSignal) OnMessage(engine.Context, engine.Addr, model.Message) {
	if g.n++; g.n%g.every == 0 {
		g.done <- struct{}{}
	}
}

// runtimeDrain is commitBatch's drain on engine.Runtime, where the sync is
// offloaded: k write requests, their k write releases and k reads queued
// behind the parked items land in the mailbox; the FlushMsg starts the sync
// on the shard's offload worker, and its completion un-parks the items.
// A drain ends when the reads are granted, and the next begins by
// releasing them.
type runtimeDrain struct {
	rt     *engine.Runtime
	d      *atomicDurable
	ri     *grantSignal
	first  []model.Message // write requests, write releases, read requests
	then   []model.Message // read releases
	primed bool
}

func newRuntimeDrain(k int) *runtimeDrain {
	st := storage.NewStore(0)
	rd := &runtimeDrain{d: &atomicDurable{}, ri: &grantSignal{every: 2 * k, done: make(chan struct{})}}
	var releases, reads []model.Message
	for i := 0; i < k; i++ {
		st.Create(model.ItemID(i), 100)
		w := req(uint64(i+1), model.TwoPL, model.OpWrite, model.ItemID(i), model.NoTimestamp)
		r := req(uint64(k+i+1), model.TwoPL, model.OpRead, model.ItemID(i), model.NoTimestamp)
		rd.first = append(rd.first, asBatch(w))
		releases = append(releases, asBatch(model.ReleaseMsg{Txn: w.Txn, Copy: w.Copy, HasWrite: true, Value: int64(i)}))
		reads = append(reads, asBatch(r))
		rd.then = append(rd.then, asBatch(model.ReleaseMsg{Txn: r.Txn, Copy: r.Copy}))
	}
	rd.first = append(append(rd.first, releases...), reads...)
	m := owning(New(0, st, nil, Options{}))
	m.SetDurable(rd.d)
	rd.rt = engine.NewRuntime(nil, 1)
	rd.rt.Register(engine.QMAddr(0), m)
	rd.rt.Register(engine.RIAddr(1), rd.ri)
	return rd
}

func (rd *runtimeDrain) post(msgs []model.Message) {
	for _, msg := range msgs {
		p, _ := pooledForm(msg)
		rd.rt.Post(engine.Envelope{From: engine.RIAddr(1), To: engine.QMAddr(0), Msg: p})
	}
}

func (rd *runtimeDrain) drain() {
	if rd.primed {
		rd.post(rd.then)
	}
	rd.primed = true
	rd.post(rd.first)
	<-rd.ri.done
}

// BenchmarkStatsTick times one stats tick of a site holding 4 096 copies:
// the work the tick does on the control shard's mailbox loop, where every
// message queued behind it waits.
func BenchmarkStatsTick(b *testing.B) {
	const items = 4096
	st := storage.NewStore(0)
	for i := 0; i < items; i++ {
		st.Create(model.ItemID(i), 100)
	}
	m := owning(New(0, st, nil, Options{StatsPeriodMicros: 200_000}))
	var ctx drainCtx
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.OnMessage(&ctx, engine.QMAddr(0), model.TickMsg{})
	}
}

// requestRelease is one shard of a volatile site holding items copies, and a
// transaction's write request and write release per item, built once as
// batches of one. A cycle takes warm pooled copies of one item's pair — the
// form a decoded frame arrives in — and delivers them: the request is
// granted at once, the release installs the write and empties the queue.
type requestRelease struct {
	m        *Manager
	ctx      drainCtx
	requests []model.RequestBatchMsg
	releases []model.ReleaseBatchMsg
	// draws is a fixed sequence of uniformly drawn items, and next the
	// position of the next cycle's item in it.
	draws []model.ItemID
	next  int
}

func newRequestRelease(items int) *requestRelease {
	st := storage.NewStore(0)
	rr := &requestRelease{}
	for i := 0; i < items; i++ {
		st.Create(model.ItemID(i), 100)
		r := req(uint64(i+1), model.TwoPL, model.OpWrite, model.ItemID(i), model.NoTimestamp)
		rr.requests = append(rr.requests, asBatch(r).(model.RequestBatchMsg))
		rr.releases = append(rr.releases, asBatch(model.ReleaseMsg{Txn: r.Txn, Copy: r.Copy, HasWrite: true, Value: int64(i)}).(model.ReleaseBatchMsg))
	}
	rr.m = owning(New(0, st, nil, Options{}))
	rng := rand.New(rand.NewSource(1))
	for range 1 << 16 {
		rr.draws = append(rr.draws, model.ItemID(rng.Intn(items)))
	}
	// Two writes to every copy grow each chain to the length it keeps, so
	// the cycles that follow measure the steady state.
	for range 2 {
		for i := range items {
			rr.cycleOn(model.ItemID(i))
		}
	}
	return rr
}

func (rr *requestRelease) cycleOn(item model.ItemID) {
	ri := engine.RIAddr(1)
	p := model.PooledRequestBatch(rr.requests[item])
	rr.m.OnMessage(&rr.ctx, ri, p)
	model.RecycleMessage(p)
	r := model.PooledReleaseBatch(rr.releases[item])
	rr.m.OnMessage(&rr.ctx, ri, r)
	model.RecycleMessage(r)
}

func (rr *requestRelease) cycle() {
	rr.cycleOn(rr.draws[rr.next])
	rr.next = (rr.next + 1) % len(rr.draws)
}

// BenchmarkShardRequestRelease times the queue manager's grant path, layer
// by layer's "qm shard queue → storage" row: one shard of a 4 096-copy
// site, one request → grant → release cycle per op on a uniformly drawn
// item. The copy's queue, its transaction's entry and its newest version
// are each found per cycle, so the cost of finding them shows here.
func BenchmarkShardRequestRelease(b *testing.B) {
	rr := newRequestRelease(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		rr.cycle()
	}
	b.StopTimer()
	if c := rr.m.Snapshot(); c.Grants != c.Releases || c.Grants != c.Requests {
		b.Fatalf("requests %d, grants %d, releases %d: every cycle must be granted and released", c.Requests, c.Grants, c.Releases)
	}
}

// TestRequestReleaseCycleAllocatesNothing: once the pools and the chains are
// warm, a request → grant → release cycle on a uniformly drawn item costs
// the queue manager no allocation.
func TestRequestReleaseCycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	rr := newRequestRelease(4096)
	if got := testing.AllocsPerRun(1000, rr.cycle); got != 0 {
		t.Fatalf("one request → grant → release cycle allocates %.2f times, want 0", got)
	}
	if c := rr.m.Snapshot(); c.Grants != c.Releases {
		t.Fatalf("%d grants, %d releases: every cycle must be released", c.Grants, c.Releases)
	}
}
