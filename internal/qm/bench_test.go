package qm

import (
	"math/rand"
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
// boxed once, so a cycle's allocations are the queue manager's own.
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
		cb.requests = append(cb.requests, r)
		cb.releases = append(cb.releases, model.ReleaseMsg{Txn: r.Txn, Copy: r.Copy, HasWrite: true, Value: int64(i)})
	}
	cb.m = New(0, st, nil, Options{})
	cb.m.SetDurable(cb.d)
	return cb
}

func (cb *commitBatch) drain() {
	ri := engine.RIAddr(1)
	for _, r := range cb.requests {
		cb.m.OnMessage(&cb.ctx, ri, r)
	}
	for _, r := range cb.releases {
		cb.m.OnMessage(&cb.ctx, ri, r)
	}
	cb.m.OnMessage(&cb.ctx, cb.ctx.Self(), cb.ctx.timer)
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
// shard's boxed message and slices. AllocsPerRun floors the average, so the
// store's occasional chain regrowth does not count — a per-flush or
// per-write allocation would.
func TestDrainSyncAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cb := newCommitBatch(4)
	cb.drain()
	if got := testing.AllocsPerRun(200, cb.drain); got != 0 {
		t.Fatalf("one drain of 4 write releases + FlushMsg allocates %.0f times, want 0", got)
	}
	if cb.d.syncs != 202 {
		t.Fatalf("%d syncs for 202 drains, want one each", cb.d.syncs)
	}
}
