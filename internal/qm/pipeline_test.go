package qm

import (
	"fmt"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
)

// offloadCtx is exposureCtx with engine.Offloader: an offloaded sync runs at
// once — the log it syncs is the log as of the FlushMsg — but its completion
// is held until the test delivers it (complete), so the test decides what
// the shard handles while the sync is in flight.
type offloadCtx struct {
	*exposureCtx
	dones []model.Message
}

func (c *offloadCtx) Offload(work func(), done model.Message) {
	work()
	c.dones = append(c.dones, done)
}

// complete delivers the oldest held completion.
func (c *offloadCtx) complete(t *testing.T) {
	t.Helper()
	if len(c.dones) == 0 {
		t.Fatal("no sync in flight")
	}
	done := c.dones[0]
	c.dones = c.dones[1:]
	c.m.OnMessage(c, c.self, done)
}

// fire delivers every armed timer through this context, in arming order.
func (c *offloadCtx) fire() {
	ts := c.timers
	c.timers = nil
	for _, tm := range ts {
		c.m.OnMessage(c, c.self, tm.msg)
	}
}

func offloadSite(t *testing.T, shards int, window int64) (*Manager, *offloadCtx, *walDouble) {
	m, ctx, d, _ := exposureSite(t, shards, window)
	return m, &offloadCtx{exposureCtx: ctx}, d
}

// pipelineMatrix runs one case over shards {1, 4} at a zero window.
func pipelineMatrix(t *testing.T, run func(t *testing.T, shards int)) {
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { run(t, shards) })
	}
}

// TestShardServesDuringSync: with its sync in flight a shard keeps
// handling messages. An item nobody wrote is granted at once; a request
// behind the written item waits for the completion, and is the only thing
// the completion releases.
func TestShardServesDuringSync(t *testing.T) {
	pipelineMatrix(t, func(t *testing.T, shards int) {
		m, ctx, d := offloadSite(t, shards, 0)
		ri := engine.RIAddr(1)
		// b shares a's shard, so b's request meets the shard's sync in flight.
		a, b := model.ItemID(0), model.ItemID(1)
		for model.ShardOfItem(b, shards) != model.ShardOfItem(a, shards) {
			b++
		}
		m.OnMessage(ctx, ri, req(1, model.TwoPL, model.OpWrite, a, model.NoTimestamp))
		take[model.GrantMsg](ctx.fakeCtx)
		m.OnMessage(ctx, ri, writeRelease(1, a, 7, 100))
		ctx.fire()
		if len(ctx.dones) != 1 || d.syncs() != 1 {
			t.Fatalf("%d syncs in flight after %d syncs, want the FlushMsg's one", len(ctx.dones), d.syncs())
		}
		m.OnMessage(ctx, ri, req(2, model.TwoPL, model.OpRead, a, model.NoTimestamp))
		m.OnMessage(ctx, ri, req(3, model.TwoPL, model.OpRead, b, model.NoTimestamp))
		if g := take[model.GrantMsg](ctx.fakeCtx); len(g) != 1 || g[0].Copy.Item != b {
			t.Fatalf("during the sync: grants %+v, want only item %v's", g, b)
		}
		ctx.complete(t)
		if g := take[model.GrantMsg](ctx.fakeCtx); len(g) != 1 || g[0].Copy.Item != a || g[0].Version != 1 {
			t.Fatalf("at the completion: grants %+v, want item %v's at version 1", g, a)
		}
		if len(ctx.timers) != 0 || len(ctx.dones) != 0 {
			t.Fatalf("nothing left to sync, yet %d timers and %d syncs are pending", len(ctx.timers), len(ctx.dones))
		}
	})
}

// TestWriteDuringSyncWaitsForItsOwnSync: a queue written while the shard's
// sync is in flight — a sync that started before the write, and may have
// written the log out before it — stays parked at that sync's completion,
// while the queue the sync covered un-parks. Its grant, its promotion and
// the snapshot read of its new version leave only when the next sync,
// armed by the completion, has returned; the exposure check (exposureCtx)
// fails any send that carries or follows an unsynced version.
func TestWriteDuringSyncWaitsForItsOwnSync(t *testing.T) {
	pipelineMatrix(t, func(t *testing.T, shards int) {
		m, ctx, d := offloadSite(t, shards, 0)
		ri := engine.RIAddr(1)
		x, y := model.ItemID(0), model.ItemID(1)
		for model.ShardOfItem(y, shards) != model.ShardOfItem(x, shards) {
			y++
		}
		// On y, T/O writer 1 converts to a semi-lock and writer 2 holds the
		// pre-scheduled lock that conversion earns; a 2PL read waits behind.
		m.OnMessage(ctx, ri, req(1, model.TO, model.OpWrite, y, 10))
		semi := writeRelease(1, y, 11, 100)
		semi.ToSemi = true
		m.OnMessage(ctx, ri, semi)
		m.OnMessage(ctx, ri, req(2, model.TO, model.OpWrite, y, 20))
		m.OnMessage(ctx, ri, req(3, model.TwoPL, model.OpRead, y, model.NoTimestamp))
		ctx.fire()
		ctx.complete(t)
		if g := take[model.GrantMsg](ctx.fakeCtx); len(g) != 2 || g[1].Txn.Seq != 2 || !g[1].PreScheduled {
			t.Fatalf("setup grants %+v, want writer 1's and writer 2's pre-scheduled one", g)
		}

		// x is written, and its sync starts.
		m.OnMessage(ctx, ri, req(4, model.TwoPL, model.OpWrite, x, model.NoTimestamp))
		m.OnMessage(ctx, ri, req(5, model.TwoPL, model.OpRead, x, model.NoTimestamp))
		take[model.GrantMsg](ctx.fakeCtx)
		m.OnMessage(ctx, ri, writeRelease(4, x, 44, 150))
		ctx.fire()

		// In flight: writer 2 converts (y's second write), writer 1 leaves
		// (writer 2's promotion is due), and a snapshot read of y arrives.
		semi2 := writeRelease(2, y, 22, 200)
		semi2.ToSemi = true
		m.OnMessage(ctx, ri, semi2)
		m.OnMessage(ctx, ri, release(1, y, false, 0))
		m.OnMessage(ctx, ri, model.SnapReadMsg{Txn: model.TxnID{Site: 1, Seq: 6}, Copy: model.CopyID{Item: y}, SnapMicros: 300, Site: 1})
		if len(ctx.sent) != 0 || len(ctx.timers) != 0 {
			t.Fatalf("during the sync: sent %+v and armed %d FlushMsgs, want nothing", ctx.sent, len(ctx.timers))
		}
		ctx.complete(t)
		if g := take[model.GrantMsg](ctx.fakeCtx); len(g) != 1 || g[0].Txn.Seq != 5 || g[0].Version != 1 {
			t.Fatalf("x's completion: grants %+v, want txn 5's read of x at version 1", g)
		}
		if len(ctx.sent) != 0 {
			t.Fatalf("x's completion sent %+v for y, written after the sync started", ctx.sent)
		}
		if len(ctx.timers) != 1 {
			t.Fatalf("x's completion armed %d FlushMsgs, want 1 for y's write", len(ctx.timers))
		}
		ctx.fire()
		ctx.complete(t)
		if p := take[model.NormalGrantMsg](ctx.fakeCtx); len(p) != 1 || p[0].Txn.Seq != 2 {
			t.Fatalf("y's completion: promotions %+v, want writer 2's", p)
		}
		if r := take[model.SnapReadReplyMsg](ctx.fakeCtx); len(r) != 1 || r[0].Version != 2 || r[0].Value != 22 {
			t.Fatalf("y's completion: snapshot replies %+v, want version 2 value 22", r)
		}
		if d.syncs() != 3 {
			t.Fatalf("%d syncs, want 3", d.syncs())
		}
	})
}

// TestStaleCompletionUnparksNothing: a crash while a sync is in flight
// makes its completion stale, whether it lands during the outage (and is
// deferred, uncounted) or after recovery. Recovery un-parks the crashed
// queue; the stale completion neither panics nor un-parks the queue a
// post-recovery write parked — that waits for a sync of its own, which the
// shard starts only once the stale one has completed.
func TestStaleCompletionUnparksNothing(t *testing.T) {
	for _, duringOutage := range []bool{false, true} {
		duringOutage := duringOutage
		t.Run(fmt.Sprintf("duringOutage=%v", duringOutage), func(t *testing.T) {
			pipelineMatrix(t, func(t *testing.T, shards int) {
				m, ctx, d := offloadSite(t, shards, 0)
				ri := engine.RIAddr(1)
				const item = 0
				m.OnMessage(ctx, ri, req(1, model.TwoPL, model.OpWrite, item, model.NoTimestamp))
				m.OnMessage(ctx, ri, req(2, model.TwoPL, model.OpWrite, item, model.NoTimestamp))
				take[model.GrantMsg](ctx.fakeCtx)
				m.OnMessage(ctx, ri, writeRelease(1, item, 7, 100))
				ctx.fire()

				m.OnMessage(ctx, ctx.self, model.CrashMsg{})
				if duringOutage {
					ctx.complete(t)
				}
				if c := m.Snapshot(); c.Deferred != 0 {
					t.Fatalf("Deferred=%d: a sync completion is not traffic", c.Deferred)
				}
				m.OnMessage(ctx, ctx.self, model.RecoverMsg{})
				if g := take[model.GrantMsg](ctx.fakeCtx); len(g) != 1 || g[0].Txn.Seq != 2 {
					t.Fatalf("recovery grants %+v, want txn 2's", g)
				}

				m.OnMessage(ctx, ri, req(3, model.TwoPL, model.OpWrite, item, model.NoTimestamp))
				m.OnMessage(ctx, ri, writeRelease(2, item, 8, 200))
				if !duringOutage {
					if len(ctx.timers) != 0 {
						t.Fatalf("armed %d FlushMsgs while the stale sync is in flight, want 0", len(ctx.timers))
					}
					ctx.complete(t)
					if len(ctx.sent) != 0 {
						t.Fatalf("the stale completion sent %+v", ctx.sent)
					}
				}
				if len(ctx.timers) != 1 {
					t.Fatalf("the post-recovery write armed %d FlushMsgs, want 1", len(ctx.timers))
				}
				synced := d.syncs()
				ctx.fire()
				ctx.complete(t)
				g := take[model.GrantMsg](ctx.fakeCtx)
				if len(g) != 1 || g[0].Txn.Seq != 3 || g[0].Value != 8 || d.syncs() != synced+1 {
					t.Fatalf("after its own sync: grants %+v (%d syncs), want txn 3's with value 8 after one more", g, d.syncs()-synced)
				}
			})
		})
	}
}
