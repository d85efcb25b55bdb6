package qm

import (
	"math/rand"
	"sync"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
)

// raceCtx is a per-goroutine engine.Context that plays the delivery layer:
// every captured reply is a pooled pointer that must go back to its pool
// before the next transaction, exactly as the runtime mailbox loop does.
// Running this under -race is the point — the message pools, the entry pool,
// and the shard mutexes are shared across all goroutines, so a recycle that
// races a concurrent reuse (double-Put, use-after-recycle) trips the
// detector here before it corrupts a benchmark.
type raceCtx struct {
	self engine.Addr
	rng  *rand.Rand
	sent []engine.Envelope
}

func (c *raceCtx) NowMicros() int64  { return 0 }
func (c *raceCtx) Self() engine.Addr { return c.self }
func (c *raceCtx) Rand() *rand.Rand  { return c.rng }
func (c *raceCtx) Send(to engine.Addr, msg model.Message) {
	c.sent = append(c.sent, engine.Envelope{From: c.self, To: to, Msg: msg})
}
func (c *raceCtx) SetTimer(delayMicros int64, msg model.Message) {}

func (c *raceCtx) recycleSent() {
	for i := range c.sent {
		model.RecycleMessage(c.sent[i].Msg)
		c.sent[i] = engine.Envelope{}
	}
	c.sent = c.sent[:0]
}

// TestConcurrentPooledLifecycleRecycling mirrors the repl package's
// concurrent-replay race test for the zero-alloc txn path: W goroutines
// drive a sharded manager through full request→grant→release lifecycles
// using pooled messages end to end — pooled request batches of one in,
// pooled grant batches out,
// queue entries cycling through the entry pool on every admit/remove — with
// each goroutine owning a disjoint half of the item space so every request
// grants synchronously and the only shared state is the pools and the shard
// mutexes.
func TestConcurrentPooledLifecycleRecycling(t *testing.T) {
	const (
		workers = 4
		items   = 64
		txns    = 300
		size    = 3
	)
	m, rec := shardedManager(items, 4)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			site := model.SiteID(w + 1)
			ctx := &raceCtx{
				self: engine.RIAddr(site),
				rng:  rand.New(rand.NewSource(int64(w) + 41)),
			}
			// Disjoint universes: worker w owns items ≡ w (mod workers).
			var universe []model.ItemID
			for i := w; i < items; i += workers {
				universe = append(universe, model.ItemID(i))
			}
			ts := model.Timestamp(1)
			for n := 0; n < txns; n++ {
				txn := model.TxnID{Site: site, Seq: uint64(n + 1)}
				ts++
				picked := map[model.ItemID]bool{}
				var chosen []model.ItemID
				for len(chosen) < size {
					it := universe[ctx.rng.Intn(len(universe))]
					if picked[it] {
						continue
					}
					picked[it] = true
					chosen = append(chosen, it)
				}
				for i, it := range chosen {
					req := pooled(model.RequestMsg{
						Txn: txn, Protocol: model.PA, Kind: kindFor(i),
						Copy: model.CopyID{Item: it, Site: 0},
						TS:   ts, Interval: 1, Site: site,
					})
					m.OnMessage(ctx, ctx.self, req)
					model.RecycleMessage(req)
				}
				grants := 0
				for _, env := range ctx.sent {
					if b, ok := env.Msg.(*model.GrantBatchMsg); ok {
						grants += len(b.Members)
					}
				}
				if grants != size {
					panic("uncontended request did not grant synchronously")
				}
				ctx.recycleSent()
				for i, it := range chosen {
					rel := pooled(model.ReleaseMsg{
						Txn: txn, Copy: model.CopyID{Item: it, Site: 0},
						HasWrite: kindFor(i) == model.OpWrite, Value: int64(n),
						CommitMicros: int64(n + 1),
					})
					m.OnMessage(ctx, ctx.self, rel)
					model.RecycleMessage(rel)
				}
				ctx.recycleSent()
				rec.Committed(txn, model.PA)
			}
		}(w)
	}
	wg.Wait()

	check := rec.Check()
	if !check.Serializable {
		t.Fatalf("execution not serializable after concurrent pooled lifecycles: cycle %v", check.Cycle)
	}
	if check.Txns != workers*txns {
		t.Fatalf("committed %d txns, want %d", check.Txns, workers*txns)
	}
}

func kindFor(i int) model.OpKind {
	if i%2 == 0 {
		return model.OpWrite
	}
	return model.OpRead
}
