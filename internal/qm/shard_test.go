package qm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/history"
	"ucc/internal/model"
	"ucc/internal/storage"
)

// shardedManager builds a site with items 0..items-1 split across shards.
func shardedManager(items, shards int) (*Manager, *history.Recorder) {
	st := storage.NewStore(0)
	for i := 0; i < items; i++ {
		st.Create(model.ItemID(i), 100)
	}
	rec := history.NewRecorder()
	return New(0, st, rec, Options{Shards: shards}), rec
}

// TestShardOfItemPartition: the hash must be total (every item lands in a
// real shard), stable, and collapse to shard 0 when unsharded.
func TestShardOfItemPartition(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 7, 256} {
		counts := make([]int, shards)
		for i := 0; i < 4096; i++ {
			s := model.ShardOfItem(model.ItemID(i), shards)
			if s < 0 || s >= shards {
				t.Fatalf("item %d → shard %d out of range [0,%d)", i, s, shards)
			}
			if s != model.ShardOfItem(model.ItemID(i), shards) {
				t.Fatal("hash not stable")
			}
			counts[s]++
		}
		if shards > 1 {
			for s, c := range counts {
				// Loose balance: no shard may be empty or hold well over its
				// double share.
				if c == 0 || c > 2*4096/shards+shards {
					t.Fatalf("shards=%d: shard %d holds %d of 4096 items", shards, s, c)
				}
			}
		}
	}
	if model.ShardOfItem(12345, 1) != 0 || model.ShardOfItem(12345, 0) != 0 {
		t.Fatal("unsharded items must map to shard 0")
	}
}

// TestShardedManagerRoutesByItem: every queue belongs to exactly the shard
// its item hashes to, and item traffic reaches it regardless of which shard
// address delivered the message.
func TestShardedManagerRoutesByItem(t *testing.T) {
	const items, shards = 32, 4
	m, _ := shardedManager(items, shards)
	if m.NumShards() != shards {
		t.Fatalf("NumShards=%d want %d", m.NumShards(), shards)
	}
	visited := make([]map[model.ItemID]bool, shards)
	for s, sh := range m.shards {
		visited[s] = map[model.ItemID]bool{}
		sh.eachQueue(func(q *dataQueue) { visited[s][q.copyID.Item] = true })
	}
	perShard := make([]int, shards)
	for i := 0; i < items; i++ {
		want := model.ShardOfItem(model.ItemID(i), shards)
		for s := range m.shards {
			if has := visited[s][model.ItemID(i)]; has != (s == want) {
				t.Fatalf("item %d queue in shard %d, want only shard %d", i, s, want)
			}
		}
		perShard[want]++
	}
	for s, c := range perShard {
		if c == 0 {
			t.Fatalf("shard %d owns no items (of %d)", s, items)
		}
	}

	ctx := newFakeCtx()
	for i := 0; i < items; i++ {
		deliver(m, ctx, engine.RIAddr(1), req(uint64(i+1), model.PA, model.OpWrite, model.ItemID(i), model.Timestamp(i+1)))
	}
	if g := takeGrants(ctx); len(g) != items {
		t.Fatalf("granted %d of %d uncontended requests", len(g), items)
	}
	c := m.Snapshot()
	if c.Requests != uint64(items) || c.Grants != uint64(items) {
		t.Fatalf("aggregated counters wrong: %+v", c)
	}
}

// TestShardedManagerParallelTraffic hammers a sharded manager from one
// goroutine per shard, each driving request/release cycles for its own
// shard's items — the exact concurrency shape the runtime engine produces
// with per-shard mailboxes. Run under -race this is the data-race gate for
// the shard split; the final history must also check out serializable.
func TestShardedManagerParallelTraffic(t *testing.T) {
	const items, shards, txnsPer = 64, 4, 300
	m, rec := shardedManager(items, shards)

	byShard := make([][]model.ItemID, shards)
	for i := 0; i < items; i++ {
		s := model.ShardOfItem(model.ItemID(i), shards)
		byShard[s] = append(byShard[s], model.ItemID(i))
	}
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ctx := &fakeCtx{self: engine.QMShardAddr(0, s), rng: rand.New(rand.NewSource(int64(s)))}
			site := model.SiteID(s + 1)
			mine := byShard[s]
			for n := 0; n < txnsPer; n++ {
				txn := model.TxnID{Site: site, Seq: uint64(n + 1)}
				item := mine[n%len(mine)]
				deliver(m, ctx, engine.RIAddr(site), model.RequestMsg{
					Txn: txn, Protocol: model.PA, Kind: model.OpWrite,
					Copy: model.CopyID{Item: item, Site: 0},
					TS:   model.Timestamp(n + 1), Interval: 1, Site: site,
				})
				if g := takeGrants(ctx); len(g) != 1 {
					panic(fmt.Sprintf("shard %d txn %d: %d grants", s, n, len(g)))
				}
				deliver(m, ctx, engine.RIAddr(site), model.ReleaseMsg{
					Txn: txn, Copy: model.CopyID{Item: item, Site: 0},
					HasWrite: true, Value: int64(n), CommitMicros: int64(n + 1),
				})
				rec.Committed(txn, model.PA)
			}
		}(s)
	}
	wg.Wait()

	c := m.Snapshot()
	if want := uint64(shards * txnsPer); c.Requests != want || c.Releases != want {
		t.Fatalf("requests=%d releases=%d want %d", c.Requests, c.Releases, want)
	}
	if res := rec.Check(); !res.Serializable {
		t.Fatalf("parallel sharded history not serializable: cycle=%v", res.Cycle)
	}
}

// TestShardedCrashTakesDownAllShards: a site crashes as a unit — traffic to
// every shard defers during the outage and drains at recovery.
func TestShardedCrashTakesDownAllShards(t *testing.T) {
	const items, shards = 16, 4
	m, _ := shardedManager(items, shards)
	m.SetDurable(&fakeDurable{st: m.store, saved: m.store.Chains()})
	ctx := newFakeCtx()

	m.OnMessage(ctx, engine.RIAddr(1), model.CrashMsg{})
	if !m.Down() {
		t.Fatal("site not down after CrashMsg")
	}
	// One request per item: they hit every shard and must all defer.
	for i := 0; i < items; i++ {
		deliver(m, ctx, engine.RIAddr(1), req(uint64(i+1), model.PA, model.OpWrite, model.ItemID(i), model.Timestamp(i+1)))
	}
	if g := takeGrants(ctx); len(g) != 0 {
		t.Fatalf("%d grants issued while down", len(g))
	}
	if d := m.Snapshot().Deferred; d != uint64(items) {
		t.Fatalf("deferred=%d want %d", d, items)
	}
	// Crashing a down site is a no-op, not a second crash.
	m.OnMessage(ctx, engine.RIAddr(1), model.CrashMsg{})
	if c := m.Snapshot().Crashes; c != 1 {
		t.Fatalf("crashes=%d want 1", c)
	}

	m.OnMessage(ctx, engine.RIAddr(1), model.RecoverMsg{})
	if m.Down() {
		t.Fatal("site still down after RecoverMsg")
	}
	if g := takeGrants(ctx); len(g) != items {
		t.Fatalf("recovery drained %d grants, want %d", len(g), items)
	}
	if r := m.Snapshot().Recoveries; r != 1 {
		t.Fatalf("recoveries=%d want 1", r)
	}
}

// fakeDurable is a minimal Durable for crash-path tests: it snapshots the
// store's chains at attach time and restores them on Recover, standing in
// for internal/wal's snapshot+replay (which internal/cluster and
// internal/wal tests exercise against real media).
type fakeDurable struct {
	st    *storage.Store
	saved []storage.CopyChain
}

func (d *fakeDurable) Flush() error { return nil }
func (d *fakeDurable) Crash()       {}
func (d *fakeDurable) Recover() error {
	for _, c := range d.saved {
		d.st.RestoreChain(c)
	}
	return nil
}
