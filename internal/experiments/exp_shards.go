package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"ucc/internal/engine"
	"ucc/internal/history"
	"ucc/internal/metrics"
	"ucc/internal/model"
	"ucc/internal/qm"
	"ucc/internal/storage"
)

// ---------------------------------------------------------------------------
// Wall-clock shard-scaling harness
//
// The virtual-time simulator delivers every event on one goroutine, so it
// can prove sharding is CORRECT but never that it is FAST. This harness
// measures the real thing: W issuer goroutines drive one site's sharded
// queue manager concurrently — exactly the shape the runtime engine
// produces, where each shard address owns a mailbox goroutine and the shard
// mutex is the only serialization. Each worker owns a disjoint slice of the
// item space (its transactions conflict with nobody), so with S shards the
// site's lock table splits S ways and conflict-free throughput should scale
// with min(S, W, cores). The hot-shard mode restricts every worker to items
// hashing to shard 0: the same worker count then collides on one shard
// mutex no matter how many shards exist — the workload where sharding does
// not help.
// ---------------------------------------------------------------------------

// ShardBenchResult is one harness measurement.
type ShardBenchResult struct {
	Shards     int
	Workers    int
	Txns       uint64
	ElapsedSec float64
	// Throughput is committed transactions per wall-clock second.
	Throughput float64
	// AllocsPerTxn is the heap-allocation cost of one committed transaction:
	// the runtime.MemStats.Mallocs delta across the worker phase divided by
	// committed transactions. It is the number the bench gate holds a
	// lower-is-better baseline against — the zero-alloc hot path's scorecard.
	AllocsPerTxn float64
	// Serializable is the conflict-graph checker's verdict over the full
	// recorded history (it must hold at any shard count).
	Serializable bool
}

// shardBenchCtx is the engine.Context a harness worker hands the manager:
// sends are captured synchronously (the worker IS the issuer), timers are
// dropped (the harness runs no group-commit window or stats period).
type shardBenchCtx struct {
	self engine.Addr
	rng  *rand.Rand
	sent []engine.Envelope
}

func (c *shardBenchCtx) NowMicros() int64  { return time.Now().UnixMicro() }
func (c *shardBenchCtx) Self() engine.Addr { return c.self }
func (c *shardBenchCtx) Rand() *rand.Rand  { return c.rng }
func (c *shardBenchCtx) Send(to engine.Addr, msg model.Message) {
	c.sent = append(c.sent, engine.Envelope{From: c.self, To: to, Msg: msg})
}
func (c *shardBenchCtx) SetTimer(delayMicros int64, msg model.Message) {}

// recycleSent returns every captured outbound message to its pool and resets
// the capture buffer. The harness is the delivery layer for the shard's
// replies, so recycling here is what the runtime mailbox loop does after
// OnMessage in production.
func (c *shardBenchCtx) recycleSent() {
	for i := range c.sent {
		model.RecycleMessage(c.sent[i].Msg)
		c.sent[i] = engine.Envelope{}
	}
	c.sent = c.sent[:0]
}

// ShardThroughput measures one site's queue manager under W concurrent
// issuer workers, each committing txnsPerWorker uniform read-write
// transactions (size 4, half the operations writes) against its own slice
// of the item space. hotShard restricts every worker to items hashing to
// shard 0. The full history is recorded and conflict-graph checked.
func ShardThroughput(shards, workers, txnsPerWorker int, hotShard bool, seed int64) ShardBenchResult {
	if shards < 1 {
		shards = 1
	}
	if workers < 1 {
		workers = 1
	}
	const txnSize = 4
	items := workers * 64

	st := storage.NewStore(0)
	for i := 0; i < items; i++ {
		st.Create(model.ItemID(i), 100)
	}
	rec := history.NewRecorder()
	m := qm.New(0, st, rec, qm.Options{Shards: shards})

	// Disjoint per-worker item universes: the admissible items (all of them,
	// or just the hot shard's) are dealt round-robin across workers.
	// Disjointness means requests grant synchronously — the harness measures
	// the manager's capacity, not a contention profile (the sim experiments
	// own that question).
	universes := make([][]model.ItemID, workers)
	dealt := 0
	for i := 0; i < items; i++ {
		if hotShard && model.ShardOfItem(model.ItemID(i), shards) != 0 {
			continue
		}
		universes[dealt%workers] = append(universes[dealt%workers], model.ItemID(i))
		dealt++
	}
	for w, u := range universes {
		if len(u) < txnSize {
			panic(fmt.Sprintf("experiments: worker %d universe too small (%d items)", w, len(u)))
		}
	}

	var wg sync.WaitGroup
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			site := model.SiteID(w + 1)
			ctx := &shardBenchCtx{
				self: engine.RIAddr(site),
				rng:  rand.New(rand.NewSource(seed ^ int64(w)<<20)),
			}
			universe := universes[w]
			ts := model.Timestamp(1)
			chosen := make([]model.ItemID, 0, txnSize)
			kinds := make([]model.OpKind, 0, txnSize)
			for n := 0; n < txnsPerWorker; n++ {
				txn := model.TxnID{Site: site, Seq: uint64(n + 1)}
				ts++
				chosen = chosen[:0]
				kinds = kinds[:0]
				for len(chosen) < txnSize {
					it := universe[ctx.rng.Intn(len(universe))]
					dup := false
					for _, c := range chosen {
						if c == it {
							dup = true
							break
						}
					}
					if dup {
						continue
					}
					chosen = append(chosen, it)
					kind := model.OpRead
					if ctx.rng.Intn(2) == 0 {
						kind = model.OpWrite
					}
					kinds = append(kinds, kind)
				}
				for i, it := range chosen {
					// Pooled request, recycled once OnMessage returns: the
					// worker is issuer and delivery layer in one, so it owns
					// both ends of the Send contract.
					req := model.PooledRequest(model.RequestMsg{
						Txn: txn, Protocol: model.PA, Kind: kinds[i],
						Copy: model.CopyID{Item: it, Site: 0},
						TS:   ts, Interval: 1, Site: site,
					})
					m.OnMessage(ctx, ctx.self, req)
					model.RecycleMessage(req)
				}
				grants := 0
				for _, env := range ctx.sent {
					if _, ok := env.Msg.(*model.GrantMsg); ok {
						grants++
					}
				}
				if grants != txnSize {
					panic(fmt.Sprintf("experiments: worker %d txn %d got %d/%d grants (universes not disjoint?)",
						w, n, grants, txnSize))
				}
				ctx.recycleSent()
				commit := time.Now().UnixMicro()
				for i, it := range chosen {
					rel := model.PooledRelease(model.ReleaseMsg{
						Txn: txn, Copy: model.CopyID{Item: it, Site: 0},
						HasWrite: kinds[i] == model.OpWrite, Value: int64(n),
						CommitMicros: commit,
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
	elapsed := time.Since(start).Seconds()
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)

	check := rec.Check()
	total := uint64(workers * txnsPerWorker)
	return ShardBenchResult{
		Shards:       shards,
		Workers:      workers,
		Txns:         total,
		ElapsedSec:   elapsed,
		Throughput:   float64(total) / elapsed,
		AllocsPerTxn: float64(memAfter.Mallocs-memBefore.Mallocs) / float64(total),
		Serializable: check.Serializable &&
			check.Txns == workers*txnsPerWorker,
	}
}

// Exp11 sweeps the shard count on the wall-clock harness, uniform vs
// hot-shard mix, and reports throughput scaling. Unlike every other
// experiment this one measures wall time and so depends on the host's
// cores; the claim gate (≥1.5x at shards=4) applies on 4+ core machines.
func Exp11(cfg RunConfig) Result {
	sweep := []int{1, 2, 4, 8}
	txns := 4000
	if cfg.Quick {
		sweep = []int{1, 4}
		txns = 1500
	}
	const workers = 4

	table := &metrics.Table{Header: []string{
		"shards", "uniform (txn/s)", "speedup", "hot-shard (txn/s)", "speedup", "serializable",
	}}
	var baseUniform, baseHot float64
	var notes []string
	for _, s := range sweep {
		u := ShardThroughput(s, workers, txns, false, cfg.Seed)
		h := ShardThroughput(s, workers, txns, true, cfg.Seed+1)
		if s == sweep[0] {
			baseUniform, baseHot = u.Throughput, h.Throughput
		}
		table.AddRow(
			fmt.Sprint(s),
			metrics.F(u.Throughput),
			metrics.F(u.Throughput/baseUniform),
			metrics.F(h.Throughput),
			metrics.F(h.Throughput/baseHot),
			yesNo(u.Serializable)+"/"+yesNo(h.Serializable),
		)
		if !u.Serializable || !h.Serializable {
			notes = append(notes, fmt.Sprintf("VIOLATION at shards=%d (uniform=%v hot=%v)",
				s, u.Serializable, h.Serializable))
		}
	}
	notes = append(notes,
		fmt.Sprintf("wall-clock harness: %d issuer workers, GOMAXPROCS=%d, %d cores — speedups need cores ≥ shards",
			workers, runtime.GOMAXPROCS(0), runtime.NumCPU()),
		"uniform: each worker's items spread across every shard (hash), so S shards split the site's lock table S ways",
		"hot-shard: every access hashes to shard 0 — sharding cannot help a skewed key space; spread the keys instead",
	)
	return Result{
		Tables: []*metrics.Table{table},
		Notes:  notes,
	}
}
