// Benchmarks: one testing.B target per registered experiment (`go run
// ./cmd/uccbench -list`; each regenerates its table in Quick mode and logs
// it), plus
// microbenchmarks for the hot paths (precedence comparison, queue
// operations, the STL' evaluator, the serializability checker, and the
// virtual-time engine).
//
// Full-scale tables come from `go run ./cmd/uccbench`.
package ucc

import (
	"fmt"
	"testing"
	"time"

	"ucc/internal/experiments"
	"ucc/internal/history"
	"ucc/internal/model"
	"ucc/internal/stl"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		res := e.Run(experiments.RunConfig{Quick: true, Seed: int64(i) + 1988})
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

func BenchmarkExp1SystemTimeVsLambda(b *testing.B) { benchExperiment(b, "EXP-1") }
func BenchmarkExp2SystemTimeVsSize(b *testing.B)   { benchExperiment(b, "EXP-2") }
func BenchmarkExp3DeadlockVsBlocking(b *testing.B) { benchExperiment(b, "EXP-3") }
func BenchmarkExp4RestartsBackoffs(b *testing.B)   { benchExperiment(b, "EXP-4") }
func BenchmarkExp5UnifiedMixed(b *testing.B)       { benchExperiment(b, "EXP-5") }
func BenchmarkExp6DynamicSelection(b *testing.B)   { benchExperiment(b, "EXP-6") }
func BenchmarkExp7STLEvaluation(b *testing.B)      { benchExperiment(b, "EXP-7") }
func BenchmarkExp8Scenarios(b *testing.B)          { benchExperiment(b, "EXP-8") }
func BenchmarkExp10ReadPath(b *testing.B)          { benchExperiment(b, "EXP-10") }
func BenchmarkExp11ShardScaling(b *testing.B)      { benchExperiment(b, "EXP-11") }
func BenchmarkAbl1SemiLocks(b *testing.B)          { benchExperiment(b, "ABL-1") }
func BenchmarkAbl2BackoffInterval(b *testing.B)    { benchExperiment(b, "ABL-2") }
func BenchmarkAbl3DetectionPeriod(b *testing.B)    { benchExperiment(b, "ABL-3") }

// BenchmarkClusterThroughput measures end-to-end simulated transactions per
// wall-clock second on a mixed workload (the engine's macro speed).
func BenchmarkClusterThroughput(b *testing.B) {
	var committed uint64
	var allocs float64
	for i := 0; i < b.N; i++ {
		c, err := New(Config{Sites: 4, Items: 48, Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Workload(Workload{
			Rate:     40,
			Duration: 2 * time.Second,
			Mix:      Mix{TwoPL: 1, TO: 1, PA: 1},
		}); err != nil {
			b.Fatal(err)
		}
		res := c.Run()
		if !res.Serializable() {
			b.Fatal("non-serializable execution")
		}
		committed += res.Committed()
		allocs += res.AllocsPerCommittedTxn()
	}
	b.ReportMetric(float64(committed)/float64(b.N), "txns/op")
	b.ReportMetric(allocs/float64(b.N), "allocs/committed_txn")
}

// BenchmarkReadPathThroughput measures the closed-loop read-heavy capacity
// of the snapshot fast path itself (the CI bench smoke target): committed
// transactions per second of simulated time at fixed pressure.
func BenchmarkReadPathThroughput(b *testing.B) {
	var thr float64
	for i := 0; i < b.N; i++ {
		c, err := New(Config{Sites: 4, Items: 16, Seed: int64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Workload(Workload{
			Concurrency:  8,
			Duration:     2 * time.Second,
			Size:         3,
			ReadOnlySize: 8,
			ReadFrac:     0.2,
			Mix:          Mix{PA: 0.1, ReadOnly: 0.9},
		}); err != nil {
			b.Fatal(err)
		}
		res := c.Run()
		if !res.Serializable() {
			b.Fatal("non-serializable execution")
		}
		thr += res.Throughput()
	}
	b.ReportMetric(thr/float64(b.N), "txn/s")
}

// BenchmarkReadWriteThroughput measures the sharded queue manager's uniform
// read-write capacity on the wall-clock harness: 4 issuer goroutines, items
// hashed across shards, size-4 half-write transactions, full history
// recording. The shards=1 vs shards=4 pair is the EXP-11 headline number —
// on 4+ cores the sharded run should be ≥1.5x — and both are gated in CI
// against BENCH_baseline.json.
func BenchmarkReadWriteThroughput(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			var thr, allocs float64
			for i := 0; i < b.N; i++ {
				res := experiments.ShardThroughput(shards, 4, 3000, false, int64(i)+7)
				if !res.Serializable {
					b.Fatal("non-serializable execution")
				}
				thr += res.Throughput
				allocs += res.AllocsPerTxn
			}
			b.ReportMetric(thr/float64(b.N), "txn/s")
			// Heap allocations per committed transaction across the worker
			// phase — the zero-alloc hot-path scorecard, gated lower-is-better
			// in BENCH_baseline.json (allocs/op would also count the
			// serializability checker, which is not hot-path).
			b.ReportMetric(allocs/float64(b.N), "allocs/committed_txn")
		})
	}
}

// BenchmarkPrecedenceCompare exercises the §4.1 total order.
func BenchmarkPrecedenceCompare(b *testing.B) {
	ps := make([]model.Precedence, 64)
	for i := range ps {
		ps[i] = model.Precedence{
			TS:    model.Timestamp(i % 7),
			Is2PL: i%3 == 0,
			Site:  model.SiteID(i % 5),
			Txn:   model.TxnID{Site: model.SiteID(i % 5), Seq: uint64(i)},
		}
	}
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += ps[i%64].Compare(ps[(i+7)%64])
	}
	_ = sink
}

// BenchmarkSTLEvaluate measures one STL' dynamic program.
func BenchmarkSTLEvaluate(b *testing.B) {
	ev, err := stl.NewEvaluator(stl.Params{
		LambdaA: 400, LambdaW: 4, LambdaR: 6, Qr: 0.6, K: 4,
	}, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += ev.Evaluate(float64(i%200), 0.02)
	}
	_ = sink
}

// BenchmarkSTLSelection measures a full 3-protocol STL comparison (the
// per-transaction cost of dynamic selection on a cache miss).
func BenchmarkSTLSelection(b *testing.B) {
	ev, err := stl.NewEvaluator(stl.Params{
		LambdaA: 400, LambdaW: 4, LambdaR: 6, Qr: 0.6, K: 4,
	}, 32)
	if err != nil {
		b.Fatal(err)
	}
	prof := stl.TxnProfile{
		ReadItemsLambdaW:  []float64{2, 2},
		WriteItemsLambdaW: []float64{2, 2},
		WriteItemsLambdaR: []float64{3, 3},
	}
	pp := stl.ProtocolParams{
		U2PL: 0.01, U2PLAborted: 0.02, PAbort: 0.05,
		UTO: 0.01, UTOAborted: 0.005, Pr: 0.03, Pw: 0.05,
		UPA: 0.011, UPABackoff: 0.004, PBr: 0.05, PBw: 0.08,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals := stl.ForTxn(ev, prof, pp)
		_ = stl.Best(vals)
	}
}

// BenchmarkConflictGraphCheck measures the serializability oracle on a
// 1000-transaction history.
func BenchmarkConflictGraphCheck(b *testing.B) {
	rec := history.NewRecorder()
	for t := 1; t <= 1000; t++ {
		id := model.TxnID{Site: 1, Seq: uint64(t)}
		for o := 0; o < 4; o++ {
			kind := model.OpRead
			if (t+o)%2 == 0 {
				kind = model.OpWrite
			}
			rec.Implemented(model.CopyID{Item: model.ItemID((t*7 + o) % 64)}, id, kind)
		}
		rec.Committed(id, model.TwoPL)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := rec.Check(); !res.Serializable {
			b.Fatal("serial history flagged")
		}
	}
}
