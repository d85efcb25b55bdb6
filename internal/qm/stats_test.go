package qm

import (
	"math"
	"reflect"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/metrics"
	"ucc/internal/model"
	"ucc/internal/storage"
)

const statsPeriod = 200_000 // µs

// statsTick advances ctx by one stats period, fires the manager's stats
// tick and returns the report it sent the collector.
func statsTick(t *testing.T, m *Manager, ctx *fakeCtx) model.QueueStatsMsg {
	t.Helper()
	ctx.now += statsPeriod
	m.OnMessage(ctx, ctx.self, model.TickMsg{})
	reports := take[model.QueueStatsMsg](ctx)
	if len(reports) != 1 {
		t.Fatalf("stats tick sent %d reports, want 1", len(reports))
	}
	take[model.TickMsg](ctx) // the re-armed timer
	return reports[0]
}

// estimateFrom feeds the reports, in order, to a fresh collector and
// returns its estimate.
func estimateFrom(ctx *fakeCtx, reports ...model.QueueStatsMsg) model.EstimateMsg {
	c := metrics.NewCollector(metrics.CollectorOptions{})
	for _, r := range reports {
		deliver(c, ctx, engine.QMAddr(0), r)
	}
	return c.Estimates(ctx.now)
}

func checkRate(t *testing.T, what string, got, max float64) {
	t.Helper()
	if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 || got > max {
		t.Errorf("%s = %g, want a rate in [0, %g]", what, got, max)
	}
}

// TestStatsRatesSurviveCopyChurn pins the per-item throughputs λr(j),
// λw(j) the collector derives from a site's grant reports when a copy's
// count goes down between two reports. A copy that leaves the site and
// comes back within one period starts counting again from zero, and a PA
// revocation takes back a grant already reported; neither may read as a
// huge or negative rate.
func TestStatsRatesSurviveCopyChurn(t *testing.T) {
	t.Run("copy moves away and back", func(t *testing.T) {
		st := storage.NewStore(0)
		st.Create(0, 100)
		m := New(0, st, nil, Options{StatsPeriodMicros: statsPeriod, InitialValue: 100})
		m.SetPartitionMap(&model.PartitionMap{Epoch: 1, Assignments: [][]model.SiteID{{0}}})
		ctx := newFakeCtx()
		for txn := uint64(1); txn <= 5; txn++ {
			deliver(m, ctx, engine.RIAddr(1), req(txn, model.TwoPL, model.OpRead, 0, model.NoTimestamp))
			deliver(m, ctx, engine.RIAddr(1), release(txn, 0, false, 0))
		}
		if g := takeGrants(ctx); len(g) != 5 {
			t.Fatalf("grants = %d, want 5", len(g))
		}
		first := statsTick(t, m, ctx)

		m.OnMessage(ctx, ctx.self, model.MapInstallMsg{Map: model.PartitionMap{Epoch: 2, Assignments: [][]model.SiteID{{1}}}})
		m.OnMessage(ctx, ctx.self, model.MapInstallMsg{Map: model.PartitionMap{Epoch: 3, Assignments: [][]model.SiteID{{0}}}})
		if c := m.Snapshot(); c.MapInstalls != 2 || c.ItemsGained != 1 {
			t.Fatalf("map installs %d, items gained %d: want 2 and 1", c.MapInstalls, c.ItemsGained)
		}
		second := statsTick(t, m, ctx)

		est := estimateFrom(ctx, first, second)
		checkRate(t, "LambdaR[0]", est.LambdaR[0], 5/(statsPeriod/1e6))
		checkRate(t, "LambdaW[0]", est.LambdaW[0], 0)
		checkRate(t, "LambdaA", est.LambdaA, 5/(statsPeriod/1e6))
	})

	t.Run("PA revocation with a blocked re-grant", func(t *testing.T) {
		m, _ := testManager(1, true)
		m.opts.StatsPeriodMicros = statsPeriod
		ctx := newFakeCtx()
		first := statsTick(t, m, ctx)

		// A PA write is granted provisionally at TS 5, and a T/O read at
		// TS 30 queues behind it.
		deliver(m, ctx, engine.RIAddr(1), req(1, model.PA, model.OpWrite, 0, 5))
		deliver(m, ctx, engine.RIAddr(1), req(2, model.TO, model.OpRead, 0, 30))
		if g := takeGrants(ctx); len(g) != 1 || g[0].Txn.Seq != 1 {
			t.Fatalf("grants = %+v, want the PA write's alone", g)
		}
		second := statsTick(t, m, ctx)

		// The write's agreed TS 50 revokes its grant; it re-queues behind
		// the read, which is granted and holds it off.
		deliver(m, ctx, engine.RIAddr(1), model.FinalTSMsg{
			Txn: model.TxnID{Site: 1, Seq: 1}, Copy: model.CopyID{Item: 0, Site: 0}, TS: 50,
		})
		if got := m.Snapshot().Revokes; got != 1 {
			t.Fatalf("revokes = %d, want 1", got)
		}
		if g := takeGrants(ctx); len(g) != 1 || g[0].Txn.Seq != 2 {
			t.Fatalf("grants after the revocation = %+v, want the T/O read's alone", g)
		}
		third := statsTick(t, m, ctx)

		est := estimateFrom(ctx, first, second, third)
		perTick := 1 / (statsPeriod / 1e6)
		checkRate(t, "LambdaW[0]", est.LambdaW[0], perTick)
		checkRate(t, "LambdaR[0]", est.LambdaR[0], perTick)
		checkRate(t, "LambdaA", est.LambdaA, 2*perTick)
	})
}

// TestStatsTickAllocatesNothing: once warm, a stats tick walks the site's
// copies in item order into its scratch and sends them in a pooled report,
// so it allocates nothing.
func TestStatsTickAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	st := storage.NewStore(0)
	for i := 0; i < 512; i++ {
		st.Create(model.ItemID(i), 100)
	}
	m := New(0, st, nil, Options{StatsPeriodMicros: statsPeriod, Shards: 4})
	var ctx drainCtx
	var tick model.Message = model.TickMsg{}
	fire := func() { m.OnMessage(&ctx, engine.QMAddr(0), tick) }
	fire()
	if n := testing.AllocsPerRun(50, fire); n != 0 {
		t.Fatalf("%v allocations per stats tick, want 0", n)
	}
}

// TestCountersAddEveryField: Add sums every counter and Sub takes every
// counter away, so a counter added to Counters without a line in both fails
// here instead of reading zero in every cross-shard and cross-site total or
// in every scenario phase's deltas.
func TestCountersAddEveryField(t *testing.T) {
	var one Counters
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(i + 1))
	}
	var sum Counters
	sum.Add(one)
	sum.Add(one)
	s := reflect.ValueOf(sum)
	for i := 0; i < s.NumField(); i++ {
		if got := s.Field(i).Uint(); got != 2*uint64(i+1) {
			t.Errorf("%s = %d after adding %d twice", s.Type().Field(i).Name, got, i+1)
		}
	}
	sum.Sub(one)
	if sum != one {
		t.Errorf("twice %+v less once is %+v", one, sum)
	}
	sum.Sub(one)
	if sum != (Counters{}) {
		t.Errorf("a sum less its parts left %+v", sum)
	}
}
