package deadlock

import (
	"math/rand"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
)

type fakeCtx struct {
	now    int64
	sent   []engine.Envelope
	timers int
	rng    *rand.Rand
}

func (c *fakeCtx) NowMicros() int64  { return c.now }
func (c *fakeCtx) Self() engine.Addr { return engine.DetectorAddr() }
func (c *fakeCtx) Rand() *rand.Rand  { return c.rng }
func (c *fakeCtx) Send(to engine.Addr, msg model.Message) {
	c.sent = append(c.sent, engine.Envelope{To: to, Msg: msg})
}
func (c *fakeCtx) SetTimer(d int64, msg model.Message) { c.timers++ }

func tid(n uint64) model.TxnID { return model.TxnID{Site: 1, Seq: n} }

func edge(waiter, holder uint64, w2pl, h2pl bool) model.WaitEdge {
	return model.WaitEdge{
		Waiter: tid(waiter), Holder: tid(holder),
		Waiter2PL: w2pl, Holder2PL: h2pl,
		WaiterSite: 1, WaiterIssuer: 1,
	}
}

// runRound probes and feeds one synthetic report per site.
func runRound(d *Detector, ctx *fakeCtx, edges []model.WaitEdge) []model.VictimMsg {
	before := len(ctx.sent)
	d.OnMessage(ctx, engine.DetectorAddr(), model.TickMsg{})
	// Answer the probes: site 0 reports the edges, site 1 reports none.
	round := d.round
	d.OnMessage(ctx, engine.QMAddr(0), model.PooledWFGReport(model.WFGReportMsg{From: 0, Round: round, Edges: edges}))
	d.OnMessage(ctx, engine.QMAddr(1), model.PooledWFGReport(model.WFGReportMsg{From: 1, Round: round}))
	var victims []model.VictimMsg
	for _, e := range ctx.sent[before:] {
		if v, ok := e.Msg.(model.VictimMsg); ok {
			victims = append(victims, v)
		}
	}
	return victims
}

func newTest() (*Detector, *fakeCtx) {
	d := New([]model.SiteID{0, 1}, Options{PeriodMicros: 1000, PersistRounds: 2})
	return d, &fakeCtx{rng: rand.New(rand.NewSource(1))}
}

func TestCyclePersistenceRequired(t *testing.T) {
	d, ctx := newTest()
	cycle := []model.WaitEdge{edge(1, 2, true, true), edge(2, 1, true, true)}
	if v := runRound(d, ctx, cycle); len(v) != 0 {
		t.Fatalf("victim chosen on first sighting: %+v", v)
	}
	v := runRound(d, ctx, cycle)
	if len(v) != 1 {
		t.Fatalf("no victim after persistence: %+v", v)
	}
	// Youngest 2PL member: t1.2.
	if v[0].Txn != tid(2) {
		t.Fatalf("victim = %v want t1.2 (youngest)", v[0].Txn)
	}
	if len(v[0].Cycle) != 2 {
		t.Fatalf("cycle witness = %v", v[0].Cycle)
	}
}

func TestTransientCycleIgnored(t *testing.T) {
	d, ctx := newTest()
	cycle := []model.WaitEdge{edge(1, 2, true, true), edge(2, 1, true, true)}
	runRound(d, ctx, cycle)
	// The cycle resolves by itself before the second sighting.
	if v := runRound(d, ctx, nil); len(v) != 0 {
		t.Fatalf("victim for vanished cycle: %+v", v)
	}
	if d.Snapshot().TransientCycles != 1 {
		t.Fatalf("transient not counted: %+v", d.Snapshot())
	}
}

func TestNo2PLCycleNeverVictimized(t *testing.T) {
	// Corollary 2: a cycle without a 2PL member must be transient; the
	// detector watches it but never kills.
	d, ctx := newTest()
	cycle := []model.WaitEdge{edge(1, 2, false, false), edge(2, 1, false, false)}
	for i := 0; i < 5; i++ {
		if v := runRound(d, ctx, cycle); len(v) != 0 {
			t.Fatalf("round %d: victimized a no-2PL cycle: %+v", i, v)
		}
	}
	if d.Snapshot().No2PLCycles == 0 {
		t.Fatal("no-2PL cycles not counted")
	}
}

func TestMixedCyclePicks2PLMember(t *testing.T) {
	d, ctx := newTest()
	// t3 (T/O) → t9 (2PL) → t3: only t9 is eligible even though t3... wait,
	// t3 is younger. Victim must be the youngest *2PL* member.
	cycle := []model.WaitEdge{edge(9, 3, true, false), edge(3, 9, false, true)}
	runRound(d, ctx, cycle)
	v := runRound(d, ctx, cycle)
	if len(v) != 1 || v[0].Txn != tid(9) {
		t.Fatalf("victim = %+v want t1.9 (the 2PL member)", v)
	}
}

func TestRestartedAttemptIsFreshVictim(t *testing.T) {
	// The detector must be able to victimize attempt 1 of a transaction it
	// already victimized at attempt 0 (regression test for the unbreakable-
	// cycle bug).
	d, ctx := newTest()
	mk := func(att model.Attempt) []model.WaitEdge {
		e1 := edge(1, 2, true, true)
		e1.WaiterSeq = att
		e2 := edge(2, 1, true, true)
		e2.WaiterSeq = att
		return []model.WaitEdge{e1, e2}
	}
	runRound(d, ctx, mk(0))
	v := runRound(d, ctx, mk(0))
	if len(v) != 1 {
		t.Fatal("first victimization missing")
	}
	// The victim restarted (attempt 1) and deadlocked again with the same
	// partner; the cycle must be breakable again.
	runRound(d, ctx, mk(1))
	v = runRound(d, ctx, mk(1))
	if len(v) != 1 {
		t.Fatalf("restarted attempt not victimized: %+v", d.Snapshot())
	}
	if v[0].Attempt != 1 {
		t.Fatalf("victim attempt = %d want 1", v[0].Attempt)
	}
}

func TestLateReportsIgnored(t *testing.T) {
	d, ctx := newTest()
	d.OnMessage(ctx, engine.DetectorAddr(), model.TickMsg{})
	round := d.round
	// A stale report from a previous round must not complete this round.
	d.OnMessage(ctx, engine.QMAddr(0), model.PooledWFGReport(model.WFGReportMsg{From: 0, Round: round - 1}))
	if len(d.expect) != 2 {
		t.Fatal("stale report consumed")
	}
	d.OnMessage(ctx, engine.QMAddr(0), model.PooledWFGReport(model.WFGReportMsg{From: 0, Round: round}))
	d.OnMessage(ctx, engine.QMAddr(1), model.PooledWFGReport(model.WFGReportMsg{From: 1, Round: round}))
	if len(d.expect) != 0 {
		t.Fatal("round did not complete")
	}
}

func TestDrainModeStopsWhenIdle(t *testing.T) {
	d, ctx := newTest()
	runRound(d, ctx, []model.WaitEdge{edge(1, 2, true, true)})
	d.OnMessage(ctx, engine.DetectorAddr(), model.StopMsg{})
	// Still edges → keeps probing.
	timersBefore := ctx.timers
	runRound(d, ctx, []model.WaitEdge{edge(1, 2, true, true)})
	if ctx.timers == timersBefore {
		t.Fatal("drain mode stopped while edges remain")
	}
	// Idle round → next tick does not re-arm.
	runRound(d, ctx, nil)
	timersBefore = ctx.timers
	d.OnMessage(ctx, engine.DetectorAddr(), model.TickMsg{})
	if ctx.timers != timersBefore {
		t.Fatal("detector re-armed after idle drain round")
	}
}

// TestPartialRoundBreaksLiveDeadlock: a site that never answers (crashed or
// partitioned) must not freeze detection. Two of three sites report a 2PL
// cycle across PersistRounds rounds while the third stays silent; each
// round is analyzed at the next tick from the reports that did arrive, a
// victim is chosen, and every round analyzed counts as partial.
func TestPartialRoundBreaksLiveDeadlock(t *testing.T) {
	const persist = 2
	d := New([]model.SiteID{0, 1, 2}, Options{PeriodMicros: 1000, PersistRounds: persist})
	ctx := &fakeCtx{rng: rand.New(rand.NewSource(1))}
	var victims []model.VictimMsg
	for tick := 0; tick <= persist; tick++ {
		before := len(ctx.sent)
		d.OnMessage(ctx, engine.DetectorAddr(), model.TickMsg{})
		for _, e := range ctx.sent[before:] {
			if v, ok := e.Msg.(model.VictimMsg); ok {
				victims = append(victims, v)
			}
		}
		if tick == persist {
			break // this tick analyzed the last round; its own probes go unanswered
		}
		// Sites 0 and 1 each hold one edge of the cycle; site 2 is silent.
		d.OnMessage(ctx, engine.QMAddr(0), model.PooledWFGReport(model.WFGReportMsg{From: 0, Round: d.round, Edges: []model.WaitEdge{edge(1, 2, true, true)}}))
		d.OnMessage(ctx, engine.QMAddr(1), model.PooledWFGReport(model.WFGReportMsg{From: 1, Round: d.round, Edges: []model.WaitEdge{edge(2, 1, true, true)}}))
		if len(d.expect) != 1 || !d.expect[2] {
			t.Fatalf("round %d: waiting on %v, want only the silent site 2", d.round, d.expect)
		}
	}
	if len(victims) != 1 || victims[0].Txn != tid(2) {
		t.Fatalf("victims = %+v, want one: t1.2, the youngest 2PL member", victims)
	}
	if s := d.Snapshot(); s.PartialRounds != persist {
		t.Fatalf("PartialRounds = %d, want %d (every analyzed round lacked site 2)", s.PartialRounds, persist)
	}
}

func TestTarjanFindsNestedSCCs(t *testing.T) {
	g := wfg{index: map[model.TxnID]int32{}}
	g.build([]model.WaitEdge{
		edge(1, 2, true, true),
		edge(2, 3, true, true),
		edge(3, 1, true, true), edge(3, 4, true, true),
		edge(4, 5, true, true),
		edge(5, 4, true, true),
		edge(6, 1, true, true),
	})
	g.findSCCs()
	sizes := map[int]int{}
	for i, start := range g.sccStart {
		sizes[int(g.sccEnd(i)-start)]++
	}
	if sizes[3] != 1 || sizes[2] != 1 || sizes[1] != 1 {
		t.Fatalf("scc sizes = %v want one 3-cycle, one 2-cycle, one singleton", sizes)
	}
}

// TestDetectorRoundAllocatesNothing: once its scratch has grown, a detector
// round — probes out, reports in, the graph built and searched — allocates
// nothing when the wait-for graph holds no cycle.
func TestDetectorRoundAllocatesNothing(t *testing.T) {
	d := New([]model.SiteID{0, 1}, Options{PeriodMicros: 1000, PersistRounds: 2})
	var ctx recycleCtx
	edges := []model.WaitEdge{edge(1, 2, true, true), edge(2, 3, false, true), edge(4, 3, true, false), edge(5, 1, true, true)}
	var tick model.Message = model.TickMsg{}
	round := func() {
		d.OnMessage(&ctx, engine.DetectorAddr(), tick)
		for site, es := range [][]model.WaitEdge{edges, nil} {
			r := model.PooledWFGReport(model.WFGReportMsg{From: model.SiteID(site), Round: d.round, Edges: es})
			d.OnMessage(&ctx, engine.QMAddr(model.SiteID(site)), r)
			model.RecycleMessage(r)
		}
	}
	round()
	if n := testing.AllocsPerRun(100, round); n != 0 && !raceEnabled {
		t.Fatalf("%v allocations per detector round, want 0", n)
	}
	if s := d.Snapshot(); s.Rounds != 102 || s.CyclesSeen != 0 {
		t.Fatalf("stats %+v, want 102 rounds and no cycle", s)
	}
}

// recycleCtx is a delivery layer that recycles every send on the spot.
type recycleCtx struct{}

func (recycleCtx) NowMicros() int64                    { return 0 }
func (recycleCtx) Self() engine.Addr                   { return engine.DetectorAddr() }
func (recycleCtx) Rand() *rand.Rand                    { return nil }
func (recycleCtx) Send(_ engine.Addr, m model.Message) { model.RecycleMessage(m) }
func (recycleCtx) SetTimer(_ int64, _ model.Message)   {}

func TestVictimPolicyOldest(t *testing.T) {
	d := New([]model.SiteID{0, 1}, Options{
		PeriodMicros: 1000, PersistRounds: 2, Policy: VictimOldest,
	})
	ctx := &fakeCtx{rng: rand.New(rand.NewSource(1))}
	cycle := []model.WaitEdge{edge(1, 2, true, true), edge(2, 1, true, true)}
	runRound(d, ctx, cycle)
	v := runRound(d, ctx, cycle)
	if len(v) != 1 || v[0].Txn != tid(1) {
		t.Fatalf("victim = %+v want t1.1 (oldest)", v)
	}
}
