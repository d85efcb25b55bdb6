package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ucc/internal/engine"
	"ucc/internal/model"
)

func TestWelfordAgainstDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var w Welford
	var xs []float64
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()*5 + 10
		xs = append(xs, x)
		w.Add(x)
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	variance := ss / float64(len(xs)-1)
	if math.Abs(w.Mean()-mean) > 1e-9 {
		t.Fatalf("mean %v vs %v", w.Mean(), mean)
	}
	if math.Abs(w.Var()-variance)/variance > 1e-9 {
		t.Fatalf("var %v vs %v", w.Var(), variance)
	}
	if w.N() != 1000 {
		t.Fatalf("n = %d", w.N())
	}
}

func TestWelfordMinMaxEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Min() != 0 || w.Max() != 0 || w.Std() != 0 {
		t.Fatal("empty accumulator must read zero")
	}
	w.Add(5)
	w.Add(-2)
	if w.Min() != -2 || w.Max() != 5 {
		t.Fatalf("min/max: %v/%v", w.Min(), w.Max())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Add(float64(i))
	}
	// Log buckets are coarse: accept a factor-2 band.
	p50 := h.Quantile(0.5)
	if p50 < 250 || p50 > 1000 {
		t.Fatalf("p50 = %v", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < p50 {
		t.Fatal("p99 < p50")
	}
	if math.Abs(h.Mean()-500.5) > 1e-9 {
		t.Fatalf("mean = %v", h.Mean())
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		for i := 0; i < 200; i++ {
			h.Add(rng.Float64() * 1e6)
		}
		prev := -1.0
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.95, 1} {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Header: []string{"a", "long-header"}}
	tb.AddRow("1", "2")
	tb.AddRow("wide-cell", "x")
	s := tb.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if len(lines[0]) != len(lines[1]) || len(lines[1]) != len(lines[2]) {
		t.Fatalf("columns not aligned:\n%s", s)
	}
}

type colCtx struct {
	now  int64
	sent []engine.Envelope
	rng  *rand.Rand
}

func (c *colCtx) NowMicros() int64  { return c.now }
func (c *colCtx) Self() engine.Addr { return engine.CollectorAddr() }
func (c *colCtx) Rand() *rand.Rand  { return c.rng }
func (c *colCtx) Send(to engine.Addr, msg model.Message) {
	c.sent = append(c.sent, engine.Envelope{To: to, Msg: msg})
}
func (c *colCtx) SetTimer(d int64, msg model.Message) {}

func done(p model.Protocol, outcome model.TxnOutcome, sMicros int64) model.TxnDoneMsg {
	return model.TxnDoneMsg{
		Txn: model.TxnID{Site: 1, Seq: 1}, Protocol: p, Outcome: outcome,
		ArrivalMicros: 0, DoneMicros: sMicros, FirstArrivalMicros: 0,
		Attempts: 1, Size: 4, Reads: 2, Writes: 2, Messages: 8,
		LockedMicros: sMicros / 2,
	}
}

func TestCollectorAggregation(t *testing.T) {
	c := NewCollector(CollectorOptions{})
	ctx := &colCtx{rng: rand.New(rand.NewSource(1))}
	c.OnMessage(ctx, engine.CollectorAddr(), done(model.TO, model.OutcomeCommitted, 10_000))
	ctx.now = 20_000
	c.OnMessage(ctx, engine.CollectorAddr(), done(model.TO, model.OutcomeCommitted, 20_000))
	c.OnMessage(ctx, engine.CollectorAddr(), done(model.TO, model.OutcomeRejected, 5_000))
	sum := c.Summarize()
	to := sum.Protocols[model.TO]
	if to.Committed != 2 || to.Rejected != 1 {
		t.Fatalf("counts: %+v", to)
	}
	if math.Abs(to.SystemTime.Mean()-15_000) > 1e-9 {
		t.Fatalf("S mean = %v", to.SystemTime.Mean())
	}
	if sum.TotalCommitted() != 2 {
		t.Fatalf("total = %d", sum.TotalCommitted())
	}
}

func TestCollectorRateEstimation(t *testing.T) {
	c := NewCollector(CollectorOptions{})
	ctx := &colCtx{rng: rand.New(rand.NewSource(1))}
	// A site's first report covers no period, so its counts are ignored.
	c.OnMessage(ctx, engine.CollectorAddr(), model.PooledQueueStats(model.QueueStatsMsg{
		From: 0, AtMicros: 0, SinceMicros: 0,
		Grants: []model.QueueGrants{{Item: 1, Reads: 7, Writes: 3}},
	}))
	c.OnMessage(ctx, engine.CollectorAddr(), model.PooledQueueStats(model.QueueStatsMsg{
		From: 0, AtMicros: 1_000_000, SinceMicros: 0, // 1s window
		Grants: []model.QueueGrants{{Item: 1, Reads: 50, Writes: 20}},
	}))
	// Each period's rate carries weight 0.4 against the running estimate
	// (zero before the first period): r = 0.4×50, w = 0.4×20.
	est := c.Estimates(1_000_000)
	if math.Abs(est.LambdaR[1]-20) > 1e-9 || math.Abs(est.LambdaW[1]-8) > 1e-9 {
		t.Fatalf("rates: r=%v w=%v", est.LambdaR[1], est.LambdaW[1])
	}
	if math.Abs(est.LambdaA-28) > 1e-9 {
		t.Fatalf("λA = %v", est.LambdaA)
	}
	c.OnMessage(ctx, engine.CollectorAddr(), model.PooledQueueStats(model.QueueStatsMsg{
		From: 0, AtMicros: 1_500_000, SinceMicros: 1_000_000, // 0.5s window
		Grants: []model.QueueGrants{{Item: 1, Reads: 50, Writes: 0}},
	}))
	// r = 0.4×100 + 0.6×20, w = 0.4×0 + 0.6×8.
	est = c.Estimates(1_500_000)
	if math.Abs(est.LambdaR[1]-52) > 1e-9 || math.Abs(est.LambdaW[1]-4.8) > 1e-9 {
		t.Fatalf("blended rates: r=%v w=%v", est.LambdaR[1], est.LambdaW[1])
	}
}

func TestCollectorProbabilities(t *testing.T) {
	c := NewCollector(CollectorOptions{})
	ctx := &colCtx{rng: rand.New(rand.NewSource(1))}
	// 2 committed 2PL, 1 victim → PAbort = 1/3.
	c.OnMessage(ctx, engine.CollectorAddr(), done(model.TwoPL, model.OutcomeCommitted, 1000))
	c.OnMessage(ctx, engine.CollectorAddr(), done(model.TwoPL, model.OutcomeCommitted, 1000))
	c.OnMessage(ctx, engine.CollectorAddr(), done(model.TwoPL, model.OutcomeDeadlockVictim, 500))
	// T/O: one committed attempt (2 reads), one read-rejection.
	c.OnMessage(ctx, engine.CollectorAddr(), done(model.TO, model.OutcomeCommitted, 1000))
	rej := done(model.TO, model.OutcomeRejected, 400)
	rej.RejectKind = model.OpRead
	c.OnMessage(ctx, engine.CollectorAddr(), rej)
	est := c.Estimates(0)
	if math.Abs(est.PAbort-1.0/3) > 1e-9 {
		t.Fatalf("PAbort = %v", est.PAbort)
	}
	// read rejects / read requests = 1 / (2+2).
	if math.Abs(est.Pr-0.25) > 1e-9 {
		t.Fatalf("Pr = %v", est.Pr)
	}
}

func TestCollectorBroadcast(t *testing.T) {
	c := NewCollector(CollectorOptions{
		EstimatePeriodMicros: 1000,
		RISites:              []model.SiteID{0, 1, 2},
	})
	ctx := &colCtx{rng: rand.New(rand.NewSource(1))}
	c.OnMessage(ctx, engine.CollectorAddr(), model.TickMsg{})
	n := 0
	for _, e := range ctx.sent {
		if _, ok := e.Msg.(model.EstimateMsg); ok {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("broadcasts = %d want 3", n)
	}
	// After StopMsg no further broadcasts.
	c.OnMessage(ctx, engine.CollectorAddr(), model.StopMsg{})
	before := len(ctx.sent)
	c.OnMessage(ctx, engine.CollectorAddr(), model.TickMsg{})
	if len(ctx.sent) != before {
		t.Fatal("broadcast after stop")
	}
}

func TestFFormat(t *testing.T) {
	cases := map[float64]string{0: "0", 12345: "12345", 42.123: "42.1", 1.23456: "1.235"}
	for v, want := range cases {
		if got := F(v); got != want {
			t.Errorf("F(%v) = %q want %q", v, got, want)
		}
	}
}

// TestWireCounters: the codec counters snapshot consistently and derive
// bytes-per-message correctly (including the zero-traffic case).
func TestWireCounters(t *testing.T) {
	var w WireCounters
	if s := w.Snapshot(); s.BytesPerMsgOut() != 0 || s.BytesPerMsgIn() != 0 {
		t.Fatalf("zero traffic must derive 0 B/msg, got %+v", s)
	}
	w.MsgsOut.Add(4)
	w.BytesOut.Add(100)
	w.MsgsIn.Add(2)
	w.BytesIn.Add(50)
	w.ConnsOut.Add(3)
	s := w.Snapshot()
	if s.MsgsOut != 4 || s.BytesOut != 100 || s.MsgsIn != 2 || s.BytesIn != 50 || s.ConnsOut != 3 {
		t.Fatalf("snapshot lost counts: %+v", s)
	}
	if s.BytesPerMsgOut() != 25 || s.BytesPerMsgIn() != 25 {
		t.Fatalf("B/msg: out=%.1f in=%.1f, want 25 both", s.BytesPerMsgOut(), s.BytesPerMsgIn())
	}
}
