package metrics

import (
	"fmt"
	"maps"
	"slices"
	"sync"

	"ucc/internal/engine"
	"ucc/internal/model"
)

// CollectorOptions configure the metrics collector actor.
type CollectorOptions struct {
	// EstimatePeriodMicros, when positive, makes the collector broadcast
	// model.EstimateMsg to every RI on this period (required for dynamic
	// selection).
	EstimatePeriodMicros int64
	// RISites is the broadcast audience.
	RISites []model.SiteID
	// EWMAAlpha blends windowed queue rates into the running estimates.
	EWMAAlpha float64
}

// ProtoStats aggregates per-protocol measurements.
type ProtoStats struct {
	Committed uint64
	Rejected  uint64
	Victims   uint64
	// Shed counts arrivals refused by admission control (never launched);
	// Busy counts attempts aborted by a queue manager's BusyMsg NAK. Both
	// are the overload outcomes: offered = committed + shed (+ the busy-shed
	// read-only transactions); goodput counts only Committed.
	Shed          uint64
	Busy          uint64
	Attempts      uint64
	SystemTime    Welford   // S per committed txn (µs, from first arrival)
	SystemTimeH   Histogram // quantiles for S
	LockedOK      Welford   // U: lock time of successful attempts (µs)
	LockedAborted Welford   // U': lock time of aborted attempts (µs)
	Messages      Welford   // messages per committed txn (all attempts)
	AttemptsPerTx Welford   // attempts per committed txn
	BackoffReads  uint64
	BackoffWrites uint64
	ReadReqs      uint64 // logical read requests issued (all attempts)
	WriteReqs     uint64 // logical write requests issued (all attempts)
	ReadRejects   uint64
	WriteRejects  uint64
}

// Collector is the measurement-plane actor: it absorbs TxnDoneMsg and
// QueueStatsMsg streams and periodically broadcasts parameter estimates.
type Collector struct {
	mu   sync.Mutex
	opts CollectorOptions

	protos [model.NumProtocols]*ProtoStats
	sizeW  Welford // K estimator: requests per committed transaction

	// Per-item read/write grant throughputs, EWMA over the sites' reports.
	lambdaR map[model.ItemID]float64
	lambdaW map[model.ItemID]float64

	startMicros int64
	lastMicros  int64
	stopped     bool
}

// NewCollector creates a collector.
func NewCollector(opts CollectorOptions) *Collector {
	if opts.EWMAAlpha <= 0 || opts.EWMAAlpha > 1 {
		opts.EWMAAlpha = 0.4
	}
	c := &Collector{
		opts:    opts,
		lambdaR: map[model.ItemID]float64{},
		lambdaW: map[model.ItemID]float64{},
	}
	for i := range c.protos {
		c.protos[i] = &ProtoStats{}
	}
	return c
}

// OnMessage implements engine.Actor. The cluster posts the first TickMsg to
// start estimate broadcasting.
func (c *Collector) OnMessage(ctx engine.Context, from engine.Addr, msg model.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch v := msg.(type) {
	case model.TxnDoneMsg:
		// A client decodes the issuer's report as a value (package model's
		// wirepool.go).
		c.onDone(v)
	case *model.TxnDoneMsg:
		// The issuer's pooled send form; the delivery layer recycles it.
		c.onDone(*v)
	case *model.QueueStatsMsg:
		// Pooled; the delivery layer recycles it.
		c.onQueueStats(*v)
	case model.TickMsg:
		c.broadcast(ctx)
	case model.StopMsg:
		c.stopped = true
	default:
		panic(fmt.Sprintf("metrics: unexpected message %T", msg))
	}
	c.lastMicros = ctx.NowMicros()
}

func (c *Collector) onDone(v model.TxnDoneMsg) {
	p := c.protos[v.Protocol]
	if v.Outcome == model.OutcomeShed {
		// A shed arrival never launched an attempt or issued a request; it
		// must not dilute the request-probability estimators.
		p.Shed++
		return
	}
	p.Attempts++
	p.ReadReqs += uint64(v.Reads)
	p.WriteReqs += uint64(v.Writes)
	p.BackoffReads += uint64(v.BackoffReads)
	p.BackoffWrites += uint64(v.BackoffWrites)
	switch v.Outcome {
	case model.OutcomeCommitted:
		p.Committed++
		s := float64(v.DoneMicros - v.FirstArrivalMicros)
		p.SystemTime.Add(s)
		p.SystemTimeH.Add(s)
		p.LockedOK.Add(float64(v.LockedMicros))
		p.Messages.Add(float64(v.Messages))
		p.AttemptsPerTx.Add(float64(v.Attempts))
		if v.Protocol != model.ROSnapshot {
			// K feeds the §5 STL model, which describes queued (lock-taking)
			// traffic; snapshot reads never enter a queue.
			c.sizeW.Add(float64(v.Size))
		}
		if c.startMicros == 0 {
			c.startMicros = v.FirstArrivalMicros
		}
	case model.OutcomeRejected:
		p.Rejected++
		p.LockedAborted.Add(float64(v.LockedMicros))
		if v.RejectKind == model.OpRead {
			p.ReadRejects++
		} else {
			p.WriteRejects++
		}
	case model.OutcomeDeadlockVictim:
		p.Victims++
		p.LockedAborted.Add(float64(v.LockedMicros))
	case model.OutcomeBusy:
		p.Busy++
	}
}

// onQueueStats blends one site's per-copy grants of a period into λr(j),
// λw(j). A report that covers no period — a site's first — is ignored. A
// copy whose count fell over the period (a PA revocation took back an
// earlier grant) counts as idle.
func (c *Collector) onQueueStats(v model.QueueStatsMsg) {
	if v.AtMicros <= v.SinceMicros {
		return
	}
	window := float64(v.AtMicros-v.SinceMicros) / 1e6 // seconds
	a := c.opts.EWMAAlpha
	for _, g := range v.Grants {
		rate := float64(max(g.Reads, 0)) / window
		c.lambdaR[g.Item] = a*rate + (1-a)*c.lambdaR[g.Item]
		rate = float64(max(g.Writes, 0)) / window
		c.lambdaW[g.Item] = a*rate + (1-a)*c.lambdaW[g.Item]
	}
}

// Estimates assembles the current model.EstimateMsg (also used directly by
// the experiment harness).
func (c *Collector) Estimates(nowMicros int64) model.EstimateMsg {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.estimatesLocked(nowMicros)
}

func (c *Collector) estimatesLocked(nowMicros int64) model.EstimateMsg {
	est := model.EstimateMsg{
		AtMicros: nowMicros,
		LambdaR:  map[model.ItemID]float64{},
		LambdaW:  map[model.ItemID]float64{},
	}
	// λA sums in item order, so one run always rounds it the same way.
	for _, k := range slices.Sorted(maps.Keys(c.lambdaR)) {
		est.LambdaR[k] = c.lambdaR[k]
		est.LambdaA += c.lambdaR[k]
	}
	for _, k := range slices.Sorted(maps.Keys(c.lambdaW)) {
		est.LambdaW[k] = c.lambdaW[k]
		est.LambdaA += c.lambdaW[k]
	}
	// Estimates describe the queued (lock-taking) traffic the STL model is
	// about, so the ROSnapshot class is excluded throughout.
	var reads, writes uint64
	for _, p := range c.protos[:len(model.Protocols)] {
		reads += p.ReadReqs
		writes += p.WriteReqs
	}
	if reads+writes > 0 {
		est.Qr = float64(reads) / float64(reads+writes)
	} else {
		est.Qr = 0.5
	}
	est.K = c.sizeW.Mean()
	if est.K == 0 {
		est.K = 4
	}
	for i, p := range c.protos[:len(model.Protocols)] {
		est.U[i] = p.LockedOK.Mean() / 1e6
		est.UPrime[i] = p.LockedAborted.Mean() / 1e6
	}
	if tw := c.protos[model.TwoPL]; tw.Victims+tw.Committed > 0 {
		est.PAbort = float64(tw.Victims) / float64(tw.Victims+tw.Committed)
	}
	if to := c.protos[model.TO]; to.ReadReqs > 0 {
		est.Pr = float64(to.ReadRejects) / float64(to.ReadReqs)
	}
	if to := c.protos[model.TO]; to.WriteReqs > 0 {
		est.PwR = float64(to.WriteRejects) / float64(to.WriteReqs)
	}
	if pa := c.protos[model.PA]; pa.ReadReqs > 0 {
		est.PB = float64(pa.BackoffReads) / float64(pa.ReadReqs)
	}
	if pa := c.protos[model.PA]; pa.WriteReqs > 0 {
		est.PBW = float64(pa.BackoffWrites) / float64(pa.WriteReqs)
	}
	return est
}

func (c *Collector) broadcast(ctx engine.Context) {
	if c.stopped || c.opts.EstimatePeriodMicros <= 0 {
		return
	}
	est := c.estimatesLocked(ctx.NowMicros())
	for _, s := range c.opts.RISites {
		ctx.Send(engine.RIAddr(s), est)
	}
	ctx.SetTimer(c.opts.EstimatePeriodMicros, model.TickMsg{})
}

// Summary is a read-only view of everything the collector measured.
type Summary struct {
	// Protocols indexes ProtoStats by model.Protocol, including the
	// ROSnapshot read-only class at index model.ROSnapshot.
	Protocols [model.NumProtocols]ProtoStats
	// SpanMicros is the measurement span (first arrival → last event).
	SpanMicros int64
	// K is the mean transaction size among committed transactions.
	K float64
}

// Summarize snapshots the collector.
func (c *Collector) Summarize() Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	var s Summary
	for i, p := range c.protos {
		s.Protocols[i] = *p
	}
	s.SpanMicros = c.lastMicros - c.startMicros
	s.K = c.sizeW.Mean()
	return s
}

// Delta returns the events recorded between an earlier snapshot of the same
// run and this one — the per-phase view the scenario harness reports.
// Counters and histograms subtract exactly (clamped at zero against a
// mismatched pair); the Welford accumulators (SystemTime, LockedOK,
// LockedAborted, Messages, AttemptsPerTx) are NOT delta-able — a streaming
// mean/variance cannot be unwound — so they are zeroed in the delta: phase
// latency statistics come from SystemTimeH (mean and quantiles at histogram
// resolution), which subtracts cleanly.
func (s Summary) Delta(prev Summary) Summary {
	sub := func(a, b uint64) uint64 {
		if a > b {
			return a - b
		}
		return 0
	}
	var out Summary
	for i := range s.Protocols {
		cur, old := s.Protocols[i], prev.Protocols[i]
		d := ProtoStats{
			Committed:     sub(cur.Committed, old.Committed),
			Rejected:      sub(cur.Rejected, old.Rejected),
			Victims:       sub(cur.Victims, old.Victims),
			Shed:          sub(cur.Shed, old.Shed),
			Busy:          sub(cur.Busy, old.Busy),
			Attempts:      sub(cur.Attempts, old.Attempts),
			BackoffReads:  sub(cur.BackoffReads, old.BackoffReads),
			BackoffWrites: sub(cur.BackoffWrites, old.BackoffWrites),
			ReadReqs:      sub(cur.ReadReqs, old.ReadReqs),
			WriteReqs:     sub(cur.WriteReqs, old.WriteReqs),
			ReadRejects:   sub(cur.ReadRejects, old.ReadRejects),
			WriteRejects:  sub(cur.WriteRejects, old.WriteRejects),
			SystemTimeH:   cur.SystemTimeH.Sub(old.SystemTimeH),
		}
		out.Protocols[i] = d
	}
	out.SpanMicros = s.SpanMicros - prev.SpanMicros
	if out.SpanMicros < 0 {
		out.SpanMicros = 0
	}
	out.K = s.K
	return out
}

// TotalCommitted sums commits across protocols.
func (s Summary) TotalCommitted() uint64 {
	var n uint64
	for _, p := range s.Protocols {
		n += p.Committed
	}
	return n
}

// TotalShed sums admission-refused arrivals across protocols.
func (s Summary) TotalShed() uint64 {
	var n uint64
	for _, p := range s.Protocols {
		n += p.Shed
	}
	return n
}

// TotalBusy sums busy-NAK'd attempts across protocols.
func (s Summary) TotalBusy() uint64 {
	var n uint64
	for _, p := range s.Protocols {
		n += p.Busy
	}
	return n
}

// Throughput returns committed transactions per second of engine time.
func (s Summary) Throughput() float64 {
	if s.SpanMicros <= 0 {
		return 0
	}
	return float64(s.TotalCommitted()) / (float64(s.SpanMicros) / 1e6)
}

// MeanSystemTimeMicros returns S averaged across all committed transactions.
func (s Summary) MeanSystemTimeMicros() float64 {
	var n uint64
	var sum float64
	for _, p := range s.Protocols {
		n += p.SystemTime.N()
		sum += p.SystemTime.Mean() * float64(p.SystemTime.N())
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
