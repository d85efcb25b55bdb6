package main

import (
	"sync"
	"time"

	"ucc/internal/engine"
	"ucc/internal/model"
)

// phaseRec collects what the generator observes during one measured phase.
// Buffers are preallocated so recording allocates nothing.
type phaseRec struct {
	start  time.Time
	window time.Duration
	// commits[i] counts TxnDoneMsg(committed) received in window i.
	commits []uint32
	// latNs holds submit→TxnFinishedMsg latency, one sample per transaction
	// finished in the phase; overflow counts samples beyond its capacity.
	latNs    []int64
	overflow uint64
}

// newPhaseRec sizes a record for a phase of length d split into windows.
func newPhaseRec(d, window time.Duration) *phaseRec {
	const maxTxnPerSec = 100_000
	return &phaseRec{
		window:  window,
		commits: make([]uint32, int(d/window)),
		latNs:   make([]int64, 0, int(d.Seconds()*maxTxnPerSec)+1024),
	}
}

// merge appends what q recorded to p: the windows of a traced run alternate
// between two records.
func (p *phaseRec) merge(q *phaseRec) {
	p.commits = append(p.commits, q.commits...)
	p.latNs = append(p.latNs, q.latNs...)
	p.overflow += q.overflow
}

// inflight is one outstanding transaction: its index and submit time.
type inflight struct {
	k  uint64
	at time.Time
}

// generator is the closed-loop load generator and, at CollectorAddr, the
// sink for the sites' TxnDoneMsg and QueueStatsMsg traffic. It is one actor
// registered at CollectorAddr and every DriverAddr(site) of the client
// runtime, so up to four mailbox goroutines call OnMessage; mu serialises
// them.
//
// A slot is a database client holding a session: it submits a transaction,
// waits for the terminal TxnFinishedMsg, and submits the next. Whether the
// transaction committed comes from its TxnDoneMsg, which travels to a
// different mailbox and may be handled before or after the finish event.
type generator struct {
	mu   sync.Mutex
	pool *shapePool

	next     uint64 // index of the next transaction to submit
	target   int    // closed-loop slot count; 0 stops submitting
	inflight []inflight

	submitted uint64
	committed uint64
	// terminalFailed counts transactions that ended without committing
	// (shed by admission control, or a read-only snapshot shed by a busy
	// NAK); strays counts finish events for unknown transactions.
	terminalFailed uint64
	strays         uint64
	// writes[item] counts committed transactions that wrote item.
	writes []int32

	phase *phaseRec // nil outside measured phases
}

func newGenerator(pool *shapePool, maxSlots int) *generator {
	return &generator{
		pool:     pool,
		inflight: make([]inflight, 0, maxSlots),
		writes:   make([]int32, numItems),
	}
}

// OnMessage implements engine.Actor.
func (g *generator) OnMessage(ctx engine.Context, _ engine.Addr, msg model.Message) {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch v := msg.(type) {
	case model.TxnFinishedMsg:
		g.onFinished(v.Txn)
		g.fill(ctx)
	case model.TxnDoneMsg:
		g.onDone(v)
	case model.TickMsg:
		g.fill(ctx) // the kick after setTarget raised the slot count
	default:
		// QueueStatsMsg: the collector's estimator input, which the
		// benchmark receives (it is part of the shipped traffic) and drops.
	}
}

// fill submits transactions until every slot is busy.
func (g *generator) fill(ctx engine.Context) {
	for len(g.inflight) < g.target {
		k := g.next
		g.next++
		sh := &g.pool.shapes[k%uint64(len(g.pool.shapes))]
		id := txnID(k)
		// The one allocation per transaction the generator makes: the Txn
		// handed to the transport. Read and write sets alias the pool.
		t := &model.Txn{ID: id, Protocol: sh.protocol, ReadSet: sh.reads, WriteSet: sh.writes}
		g.inflight = append(g.inflight, inflight{k: k, at: time.Now()})
		g.submitted++
		ctx.Send(engine.RIAddr(id.Site), model.SubmitTxnMsg{Txn: t})
	}
}

func (g *generator) onFinished(id model.TxnID) {
	now := time.Now()
	k := id.Seq - 1
	for i := range g.inflight {
		if g.inflight[i].k != k {
			continue
		}
		lat := now.Sub(g.inflight[i].at).Nanoseconds()
		last := len(g.inflight) - 1
		g.inflight[i] = g.inflight[last]
		g.inflight = g.inflight[:last]
		if p := g.phase; p != nil {
			if len(p.latNs) < cap(p.latNs) {
				p.latNs = append(p.latNs, lat)
			} else {
				p.overflow++
			}
		}
		return
	}
	g.strays++
}

func (g *generator) onDone(v model.TxnDoneMsg) {
	switch {
	case v.Outcome == model.OutcomeCommitted:
		g.committed++
		sh := &g.pool.shapes[(v.Txn.Seq-1)%uint64(len(g.pool.shapes))]
		for _, item := range sh.writes {
			g.writes[item]++
		}
		if p := g.phase; p != nil {
			if i := int(time.Since(p.start) / p.window); i >= 0 && i < len(p.commits) {
				p.commits[i]++
			}
		}
	case v.Outcome == model.OutcomeShed,
		v.Outcome == model.OutcomeBusy && v.Protocol == model.ROSnapshot:
		g.terminalFailed++
	default:
		// Rejected, victim and read-write busy outcomes report one failed
		// attempt; the issuer restarts the transaction.
	}
}

// setTarget changes the closed-loop slot count. Raising it needs a TickMsg
// posted to one of the generator's addresses to start the new slots.
func (g *generator) setTarget(n int) {
	g.mu.Lock()
	g.target = n
	g.mu.Unlock()
}

// beginPhase starts recording into p; endPhase stops recording.
func (g *generator) beginPhase(p *phaseRec) {
	g.mu.Lock()
	p.start = time.Now()
	g.phase = p
	g.mu.Unlock()
}

func (g *generator) endPhase() {
	g.mu.Lock()
	g.phase = nil
	g.mu.Unlock()
}

// genCounts is a consistent copy of the generator's counters.
type genCounts struct {
	outstanding               int
	submitted, committed      uint64
	terminalFailed, strayFins uint64
}

func (g *generator) counts() genCounts {
	g.mu.Lock()
	defer g.mu.Unlock()
	return genCounts{
		outstanding:    len(g.inflight),
		submitted:      g.submitted,
		committed:      g.committed,
		terminalFailed: g.terminalFailed,
		strayFins:      g.strays,
	}
}
