package sim

import (
	"container/heap"
	"fmt"
	"math/rand"

	"ucc/internal/engine"
	"ucc/internal/model"
)

type event struct {
	at  int64 // virtual microseconds
	seq uint64
	env engine.Envelope
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Engine is the virtual-time event engine. Not safe for concurrent use; all
// actors run on the caller's goroutine inside Run/Step.
type Engine struct {
	latency  engine.LatencyModel
	now      int64
	seq      uint64
	events   eventHeap
	actors   map[engine.Addr]engine.Actor
	ctxs     map[engine.Addr]*simContext
	lastSend map[pair]int64
	// free is the event freelist: the engine is single-threaded, so delivered
	// events recycle through a plain slice instead of a sync.Pool — one event
	// allocation per in-flight high-water mark rather than one per send.
	free []*event
	// offloaded holds the done messages of work offloaded (Context Offload)
	// by the handler running now; Step delivers them as soon as it returns.
	offloaded []engine.Envelope
	// Delivered counts delivered envelopes (a cheap progress/cost metric).
	Delivered uint64
}

type pair struct{ from, to engine.Addr }

// New builds a virtual-time engine with the given latency model.
func New(latency engine.LatencyModel) *Engine {
	if latency == nil {
		latency = engine.FixedLatency{}
	}
	return &Engine{
		latency:  latency,
		actors:   map[engine.Addr]engine.Actor{},
		ctxs:     map[engine.Addr]*simContext{},
		lastSend: map[pair]int64{},
	}
}

// Register adds an actor. Each actor gets its own seeded random stream so a
// run is reproducible regardless of registration order.
func (e *Engine) Register(addr engine.Addr, a engine.Actor, seed int64) {
	if _, dup := e.actors[addr]; dup {
		panic(fmt.Sprintf("sim: duplicate actor %v", addr))
	}
	e.actors[addr] = a
	e.ctxs[addr] = &simContext{
		eng:  e,
		self: addr,
		rng:  rand.New(rand.NewSource(seed ^ int64(addr.Kind)<<40 ^ int64(addr.ID)<<4 ^ 0x5bd1e995)),
	}
}

// NowMicros returns the current virtual time.
func (e *Engine) NowMicros() int64 { return e.now }

// SetLatency replaces the latency model for every send scheduled after this
// call — the fault hook behind asymmetric-latency and degraded-network
// scenarios. The engine is single-threaded, so calling between Step/RunUntil
// invocations is always safe; messages already in flight keep the delay they
// were scheduled with, exactly as a real link change would leave packets
// already on the wire untouched. Per-pair FIFO clamping still applies, so a
// latency drop cannot reorder a pair's messages.
func (e *Engine) SetLatency(m engine.LatencyModel) {
	if m == nil {
		m = engine.FixedLatency{}
	}
	e.latency = m
}

// Post injects a message from the outside world (e.g. the harness submitting
// the first timer) at the current virtual time.
func (e *Engine) Post(to engine.Addr, msg model.Message) {
	e.schedule(e.now, engine.Envelope{From: to, To: to, Msg: msg})
}

// PostAfter injects a message delayMicros into the virtual future (staggered
// workload submission from the harness).
func (e *Engine) PostAfter(delayMicros int64, to engine.Addr, msg model.Message) {
	if delayMicros < 0 {
		delayMicros = 0
	}
	e.schedule(e.now+delayMicros, engine.Envelope{From: to, To: to, Msg: msg})
}

func (e *Engine) schedule(at int64, env engine.Envelope) {
	e.seq++
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = new(event)
	}
	*ev = event{at: at, seq: e.seq, env: env}
	heap.Push(&e.events, ev)
}

// Step delivers the next event. It reports false when the event heap is
// empty.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	ev := heap.Pop(&e.events).(*event)
	if ev.at > e.now {
		e.now = ev.at
	}
	a := e.actors[ev.env.To]
	msg := ev.env.Msg
	from, to := ev.env.From, ev.env.To
	*ev = event{}
	e.free = append(e.free, ev)
	if a == nil {
		model.RecycleMessage(msg) // dropped: unknown destination
		return true
	}
	e.Delivered++
	a.OnMessage(e.ctxs[to], from, msg)
	// Ownership transferred at Send: pooled messages recycle once the
	// receiving actor returns (retainers copy via model.RetainMessage).
	model.RecycleMessage(msg)
	e.deliverOffloaded()
	return true
}

// deliverOffloaded hands each offloaded work's done message to its actor,
// in Offload order, before any other event: the work already ran in line,
// so in virtual time it completed at this instant. A done handler that
// offloads again is served by the same loop. Done messages take no event
// sequence number and are not counted in Delivered, so a run that offloads
// schedules exactly the events one that did the work in its handler would.
func (e *Engine) deliverOffloaded() {
	for i := 0; i < len(e.offloaded); i++ {
		env := e.offloaded[i]
		e.offloaded[i] = engine.Envelope{}
		e.actors[env.To].OnMessage(e.ctxs[env.To], env.From, env.Msg)
		model.RecycleMessage(env.Msg)
	}
	e.offloaded = e.offloaded[:0]
}

// RunUntil processes events until the virtual clock would exceed tMicros or
// the system quiesces. The clock is left at min(tMicros, last event time).
func (e *Engine) RunUntil(tMicros int64) {
	for len(e.events) > 0 && e.events[0].at <= tMicros {
		e.Step()
	}
	if e.now < tMicros {
		e.now = tMicros
	}
}

// Drain processes every remaining event. Use after the workload drivers have
// stopped to let in-flight transactions finish. maxEvents bounds runaway
// protocols; Drain panics if exceeded (a liveness-bug canary for tests).
func (e *Engine) Drain(maxEvents uint64) {
	var n uint64
	for e.Step() {
		n++
		if maxEvents > 0 && n > maxEvents {
			panic("sim: Drain exceeded maxEvents; system is not quiescing")
		}
	}
}

// Pending reports the number of undelivered events.
func (e *Engine) Pending() int { return len(e.events) }

type simContext struct {
	eng  *Engine
	self engine.Addr
	rng  *rand.Rand
}

func (c *simContext) NowMicros() int64 { return c.eng.now }
func (c *simContext) Self() engine.Addr {
	return c.self
}
func (c *simContext) Rand() *rand.Rand { return c.rng }

func (c *simContext) Send(to engine.Addr, msg model.Message) {
	delay := c.eng.latency.DelayMicros(c.self, to, c.rng)
	at := c.eng.now + delay
	// Per-pair FIFO, mirroring the TCP transport.
	key := pair{c.self, to}
	if prev, ok := c.eng.lastSend[key]; ok && at < prev {
		at = prev
	}
	c.eng.lastSend[key] = at
	c.eng.schedule(at, engine.Envelope{From: c.self, To: to, Msg: msg})
}

func (c *simContext) SetTimer(delayMicros int64, msg model.Message) {
	if delayMicros < 0 {
		delayMicros = 0
	}
	c.eng.schedule(c.eng.now+delayMicros, engine.Envelope{From: c.self, To: c.self, Msg: msg})
}

// Offload implements engine.Offloader: work runs in line, and done is
// delivered as soon as the calling handler returns (deliverOffloaded).
func (c *simContext) Offload(work func(), done model.Message) {
	work()
	c.eng.offloaded = append(c.eng.offloaded, engine.Envelope{From: c.self, To: c.self, Msg: done})
}
