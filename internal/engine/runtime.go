package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ucc/internal/model"
)

// Envelope is one in-flight message.
type Envelope struct {
	From Addr
	To   Addr
	Msg  model.Message
}

// Runtime is the real-time engine of the TCP deployment (cmd/uccnode,
// cmd/uccclient, bench/): every actor gets a mailbox and a goroutine, and
// addresses not registered here are forwarded through an uplink, the
// transport. It adds no latency; that is modelled in internal/sim.
//
// A send is synchronous: when Context.Send or Post returns, the envelope is
// in the destination's mailbox, or with the uplink, which has queued it on
// the destination peer's outbox. So sends made by one goroutine are delivered
// in program order whatever their From address, and sends made under a common
// lock in the order the lock was held; the FIFO per (sender, receiver) pair
// that the queue discipline needs is a corollary.
//
// A send also moves ownership of the message (model/wirepool.go): whoever is
// handed the envelope last recycles a pooled message, exactly once. For a
// local destination that is the mailbox loop, after OnMessage returns; for a
// remote one it is the uplink, which gets the envelope as it was sent — the
// runtime neither copies nor recycles what it forwards.
type Runtime struct {
	seed int64

	mu     sync.Mutex
	actors map[Addr]*mailbox
	uplink func(Envelope)
	closed bool
	start  time.Time
	epoch  int64 // start as wall-clock µs since the Unix epoch
	wg     sync.WaitGroup

	// mailboxDepth bounds every mailbox registered after SetMailboxDepth:
	// sheddable messages (model.Sheddable — new-work openers) arriving at a
	// full mailbox are NAK'd back to their sender with a BusyMsg instead of
	// enqueued; everything else still enqueues, because dropping an in-flight
	// protocol message (a release, a grant) would strand locks forever. Zero
	// means unbounded, the pre-backpressure behaviour.
	mailboxDepth int
	// overflows counts sheddable messages NAK'd at a full mailbox.
	overflows atomic.Uint64
}

type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []Envelope
	// head indexes the next unpopped element: popping advances it instead of
	// re-slicing, so the backing array is reused once the queue empties rather
	// than re-grown for every burst.
	head int
	done bool
	// bound is the depth at which sheddable messages are refused (0 =
	// unbounded); high is the deepest the queue has ever been.
	bound int
	high  int
}

// depth returns the number of undelivered messages. Callers hold m.mu.
func (m *mailbox) depth() int { return len(m.queue) - m.head }

func newMailbox(bound int) *mailbox {
	m := &mailbox{bound: bound}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// push enqueues e, reporting false when e is sheddable and the mailbox is at
// its bound (the caller NAKs). Non-sheddable messages enqueue past the bound:
// the bound must never block or drop protocol-completion traffic, or a full
// mailbox would hold locks forever — the classic bounded-queue deadlock this
// policy exists to avoid.
func (m *mailbox) push(e Envelope) bool {
	m.mu.Lock()
	if !m.done {
		if m.bound > 0 && m.depth() >= m.bound {
			if _, shed := e.Msg.(model.Sheddable); shed {
				m.mu.Unlock()
				return false
			}
		}
		m.queue = append(m.queue, e)
		if d := m.depth(); d > m.high {
			m.high = d
		}
	}
	m.mu.Unlock()
	m.cond.Signal()
	return true
}

func (m *mailbox) pop() (Envelope, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.depth() == 0 && !m.done {
		m.cond.Wait()
	}
	if m.done {
		return Envelope{}, false
	}
	e := m.queue[m.head]
	m.queue[m.head] = Envelope{} // release the message for reuse/GC
	m.head++
	if m.head == len(m.queue) {
		m.queue = m.queue[:0]
		m.head = 0
	}
	return e, true
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.done = true
	m.mu.Unlock()
	m.cond.Broadcast()
}

// NewRuntime builds a real-time engine; seed derives the per-actor random
// sources. The runtime cannot delay a message, so latency must be nil or the
// zero FixedLatency; anything else panics rather than being silently ignored
// (delays are modelled by the simulator, internal/sim).
func NewRuntime(latency LatencyModel, seed int64) *Runtime {
	if latency != nil && latency != (FixedLatency{}) {
		panic(fmt.Sprintf("engine: Runtime adds no latency, got %T%+v; model delays with internal/sim", latency, latency))
	}
	now := time.Now()
	return &Runtime{
		seed:   seed,
		actors: map[Addr]*mailbox{},
		start:  now,
		epoch:  now.UnixMicro(),
	}
}

// SetUplink installs the forwarding function for envelopes addressed to
// actors not registered locally (the TCP transport). f takes ownership of
// env.Msg: it is called with the very message the actor sent, may keep it
// after it returns, and passes it to model.RecycleMessage exactly once when
// done (or lets it be collected). Must be called before traffic flows.
func (r *Runtime) SetUplink(f func(Envelope)) {
	r.mu.Lock()
	r.uplink = f
	r.mu.Unlock()
}

// SetMailboxDepth bounds the mailboxes of actors registered after this call:
// sheddable messages (new-work openers) arriving at a full mailbox are NAK'd
// back to the sender with model.BusyMsg; protocol-completion messages still
// enqueue past the bound. Zero (the default) keeps mailboxes unbounded. Call
// before Register.
func (r *Runtime) SetMailboxDepth(depth int) {
	r.mu.Lock()
	r.mailboxDepth = depth
	r.mu.Unlock()
}

// MailboxStats reports (sheddable messages NAK'd at a full mailbox, deepest
// any mailbox has ever been). With only sheddable traffic in flight the
// high-water mark never exceeds the configured depth; completer traffic may
// push past it by its own (small, protocol-bounded) amount.
func (r *Runtime) MailboxStats() (overflows uint64, highWater int) {
	r.mu.Lock()
	boxes := make([]*mailbox, 0, len(r.actors))
	for _, mb := range r.actors {
		boxes = append(boxes, mb)
	}
	r.mu.Unlock()
	for _, mb := range boxes {
		mb.mu.Lock()
		if mb.high > highWater {
			highWater = mb.high
		}
		mb.mu.Unlock()
	}
	return r.overflows.Load(), highWater
}

// route hands env to its destination before returning: a registered actor
// gets it in its mailbox (a refused sheddable is NAK'd back to its sender),
// any other address goes to the uplink. An actor's Send, Post and the NAK of
// a refusal all take this one path. After Shutdown nothing is routed.
func (r *Runtime) route(env Envelope) {
	r.mu.Lock()
	mb, uplink, closed := r.actors[env.To], r.uplink, r.closed
	r.mu.Unlock()
	switch {
	case closed:
	case mb != nil:
		if !mb.push(env) {
			r.nak(env)
		}
	case uplink != nil:
		uplink(env)
	}
}

// nak answers a refused sheddable envelope with one BusyMsg per copy it
// carried (a batch NAKs every member), routed to the sender before the
// refused send returns. A NAK is never sheddable, so this cannot recurse.
func (r *Runtime) nak(env Envelope) {
	r.overflows.Add(1)
	sh, ok := env.Msg.(model.Sheddable)
	if !ok {
		return
	}
	for i := range sh.Copies() {
		r.route(Envelope{From: env.To, To: env.From, Msg: sh.Busy(i)})
	}
	// The refused message dies here: each Busy reply copied what it needs,
	// so a pooled original goes back to its pool now.
	model.RecycleMessage(env.Msg)
}

// Register adds an actor and starts its mailbox goroutine.
func (r *Runtime) Register(addr Addr, a Actor) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.actors[addr]; dup {
		panic(fmt.Sprintf("engine: duplicate actor %v", addr))
	}
	mb := newMailbox(r.mailboxDepth)
	r.actors[addr] = mb
	rng := rand.New(rand.NewSource(r.seed ^ int64(addr.Kind)<<32 ^ int64(addr.ID)<<8 ^ 0x9e3779b9))
	ctx := &rtContext{rt: r, self: addr, rng: rng}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			env, ok := mb.pop()
			if !ok {
				return
			}
			a.OnMessage(ctx, env.From, env.Msg)
			// Ownership transferred at Send: the delivery layer recycles
			// pooled messages once the handler returns (handlers that defer
			// a message past their return copy it via model.UnpoolMessage).
			model.RecycleMessage(env.Msg)
		}
	}()
}

// Inject delivers an envelope that arrived from a remote node straight into
// the destination mailbox. It is the local-only arm of route: an envelope
// addressed to an actor not registered here is dropped — inbound wire traffic
// for another site must not loop back out. Like a send it takes ownership of
// env.Msg: the transport's read loop decodes into the message pools, and the
// mailbox loop (or the NAK of a refusal) recycles.
func (r *Runtime) Inject(env Envelope) {
	r.mu.Lock()
	mb := r.actors[env.To]
	r.mu.Unlock()
	if mb != nil && !mb.push(env) {
		r.nak(env)
	}
}

// Post routes a locally originated envelope exactly as an actor's Send does.
// Use this — not Inject — to originate traffic that may target remote actors
// (e.g. a node publishing a partition-map epoch to its peers).
func (r *Runtime) Post(env Envelope) { r.route(env) }

// Shutdown stops all actor goroutines. Pending timers fire into closed
// mailboxes and are dropped.
func (r *Runtime) Shutdown() {
	r.mu.Lock()
	r.closed = true
	boxes := make([]*mailbox, 0, len(r.actors))
	for _, mb := range r.actors {
		boxes = append(boxes, mb)
	}
	r.mu.Unlock()
	for _, mb := range boxes {
		mb.close()
	}
	r.wg.Wait()
}

// NowMicros returns wall-clock microseconds since the Unix epoch, advanced
// by the process's monotonic clock (immune to wall-clock jumps after start).
// The epoch anchoring matters across processes: commit stamps and snapshot
// timestamps (ReleaseMsg.CommitMicros, SnapReadMsg.SnapMicros) are compared
// across sites, so every uccnode — including one restarted after a crash —
// must draw from one loosely synchronized timeline, not from its own
// process-start offset.
func (r *Runtime) NowMicros() int64 { return r.epoch + time.Since(r.start).Microseconds() }

type rtContext struct {
	rt   *Runtime
	self Addr
	rng  *rand.Rand
}

func (c *rtContext) NowMicros() int64 { return c.rt.NowMicros() }
func (c *rtContext) Self() Addr       { return c.self }
func (c *rtContext) Rand() *rand.Rand { return c.rng }

func (c *rtContext) Send(to Addr, msg model.Message) {
	c.rt.route(Envelope{From: c.self, To: to, Msg: msg})
}

func (c *rtContext) SetTimer(delayMicros int64, msg model.Message) {
	env := Envelope{From: c.self, To: c.self, Msg: msg}
	c.rt.mu.Lock()
	if c.rt.closed {
		c.rt.mu.Unlock()
		return
	}
	mb := c.rt.actors[c.self]
	c.rt.mu.Unlock()
	if mb == nil {
		return
	}
	if delayMicros <= 0 {
		mb.push(env)
		return
	}
	time.AfterFunc(time.Duration(delayMicros)*time.Microsecond, func() { mb.push(env) })
}
