package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ucc/internal/model"
)

type collect struct {
	mu   sync.Mutex
	tags []uint64
	done chan struct{}
	want int
}

func (c *collect) OnMessage(ctx Context, from Addr, msg model.Message) {
	c.mu.Lock()
	c.tags = append(c.tags, msg.(model.TickMsg).Tag)
	if len(c.tags) == c.want {
		close(c.done)
	}
	c.mu.Unlock()
}

type sender struct {
	to Addr
	n  int
}

func (s *sender) OnMessage(ctx Context, from Addr, msg model.Message) {
	for i := 0; i < s.n; i++ {
		ctx.Send(s.to, model.TickMsg{Tag: uint64(i)})
	}
}

// orderRecv checks, on its own mailbox goroutine, that every sender's tags
// arrive as 0, 1, 2, …; the fields are read after done is closed.
type orderRecv struct {
	next map[Addr]uint64
	bad  []string
	left int
	done chan struct{}
}

func (r *orderRecv) OnMessage(ctx Context, from Addr, msg model.Message) {
	tag := msg.(model.TickMsg).Tag
	if want := r.next[from]; tag != want && len(r.bad) < 8 {
		r.bad = append(r.bad, fmt.Sprintf("from %v: got tag %d, want %d", from, tag, want))
	}
	r.next[from] = tag + 1
	if r.left--; r.left == 0 {
		close(r.done)
	}
}

func waitFor(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestRuntimeDeliveryAndFIFO: four actors each send 1000 messages into one
// receiver at once; every sender's messages arrive in the order it sent them.
func TestRuntimeDeliveryAndFIFO(t *testing.T) {
	const senders, each = 4, 1000
	rt := NewRuntime(FixedLatency{}, 1)
	defer rt.Shutdown()
	recv := &orderRecv{next: map[Addr]uint64{}, left: senders * each, done: make(chan struct{})}
	rt.Register(QMAddr(0), recv)
	for i := 1; i <= senders; i++ {
		rt.Register(RIAddr(model.SiteID(i)), &sender{to: QMAddr(0), n: each})
	}
	for i := 1; i <= senders; i++ {
		self := RIAddr(model.SiteID(i))
		rt.Post(Envelope{From: self, To: self, Msg: model.TickMsg{}})
	}
	waitFor(t, recv.done, "deliveries")
	for _, b := range recv.bad {
		t.Errorf("FIFO violated: %s", b)
	}
}

// lockedSender takes the next number of a sequence it shares with another
// actor and sends it, both under the shared lock.
type lockedSender struct {
	mu  *sync.Mutex
	seq *uint64
	to  Addr
}

func (a *lockedSender) OnMessage(ctx Context, from Addr, msg model.Message) {
	a.mu.Lock()
	*a.seq++
	ctx.Send(a.to, model.TickMsg{Tag: *a.seq})
	a.mu.Unlock()
}

// TestRuntimeCrossSenderOrderUnderLock: two actors race for a shared lock and
// each sends, while holding it, the sequence number it drew under it. The
// receiver must see 1, 2, 3, … — delivery order is the order the lock was
// held, although the sends come from different addresses. (This is what
// orders a queue-manager control shard's un-park against the item's own
// shard: both send under the shard's mutex.)
func TestRuntimeCrossSenderOrderUnderLock(t *testing.T) {
	const rounds = 4000
	rt := NewRuntime(FixedLatency{}, 1)
	defer rt.Shutdown()
	recv := &collect{done: make(chan struct{}), want: 2 * rounds}
	rt.Register(CollectorAddr(), recv)
	var mu sync.Mutex
	var seq uint64
	a, b := QMShardAddr(0, 0), QMShardAddr(0, 1)
	rt.Register(a, &lockedSender{mu: &mu, seq: &seq, to: CollectorAddr()})
	rt.Register(b, &lockedSender{mu: &mu, seq: &seq, to: CollectorAddr()})
	for i := 0; i < rounds; i++ {
		rt.Post(Envelope{From: a, To: a, Msg: model.TickMsg{}})
		rt.Post(Envelope{From: b, To: b, Msg: model.TickMsg{}})
	}
	waitFor(t, recv.done, "deliveries")
	recv.mu.Lock()
	defer recv.mu.Unlock()
	for i, tag := range recv.tags {
		if tag != uint64(i+1) {
			t.Fatalf("delivery %d carries sequence number %d: sends under a common lock were reordered", i+1, tag)
		}
	}
}

// keep is what an uplink double does with an envelope it holds on to. The
// uplink owns the message it is handed (SetUplink), so it copies a pooled one
// out to its value form and recycles the original, once.
func keep(e Envelope) Envelope {
	sent := e.Msg
	e.Msg = model.UnpoolMessage(sent)
	model.RecycleMessage(sent)
	return e
}

// handoffProbe sends a pooled request to an address nobody registered and
// reports whether the uplink had that very message by the time Send returned.
// Its second message only marks that the mailbox loop is done with the first.
type handoffProbe struct {
	sent     *model.RequestMsg
	uplinked *atomic.Pointer[model.RequestMsg]
	result   chan bool
	returned chan struct{}
}

func (a *handoffProbe) OnMessage(ctx Context, from Addr, msg model.Message) {
	if msg.(model.TickMsg).Tag == 0 {
		ctx.Send(QMAddr(9), a.sent)
		a.result <- a.uplinked.Load() == a.sent
		return
	}
	close(a.returned)
}

// TestRuntimeSendIsSynchronous: when Send to a remote address returns inside
// OnMessage, the uplink has already been called — with the pointer the actor
// sent, not a copy — and the message is the uplink's from then on: the
// runtime does not recycle it, not even once the sending handler has
// returned.
func TestRuntimeSendIsSynchronous(t *testing.T) {
	rt := NewRuntime(nil, 1)
	defer rt.Shutdown()
	want := model.RequestMsg{Txn: model.TxnID{Site: 1, Seq: 7}, Attempt: 2, Copy: model.CopyID{Item: 3, Site: 9}}
	var uplinked atomic.Pointer[model.RequestMsg]
	rt.SetUplink(func(e Envelope) { uplinked.Store(e.Msg.(*model.RequestMsg)) })
	probe := &handoffProbe{sent: model.PooledRequest(want), uplinked: &uplinked, result: make(chan bool, 1), returned: make(chan struct{})}
	rt.Register(RIAddr(1), probe)
	rt.Post(Envelope{From: RIAddr(1), To: RIAddr(1), Msg: model.TickMsg{}})
	rt.Post(Envelope{From: RIAddr(1), To: RIAddr(1), Msg: model.TickMsg{Tag: 1}})
	select {
	case ok := <-probe.result:
		if !ok {
			t.Fatal("Send returned before the uplink was handed the message the actor sent")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("probe never ran")
	}
	waitFor(t, probe.returned, "the handler that sent to return")
	// RecycleMessage zeroes what it takes back.
	if got := *uplinked.Load(); got != want {
		t.Fatalf("the runtime recycled a message it had handed to the uplink: %+v, want %+v", got, want)
	}
}

type timerActor struct {
	fired chan int64
	start time.Time
}

func (a *timerActor) OnMessage(ctx Context, from Addr, msg model.Message) {
	if msg.(model.TickMsg).Tag == 0 {
		a.start = time.Now()
		ctx.SetTimer(20_000, model.TickMsg{Tag: 1}) // 20ms
		return
	}
	a.fired <- time.Since(a.start).Microseconds()
}

func TestRuntimeTimers(t *testing.T) {
	rt := NewRuntime(FixedLatency{}, 1)
	defer rt.Shutdown()
	a := &timerActor{fired: make(chan int64, 1)}
	rt.Register(RIAddr(1), a)
	rt.deliver(Envelope{From: RIAddr(1), To: RIAddr(1), Msg: model.TickMsg{Tag: 0}})
	select {
	case elapsed := <-a.fired:
		if elapsed < 15_000 {
			t.Fatalf("timer fired after %dµs, want ≈20ms", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timer never fired")
	}
}

// TestRuntimeTimersFireDueThenFIFO: delayed timers armed out of due order
// arrive earliest due first, and timers armed with one delay in the order
// they were armed; a timer pending at Shutdown is dropped.
func TestRuntimeTimersFireDueThenFIFO(t *testing.T) {
	rt := NewRuntime(FixedLatency{}, 1)
	recv := &collect{done: make(chan struct{}), want: 6}
	rt.Register(RIAddr(1), recv)
	ctx := &rtContext{rt: rt, self: RIAddr(1)}
	for _, tm := range []struct {
		delay int64
		tag   uint64
	}{{30_000, 5}, {10_000, 1}, {20_000, 4}, {10_000, 2}, {0, 0}, {10_000, 3}} {
		ctx.SetTimer(tm.delay, model.TickMsg{Tag: tm.tag})
	}
	ctx.SetTimer(60_000_000, model.TickMsg{Tag: 99})
	waitFor(t, recv.done, "six timers")
	recv.mu.Lock()
	got := slices.Clone(recv.tags)
	recv.mu.Unlock()
	if want := []uint64{0, 1, 2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Fatalf("timers fired in order %v, want %v", got, want)
	}
	rt.Shutdown()
	if n := len(rt.timers.heap); n != 0 {
		t.Fatalf("%d timers still pending after Shutdown", n)
	}
}

// tickSink hands every message's tag to a channel.
type tickSink chan uint64

func (c tickSink) OnMessage(_ Context, _ Addr, msg model.Message) { c <- msg.(model.TickMsg).Tag }

// TestDelayedSetTimerAllocatesNothing: once the runtime's timer heap has
// grown, arming a delayed timer and having it fire allocates nothing.
func TestDelayedSetTimerAllocatesNothing(t *testing.T) {
	rt := NewRuntime(FixedLatency{}, 1)
	defer rt.Shutdown()
	fired := make(tickSink, 1)
	rt.Register(RIAddr(1), fired)
	ctx := &rtContext{rt: rt, self: RIAddr(1)}
	arm := func() {
		ctx.SetTimer(1, model.TickMsg{Tag: 7})
		<-fired
	}
	arm() // grow the heap and start the runtime's timer
	if n := testing.AllocsPerRun(200, arm); n != 0 {
		t.Fatalf("%v allocations per delayed timer, want 0", n)
	}
}

type uplinkCounter struct{ n atomic.Int64 }

func TestRuntimeUplinkForUnknownActors(t *testing.T) {
	rt := NewRuntime(FixedLatency{}, 1)
	defer rt.Shutdown()
	var up uplinkCounter
	got := make(chan Envelope, 1)
	rt.SetUplink(func(e Envelope) {
		up.n.Add(1)
		got <- keep(e)
	})
	rt.Register(RIAddr(1), &sender{to: QMAddr(9), n: 1}) // QM 9 not local
	rt.deliver(Envelope{From: RIAddr(1), To: RIAddr(1), Msg: model.TickMsg{}})
	select {
	case e := <-got:
		if e.To != QMAddr(9) {
			t.Fatalf("uplinked to %v", e.To)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("uplink never called")
	}
}

// TestUplinkDeliveryStaysLocal: the func SetUplink returns delivers to a
// local mailbox, and drops an envelope for an actor not registered here
// instead of handing it back to the uplink — inbound wire traffic for another
// site must not loop back out.
func TestUplinkDeliveryStaysLocal(t *testing.T) {
	rt := NewRuntime(FixedLatency{}, 1)
	defer rt.Shutdown()
	var uplinked atomic.Int64
	deliver := rt.SetUplink(func(e Envelope) {
		uplinked.Add(1)
		keep(e)
	})
	recv := &collect{done: make(chan struct{}), want: 1}
	rt.Register(QMAddr(0), recv)
	deliver(Envelope{From: RIAddr(7), To: QMAddr(9), Msg: model.RequestMsg{Txn: model.TxnID{Site: 7, Seq: 1}}})
	deliver(Envelope{From: RIAddr(7), To: QMAddr(0), Msg: model.TickMsg{Tag: 1}})
	waitFor(t, recv.done, "the delivery to the local actor")
	if n := uplinked.Load(); n != 0 {
		t.Fatalf("the uplink was handed %d inbound envelope(s) for an actor not registered here", n)
	}
}

// TestRuntimePostRoutesRemote: Post delivers to a local mailbox like the
// uplink's delivery func but forwards a remote destination through the uplink
// instead of dropping it — the path a node publishing a partition-map epoch
// to its peers relies on (a MapInstallMsg to a remote QM delivered locally
// used to vanish silently). A pooled message reaches the uplink as the
// pointer that was posted.
func TestRuntimePostRoutesRemote(t *testing.T) {
	rt := NewRuntime(FixedLatency{}, 1)
	defer rt.Shutdown()
	want := model.RequestMsg{Txn: model.TxnID{Site: 0, Seq: 5}, Copy: model.CopyID{Item: 1, Site: 9}}
	posted := model.PooledRequest(want)
	var samePointer atomic.Bool
	got := make(chan Envelope, 1)
	rt.SetUplink(func(e Envelope) {
		samePointer.Store(e.Msg == model.Message(posted))
		got <- keep(e)
	})
	recv := &collect{done: make(chan struct{}), want: 1}
	rt.Register(QMAddr(0), recv)

	rt.Post(Envelope{From: QMAddr(0), To: QMAddr(0), Msg: model.TickMsg{}})
	select {
	case <-recv.done:
	case <-time.After(5 * time.Second):
		t.Fatal("Post never delivered to the local actor")
	}

	rt.Post(Envelope{From: QMAddr(0), To: QMAddr(9), Msg: posted})
	select {
	case e := <-got:
		if e.To != QMAddr(9) {
			t.Fatalf("uplinked to %v, want QM 9", e.To)
		}
		if !samePointer.Load() || e.Msg != model.Message(want) {
			t.Fatalf("uplink got %+v (the posted pointer: %v), want the posted message itself", e.Msg, samePointer.Load())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Post to a remote actor never reached the uplink")
	}
}

func TestRuntimeShutdownStopsDelivery(t *testing.T) {
	rt := NewRuntime(FixedLatency{}, 1)
	recv := &collect{done: make(chan struct{}), want: 1}
	rt.Register(RIAddr(1), recv)
	rt.Shutdown()
	rt.deliver(Envelope{From: RIAddr(1), To: RIAddr(1), Msg: model.TickMsg{}})
	select {
	case <-recv.done:
		t.Fatal("delivery after shutdown")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestLatencyModels(t *testing.T) {
	fixed := FixedLatency{RemoteMicros: 100, LocalMicros: 5}
	if fixed.DelayMicros(RIAddr(1), QMAddr(1), nil) != 5 {
		t.Fatal("same-site must be local")
	}
	if fixed.DelayMicros(RIAddr(1), QMAddr(2), nil) != 100 {
		t.Fatal("remote delay wrong")
	}
	rt := NewRuntime(FixedLatency{}, 7)
	defer rt.Shutdown()
	// UniformLatency bounds.
	u := UniformLatency{MinMicros: 10, MaxMicros: 20}
	rng := newTestRand()
	for i := 0; i < 100; i++ {
		d := u.DelayMicros(RIAddr(1), QMAddr(2), rng)
		if d < 10 || d > 20 {
			t.Fatalf("uniform delay %d out of bounds", d)
		}
	}
	// ExpLatency truncation at 10× mean.
	e := ExpLatency{MeanMicros: 100}
	for i := 0; i < 1000; i++ {
		d := e.DelayMicros(RIAddr(1), QMAddr(2), rng)
		if d < 0 || d > 1000 {
			t.Fatalf("exp delay %d out of [0,1000]", d)
		}
	}
}

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(5)) }

// blockingActor wedges its mailbox goroutine on the first delivery until
// released — the stand-in for a queue-manager shard that cannot keep up.
type blockingActor struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
	handled atomic.Int64
}

func (a *blockingActor) OnMessage(ctx Context, from Addr, msg model.Message) {
	a.once.Do(func() { close(a.entered) })
	<-a.release
	a.handled.Add(1)
}

// busyCollector records BusyMsg NAKs delivered to the sending actor.
type busyCollector struct {
	mu    sync.Mutex
	busys []model.BusyMsg
}

func (c *busyCollector) OnMessage(ctx Context, from Addr, msg model.Message) {
	if b, ok := msg.(model.BusyMsg); ok {
		c.mu.Lock()
		c.busys = append(c.busys, b)
		c.mu.Unlock()
	}
}

// TestMailboxBoundNAKsSheddable is the full-mailbox overflow-policy test: a
// QM-shard mailbox at its bound NAKs sheddable requests back to the sender
// with BusyMsg, keeps admitting protocol-completion traffic (whose loss
// would strand locks), and never blocks anyone.
func TestMailboxBoundNAKsSheddable(t *testing.T) {
	const depth = 4
	rt := NewRuntime(FixedLatency{}, 1)
	rt.SetMailboxDepth(depth)
	qmAddr := QMShardAddr(0, 1)
	riAddr := RIAddr(3)
	blocked := &blockingActor{entered: make(chan struct{}), release: make(chan struct{})}
	sender := &busyCollector{}
	rt.Register(qmAddr, blocked)
	rt.Register(riAddr, sender)
	var unwedgeOnce sync.Once
	unwedge := func() { unwedgeOnce.Do(func() { close(blocked.release) }) }
	defer func() {
		unwedge()
		rt.Shutdown()
	}()

	req := func(seq uint64) Envelope {
		return Envelope{From: riAddr, To: qmAddr, Msg: model.RequestMsg{
			Txn:  model.TxnID{Site: 3, Seq: seq},
			Copy: model.CopyID{Item: model.ItemID(seq), Site: 0},
			Site: 3,
		}}
	}
	// Wedge the consumer: the first request is popped into OnMessage and
	// blocks there, leaving the mailbox itself empty.
	rt.deliver(req(0))
	select {
	case <-blocked.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("consumer never entered OnMessage")
	}
	// Fill the mailbox to its bound, then overflow it.
	const overflow = 10
	for i := 1; i <= depth+overflow; i++ {
		rt.deliver(req(uint64(i)))
	}
	// Exactly the overflowing requests must be NAK'd (delivered through the
	// sender's own mailbox goroutine, hence the poll).
	deadline := time.Now().Add(5 * time.Second)
	for {
		sender.mu.Lock()
		got := len(sender.busys)
		sender.mu.Unlock()
		if got == overflow {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("busy NAKs = %d, want %d", got, overflow)
		}
		time.Sleep(time.Millisecond)
	}
	// A non-sheddable message (a release) must be admitted past the bound.
	rt.deliver(Envelope{From: riAddr, To: qmAddr, Msg: model.ReleaseMsg{
		Txn: model.TxnID{Site: 3, Seq: 99},
	}})
	overflows, high := rt.MailboxStats()
	if overflows != overflow {
		t.Fatalf("overflow counter = %d, want %d", overflows, overflow)
	}
	if high < depth+1 {
		t.Fatalf("mailbox high-water = %d, want ≥ %d (the non-sheddable release must pass the bound)", high, depth+1)
	}
	// The NAKs carry the refused request's identity.
	sender.mu.Lock()
	for i, b := range sender.busys {
		if b.Txn.Seq != uint64(depth+1+i) {
			sender.mu.Unlock()
			t.Fatalf("NAK %d names txn %v, want seq %d", i, b.Txn, depth+1+i)
		}
	}
	sender.mu.Unlock()
	// Unwedge the consumer and count what it actually processed: the first
	// request + exactly `depth` queued requests + the release — never the
	// NAK'd overflow.
	unwedge()
	want := int64(1 + depth + 1)
	deadline = time.Now().Add(5 * time.Second)
	for blocked.handled.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("consumer handled %d messages, want %d", blocked.handled.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMailboxRefusalNAKsEveryMember: a request batch refused at a full
// mailbox is answered with one BusyMsg per member, each naming that member's
// copy — the NAKs its single requests would have drawn.
func TestMailboxRefusalNAKsEveryMember(t *testing.T) {
	rt := NewRuntime(FixedLatency{}, 1)
	rt.SetMailboxDepth(1)
	qmAddr, riAddr := QMAddr(2), RIAddr(3)
	blocked := &blockingActor{entered: make(chan struct{}), release: make(chan struct{})}
	sender := &busyCollector{}
	rt.Register(qmAddr, blocked)
	rt.Register(riAddr, sender)
	defer rt.Shutdown()
	defer close(blocked.release)

	rt.Post(Envelope{From: riAddr, To: qmAddr, Msg: model.TickMsg{}})
	waitFor(t, blocked.entered, "the consumer to wedge")
	rt.Post(Envelope{From: riAddr, To: qmAddr, Msg: model.TickMsg{}}) // the mailbox is now at its bound

	batch := model.RequestBatchMsg{Txn: model.TxnID{Site: 3, Seq: 7}, Attempt: 2, Site: 3, CopySite: 2,
		Members: []model.RequestMember{{Item: 4}, {Item: 5, Kind: model.OpWrite}, {Item: 9}}}
	rt.Post(Envelope{From: riAddr, To: qmAddr, Msg: model.PooledRequestBatch(batch)})

	var want []model.BusyMsg
	for i := range batch.Members {
		want = append(want, batch.Busy(i).(model.BusyMsg))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		sender.mu.Lock()
		got := append([]model.BusyMsg(nil), sender.busys...)
		sender.mu.Unlock()
		if len(got) >= len(want) {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("NAKs %+v, want one per member %+v", got, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("NAKs %+v after 5 s, want %+v", got, want)
		}
		time.Sleep(time.Millisecond)
	}
	if overflows, _ := rt.MailboxStats(); overflows != 1 {
		t.Fatalf("overflows = %d, want 1 (one refused envelope)", overflows)
	}
}

// TestMailboxNAKReachesRemoteSenderViaUplink: a refused request from a
// remote site must NAK through the uplink (the TCP transport), not vanish.
func TestMailboxNAKReachesRemoteSenderViaUplink(t *testing.T) {
	rt := NewRuntime(FixedLatency{}, 1)
	rt.SetMailboxDepth(1)
	naks := make(chan Envelope, 16)
	deliver := rt.SetUplink(func(e Envelope) { naks <- keep(e) })
	blocked := &blockingActor{entered: make(chan struct{}), release: make(chan struct{})}
	rt.Register(QMAddr(0), blocked)
	defer func() {
		close(blocked.release)
		rt.Shutdown()
	}()

	remote := RIAddr(7) // not registered locally
	req := func(seq uint64) Envelope {
		return Envelope{From: remote, To: QMAddr(0), Msg: model.RequestMsg{
			Txn: model.TxnID{Site: 7, Seq: seq}, Site: 7,
		}}
	}
	deliver(req(0))
	<-blocked.entered
	deliver(req(1)) // fills the depth-1 mailbox
	deliver(req(2)) // must NAK via uplink
	select {
	case e := <-naks:
		if e.To != remote {
			t.Fatalf("NAK addressed to %v, want %v", e.To, remote)
		}
		if b, ok := e.Msg.(model.BusyMsg); !ok || b.Txn.Seq != 2 {
			t.Fatalf("NAK payload = %+v", e.Msg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("NAK never reached the uplink")
	}
}

// floodActor sends a burst of requests from inside one OnMessage, then a
// marker to itself, and records the BusyMsg NAKs that come back to it.
type floodActor struct {
	busyCollector
	to      Addr
	burst   int
	drained chan struct{} // closed when the marker sent after the burst arrives
}

func (a *floodActor) OnMessage(ctx Context, from Addr, msg model.Message) {
	tick, ok := msg.(model.TickMsg)
	switch {
	case !ok:
		a.busyCollector.OnMessage(ctx, from, msg)
	case tick.Tag == 0:
		for i := 1; i <= a.burst; i++ {
			ctx.Send(a.to, model.RequestMsg{Txn: model.TxnID{Site: ctx.Self().ID, Seq: uint64(i)}})
		}
		ctx.Send(ctx.Self(), model.TickMsg{Tag: 1})
	default:
		close(a.drained)
	}
}

// TestSendToFullMailboxNAKsIntoOwnMailbox: an actor whose Send hits a full
// bounded mailbox is NAK'd in its own mailbox while it is still inside
// OnMessage — the refusal neither blocks the sender nor is lost. Each NAK is
// there before its Send returns, so all of them precede the marker the actor
// sends itself after the burst.
func TestSendToFullMailboxNAKsIntoOwnMailbox(t *testing.T) {
	const depth, overflow = 4, 6
	rt := NewRuntime(FixedLatency{}, 1)
	rt.SetMailboxDepth(depth)
	blocked := &blockingActor{entered: make(chan struct{}), release: make(chan struct{})}
	flood := &floodActor{to: QMAddr(0), burst: depth + overflow, drained: make(chan struct{})}
	rt.Register(QMAddr(0), blocked)
	rt.Register(RIAddr(3), flood)
	defer func() {
		close(blocked.release)
		rt.Shutdown()
	}()

	// Wedge the consumer so its mailbox only fills.
	rt.deliver(Envelope{From: RIAddr(3), To: QMAddr(0), Msg: model.ReleaseMsg{}})
	waitFor(t, blocked.entered, "the consumer to enter OnMessage")
	rt.Post(Envelope{From: RIAddr(3), To: RIAddr(3), Msg: model.TickMsg{}})
	waitFor(t, flood.drained, "the burst and its marker (a Send blocked on the full mailbox, or a NAK was lost)")
	flood.mu.Lock()
	defer flood.mu.Unlock()
	if len(flood.busys) != overflow {
		t.Fatalf("busy NAKs ahead of the marker = %d, want %d", len(flood.busys), overflow)
	}
	for i, b := range flood.busys {
		if want := uint64(depth + 1 + i); b.Txn.Seq != want {
			t.Fatalf("NAK %d names request %d, want %d", i, b.Txn.Seq, want)
		}
	}
	if ovf, _ := rt.MailboxStats(); ovf != overflow {
		t.Fatalf("overflow counter = %d, want %d", ovf, overflow)
	}
}

// TestNewRuntimeRejectsDelayingModels: the runtime cannot delay a message, so
// a model that would is refused loudly instead of ignored.
func TestNewRuntimeRejectsDelayingModels(t *testing.T) {
	for _, ok := range []LatencyModel{nil, FixedLatency{}} {
		NewRuntime(ok, 1).Shutdown()
	}
	for _, bad := range []LatencyModel{
		FixedLatency{RemoteMicros: 1},
		FixedLatency{LocalMicros: 1},
		UniformLatency{MinMicros: 0, MaxMicros: 2_000},
		ExpLatency{},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("NewRuntime(%T%+v) did not panic", bad, bad)
				} else if !strings.Contains(fmt.Sprint(r), "internal/sim") {
					t.Errorf("panic %q does not point at internal/sim", r)
				}
			}()
			NewRuntime(bad, 1)
		}()
	}
}

// TestSendAfterShutdownIsDropped: a Send on a shut-down runtime reaches
// neither a mailbox nor the uplink, and does not panic.
func TestSendAfterShutdownIsDropped(t *testing.T) {
	rt := NewRuntime(FixedLatency{}, 1)
	var uplinked atomic.Int64
	rt.SetUplink(func(Envelope) { uplinked.Add(1) })
	recv := &collect{done: make(chan struct{}), want: 1}
	rt.Register(RIAddr(2), recv)
	ctx := &rtContext{rt: rt, self: RIAddr(1)}
	rt.Shutdown()
	ctx.Send(RIAddr(2), model.TickMsg{})
	ctx.Send(QMAddr(9), model.PooledRequest(model.RequestMsg{}))
	ctx.SetTimer(0, model.TickMsg{})
	if n := uplinked.Load(); n != 0 {
		t.Fatalf("uplink called %d times after Shutdown", n)
	}
	recv.mu.Lock()
	defer recv.mu.Unlock()
	if len(recv.tags) != 0 {
		t.Fatal("delivery after Shutdown")
	}
}

// bouncer answers every message with reply() to peer until left runs out.
type bouncer struct {
	peer  Addr
	reply func() model.Message
	left  int
	done  chan struct{} // closed by the message that finds left at 0; nil on the echo side
}

func (a *bouncer) OnMessage(ctx Context, _ Addr, _ model.Message) {
	if a.left == 0 {
		if a.done != nil {
			close(a.done)
		}
		return
	}
	a.left--
	ctx.Send(a.peer, a.reply())
}

// TestRuntimeHopAllocs pins the cost of a local hop: a pooled request/grant
// ping-pong between two actors of one runtime allocates (almost) nothing per
// hop — the envelope goes from Send straight into the mailbox's reused
// backing array. The bound leaves room for sync.Pool dropping a quarter of
// its Puts under the race detector.
func TestRuntimeHopAllocs(t *testing.T) {
	const rounds = 20_000
	rt := NewRuntime(FixedLatency{}, 1)
	defer rt.Shutdown()
	ping := &bouncer{peer: QMAddr(0), left: rounds, done: make(chan struct{}),
		reply: func() model.Message { return model.PooledRequest(model.RequestMsg{}) }}
	echo := &bouncer{peer: RIAddr(0), left: rounds,
		reply: func() model.Message { return model.PooledGrant(model.GrantMsg{}) }}
	rt.Register(RIAddr(0), ping)
	rt.Register(QMAddr(0), echo)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rt.Post(Envelope{From: RIAddr(0), To: RIAddr(0), Msg: model.TickMsg{}})
	waitFor(t, ping.done, "the ping-pong")
	runtime.ReadMemStats(&after)
	perHop := float64(after.Mallocs-before.Mallocs) / (2 * rounds)
	t.Logf("%.4f allocs per local hop", perHop)
	if perHop >= 0.5 {
		t.Fatalf("%.3f allocs per local hop, want < 0.5", perHop)
	}
}
