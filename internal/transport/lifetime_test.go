package transport

import (
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"ucc/internal/engine"
	"ucc/internal/model"
)

// Message lifetime across the network plane: the node owns what the runtime
// hands it, recycles a pooled message when its envelope leaves for good, and
// decodes into the pools on the way in.

// nodePair is two runtimes joined by loopback TCP: site0, outbound only,
// dials site1. Everything is torn down with the test.
type nodePair struct {
	rtA, rtB     *engine.Runtime
	nodeA, nodeB *Node
}

func newNodePair(t *testing.T, assignA func(engine.Addr) string) *nodePair {
	t.Helper()
	p := &nodePair{rtA: engine.NewRuntime(engine.FixedLatency{}, 1), rtB: engine.NewRuntime(engine.FixedLatency{}, 2)}
	t.Cleanup(p.rtA.Shutdown)
	t.Cleanup(p.rtB.Shutdown)
	var err error
	if p.nodeB, err = NewNode(p.rtB, "site1", "127.0.0.1:0", Topology{Peers: map[string]string{}, Assign: siteAssign}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.nodeB.Close)
	if p.nodeA, err = NewNode(p.rtA, "site0", "", Topology{Peers: map[string]string{"site1": p.nodeB.Addr()}, Assign: assignA}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.nodeA.Close)
	return p
}

// ackActor counts deliveries and reports every window-th one.
type ackActor struct {
	n      int
	window int
	acks   chan struct{}
}

func (a *ackActor) OnMessage(engine.Context, engine.Addr, model.Message) {
	if a.n++; a.n%a.window == 0 {
		a.acks <- struct{}{}
	}
}

// TestStreamAllocsPerMessage pins the cost of a message crossing the wire: a
// steady stream of pooled requests from one runtime to another — Post,
// outbox, encode, loopback TCP, pooled decode, mailbox, recycle — allocates
// (almost) nothing per message once the pools and the two outbox arrays are
// warm. A count, not a time, so it gates on any runner.
func TestStreamAllocsPerMessage(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	p := newNodePair(t, siteAssign)

	// A window of requests is in flight at a time, as an issuer's are: the
	// stream is steady, not a backlog growing in the outbox.
	const window, warm, measured = 32, 50, 500
	recv := &ackActor{window: window, acks: make(chan struct{}, 1)}
	p.rtB.Register(engine.QMAddr(1), recv)
	seq := uint64(0)
	deadline := time.After(30 * time.Second) // one timer: a time.After per window would be most of the count
	stream := func(windows int) {
		for w := 0; w < windows; w++ {
			for i := 0; i < window; i++ {
				seq++
				p.rtA.Post(engine.Envelope{From: engine.RIAddr(0), To: engine.QMAddr(1), Msg: model.PooledRequest(model.RequestMsg{
					Txn: model.TxnID{Site: 0, Seq: seq}, Protocol: model.PA, Kind: model.OpWrite,
					Copy: model.CopyID{Item: 7, Site: 1}, TS: model.Timestamp(seq), Interval: 250,
				})})
			}
			select {
			case <-recv.acks:
			case <-deadline:
				t.Fatalf("window %d had not arrived after 30 s", w)
			}
		}
	}
	stream(warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stream(measured)
	runtime.ReadMemStats(&after)
	perMsg := float64(after.Mallocs-before.Mallocs) / (measured * window)
	t.Logf("%.4f allocs per streamed message", perMsg)
	if perMsg >= 0.5 {
		t.Fatalf("%.3f allocs per streamed message, want < 0.5", perMsg)
	}
}

// distinctRequest is the i-th request of the drop tests: every field its
// BusyMsg carries is different from every other request's, and none is zero.
func distinctRequest(i int) model.RequestMsg {
	return model.RequestMsg{
		Txn:     model.TxnID{Site: 0, Seq: uint64(1000 + i)},
		Attempt: model.Attempt(1 + i%5),
		Copy:    model.CopyID{Item: model.ItemID(1 + 3*i), Site: 1},
		TS:      model.Timestamp(1 + i),
	}
}

// checkNAKs: every BusyMsg the sender got answers a distinct request among
// distinctRequest(0..sent-1), with that request's Txn, Attempt and Copy. The
// NAK is built from the dropped message, which is then recycled (zeroed and
// reused), so a NAK built after the recycle names no request, or another's.
func checkNAKs(t *testing.T, naks []model.Message, sent int) map[uint64]bool {
	t.Helper()
	want := map[model.BusyMsg]bool{}
	for i := 0; i < sent; i++ {
		want[distinctRequest(i).Busy().(model.BusyMsg)] = true
	}
	seen := map[uint64]bool{}
	for i, m := range naks {
		busy, ok := m.(model.BusyMsg)
		if !ok {
			t.Fatalf("sender received %T, want model.BusyMsg", m)
		}
		if !want[busy] {
			t.Fatalf("NAK %d answers no request that was sent: %+v", i, busy)
		}
		if seen[busy.Txn.Seq] {
			t.Fatalf("NAK %d is the second one for %v", i, busy.Txn)
		}
		seen[busy.Txn.Seq] = true
	}
	return seen
}

// TestDroppedPooledRequestsNAKIntact: whichever way a pooled request leaves
// the outbox without reaching the wire — its batch dropped on an unreachable
// peer, or evicted at the send-queue cap — the local sender gets exactly one
// BusyMsg for it, carrying the request's own identity.
func TestDroppedPooledRequestsNAKIntact(t *testing.T) {
	send := func(n *Node, i int) {
		n.forward(engine.Envelope{From: engine.RIAddr(0), To: engine.QMAddr(1), Msg: model.PooledRequest(distinctRequest(i))})
	}

	t.Run("unreachable peer", func(t *testing.T) {
		rtA := engine.NewRuntime(engine.FixedLatency{}, 1)
		defer rtA.Shutdown()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		deadAddr := ln.Addr().String()
		ln.Close()
		nodeA, err := NewNode(rtA, "site0", "", Topology{Peers: map[string]string{"site1": deadAddr}, Assign: siteAssign})
		if err != nil {
			t.Fatal(err)
		}
		defer nodeA.Close()

		const total = 300
		naks := &recorder{done: make(chan struct{}), want: total}
		rtA.Register(engine.RIAddr(0), naks)
		for i := 0; i < total; i++ {
			send(nodeA, i)
			if i%50 == 49 {
				time.Sleep(time.Millisecond) // several batches, not one
			}
		}
		waitRecorder(t, naks, "a NAK for every request dropped on the dead peer")
		time.Sleep(100 * time.Millisecond) // a duplicate NAK would trail in now
		naks.mu.Lock()
		defer naks.mu.Unlock()
		if len(naks.got) != total {
			t.Fatalf("sender received %d NAKs for %d dropped requests", len(naks.got), total)
		}
		checkNAKs(t, naks.got, total)
		if dropped, _ := nodeA.QueueStats(); dropped != total {
			t.Fatalf("dropped = %d, want %d", dropped, total)
		}
	})

	t.Run("cap eviction", func(t *testing.T) {
		p := newNodePair(t, siteAssign)
		rtA, rtB, nodeA := p.rtA, p.rtB, p.nodeA

		const cap, total = 16, 200
		nodeA.SetSendQueueCap(cap)
		nodeA.batchDelay = 300 * time.Millisecond // the writer lingers while the burst overflows the outbox

		// Everything sent is either evicted (and NAK'd) or delivered.
		naks := &recorder{done: make(chan struct{}), want: total - cap - 1}
		rtA.Register(engine.RIAddr(0), naks)
		recv := &recorder{done: make(chan struct{}), want: cap}
		rtB.Register(engine.QMAddr(1), recv)
		send(nodeA, 0)
		time.Sleep(50 * time.Millisecond) // the writer takes request 0 and starts its linger
		for i := 1; i < total; i++ {
			send(nodeA, i)
		}
		waitRecorder(t, naks, "the eviction NAKs")
		waitRecorder(t, recv, "the survivors")
		time.Sleep(100 * time.Millisecond) // stragglers
		naks.mu.Lock()
		defer naks.mu.Unlock()
		recv.mu.Lock()
		defer recv.mu.Unlock()
		if dropped, _ := nodeA.QueueStats(); uint64(len(naks.got)) != dropped {
			t.Fatalf("%d NAKs for %d evictions", len(naks.got), dropped)
		}
		nakd := checkNAKs(t, naks.got, total)
		// The survivors crossed the wire intact, and none was also NAK'd.
		for _, m := range recv.got {
			req, ok := m.(model.RequestMsg)
			if !ok || req != distinctRequest(int(req.Txn.Seq)-1000) {
				t.Fatalf("delivered %T %+v, not a request that was sent", m, m)
			}
			if nakd[req.Txn.Seq] {
				t.Fatalf("%v was both delivered and NAK'd", req.Txn)
			}
		}
		if len(naks.got)+len(recv.got) != total {
			t.Fatalf("%d NAK'd + %d delivered, want %d in all", len(naks.got), len(recv.got), total)
		}
	})
}

// TestAssignConsultedOncePerAddress: Topology.Assign is static, so the node
// asks it where a destination lives on the first send and never again,
// however many envelopes follow; and a destination assigned to the node
// itself still short-circuits into the local runtime.
func TestAssignConsultedOncePerAddress(t *testing.T) {
	var mu sync.Mutex
	asked := map[engine.Addr]int{}
	p := newNodePair(t, func(a engine.Addr) string {
		mu.Lock()
		asked[a]++
		mu.Unlock()
		return siteAssign(a)
	})
	rtA, rtB, nodeA := p.rtA, p.rtB, p.nodeA
	mu.Lock()
	if len(asked) != 0 {
		t.Fatalf("NewNode resolved %v before anything was sent", asked)
	}
	mu.Unlock()

	const each = 100
	remote := &recorder{done: make(chan struct{}), want: 2 * each}
	rtB.Register(engine.QMAddr(1), remote)
	rtB.Register(engine.RIAddr(1), remote)
	local := &recorder{done: make(chan struct{}), want: each}
	rtA.Register(engine.QMAddr(0), local)
	for i := 0; i < each; i++ {
		for _, to := range []engine.Addr{engine.QMAddr(1), engine.RIAddr(1), engine.QMAddr(0)} {
			nodeA.forward(engine.Envelope{From: engine.RIAddr(0), To: to, Msg: model.PooledRequest(distinctRequest(i))})
		}
	}
	waitRecorder(t, remote, "the remote destinations")
	waitRecorder(t, local, "the destination on the node itself")
	mu.Lock()
	defer mu.Unlock()
	for _, to := range []engine.Addr{engine.QMAddr(1), engine.RIAddr(1), engine.QMAddr(0)} {
		if asked[to] != 1 {
			t.Errorf("Assign(%v) consulted %d times for %d envelopes, want once", to, asked[to], each)
		}
	}
	// Two addresses on one peer share its sender: one connection, not two.
	if s := nodeA.Wire().Snapshot(); s.ConnsOut != 1 {
		t.Errorf("ConnsOut=%d for two addresses on one peer, want 1", s.ConnsOut)
	}
	eventually(t, "the sender to count its batches", func() bool { return nodeA.Wire().Snapshot().MsgsOut >= 2*each })
	if s := nodeA.Wire().Snapshot(); s.MsgsOut != 2*each {
		t.Errorf("MsgsOut=%d: the local destination must not touch the wire (want %d)", s.MsgsOut, 2*each)
	}
}
