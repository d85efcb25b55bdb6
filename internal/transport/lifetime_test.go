package transport

import (
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/placement"
	"ucc/internal/qm"
	"ucc/internal/ri"
	"ucc/internal/storage"
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
	streamAllocs(t, func(seq uint64) model.Message {
		return model.PooledRequest(model.RequestMsg{
			Txn: model.TxnID{Site: 0, Seq: seq}, Protocol: model.PA, Kind: model.OpWrite,
			Copy: model.CopyID{Item: 7, Site: 1}, TS: model.Timestamp(seq), Interval: 250,
		})
	})
}

// TestBatchStreamAllocsPerMessage: the same for request and abort batches
// and the read-only scatter/gather's two batches, whose members array travels with
// the pooled message in both directions — the send-side constructor copies
// into the pooled array, the read loop decodes into one — so a steady batch
// stream allocates (almost) nothing either.
func TestBatchStreamAllocsPerMessage(t *testing.T) {
	t.Run("request", func(t *testing.T) {
		members := []model.RequestMember{{Item: 7, Kind: model.OpWrite}, {Item: 19}, {Item: 31, Kind: model.OpWrite}}
		streamAllocs(t, func(seq uint64) model.Message {
			return model.PooledRequestBatch(model.RequestBatchMsg{
				Txn: model.TxnID{Site: 0, Seq: seq}, Protocol: model.PA, TS: model.Timestamp(seq), Interval: 250,
				CopySite: 1, Members: members,
			})
		})
	})
	t.Run("abort", func(t *testing.T) {
		members := []model.ItemID{7, 19, 31, 4095}
		streamAllocs(t, func(seq uint64) model.Message {
			return model.PooledAbortBatch(model.AbortBatchMsg{
				Txn: model.TxnID{Site: 0, Seq: seq}, Attempt: 2, CopySite: 1, Members: members,
			})
		})
	})
	t.Run("snapshot-read", func(t *testing.T) {
		members := []model.ItemID{7, 19, 31}
		streamAllocs(t, func(seq uint64) model.Message {
			return model.PooledSnapReadBatch(model.SnapReadBatchMsg{
				Txn: model.TxnID{Site: 0, Seq: seq}, SnapMicros: int64(seq), CopySite: 1, Members: members,
			})
		})
	})
	t.Run("snapshot-reply", func(t *testing.T) {
		members := []model.SnapReadReplyMember{
			{Item: 7, Value: 11, Version: 9, CommitMicros: 1 << 39, Exact: true},
			{Item: 19, Value: 42, Version: 3, CommitMicros: 1 << 38, Exact: true},
			{Item: 31, Value: -8, Version: 12, CommitMicros: 1 << 40, Exact: true},
		}
		streamAllocs(t, func(seq uint64) model.Message {
			return model.PooledSnapReadReplyBatch(model.SnapReadReplyBatchMsg{
				Txn: model.TxnID{Site: 0, Seq: seq}, CopySite: 1, Members: members,
			})
		})
	})
}

// TestSubmitStreamAllocsPerMessage: the same for submits, the way a client
// hands transactions to a site. The sender's Txn is its own and is never
// recycled; the read loop decodes each submit into a pooled Txn that keeps
// its item array, and the mailbox loop recycles it, so the stream allocates
// (almost) nothing either.
func TestSubmitStreamAllocsPerMessage(t *testing.T) {
	tx := model.NewTxn(model.TxnID{Site: 0, Seq: 1}, model.PA, []model.ItemID{7, 19}, []model.ItemID{31, 40}, 0)
	streamAllocs(t, func(uint64) model.Message { return model.SubmitTxnMsg{Txn: tx} })
}

// streamAllocs streams msg(1), msg(2), ... from site0 to site1 and fails if
// the steady state allocates half an object or more per message.
func streamAllocs(t *testing.T, msg func(seq uint64) model.Message) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	p := newNodePair(t, siteAssign)

	// A window of messages is in flight at a time, as an issuer's are: the
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
				p.rtA.Post(engine.Envelope{From: engine.RIAddr(0), To: engine.QMAddr(1), Msg: msg(seq)})
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
		want[busyOf(distinctRequest(i))] = true
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
		n.forward(engine.Envelope{From: engine.RIAddr(0), To: engine.QMAddr(1), Msg: request(distinctRequest(i))})
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

// distinctBatch is the i-th request batch of the batch drop tests: three
// members, and every BusyMsg one of them draws differs from every other's.
func distinctBatch(i int) model.RequestBatchMsg {
	return model.RequestBatchMsg{
		Txn:      model.TxnID{Site: 0, Seq: uint64(1000 + i)},
		Attempt:  model.Attempt(1 + i%5),
		CopySite: 1,
		Members:  []model.RequestMember{{Item: model.ItemID(1 + 9*i)}, {Item: model.ItemID(2 + 9*i), Kind: model.OpWrite}, {Item: model.ItemID(3 + 9*i)}},
	}
}

// checkBatchNAKs: the NAKs are exactly one BusyMsg per member of each of the
// given batches, each carrying that member's own copy.
func checkBatchNAKs(t *testing.T, naks []model.Message, batches []int) {
	t.Helper()
	want := map[model.BusyMsg]bool{}
	for _, i := range batches {
		b := distinctBatch(i)
		for m := range b.Members {
			want[*b.Busy(m).(*model.BusyMsg)] = true
		}
	}
	if len(naks) != len(want) {
		t.Fatalf("%d NAKs for %d members of %d dropped batches", len(naks), len(want), len(batches))
	}
	for i, m := range naks {
		busy, ok := m.(model.BusyMsg)
		if !ok || !want[busy] {
			t.Fatalf("NAK %d = %+v answers no member that was dropped (or twice)", i, m)
		}
		delete(want, busy)
	}
}

// TestDroppedBatchesNAKEveryMember: a request batch that leaves the outbox
// without reaching the wire — dropped on an unreachable peer, or evicted at
// the send-queue cap — is refused per copy: its sender gets one BusyMsg for
// every member, exactly as if each copy had travelled alone.
func TestDroppedBatchesNAKEveryMember(t *testing.T) {
	send := func(n *Node, i int) {
		n.forward(engine.Envelope{From: engine.RIAddr(0), To: engine.QMAddr(1), Msg: model.PooledRequestBatch(distinctBatch(i))})
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

		const total = 60
		naks := &recorder{done: make(chan struct{}), want: 3 * total}
		rtA.Register(engine.RIAddr(0), naks)
		var sent []int
		for i := 0; i < total; i++ {
			send(nodeA, i)
			sent = append(sent, i)
		}
		waitRecorder(t, naks, "a NAK for every member of every batch dropped on the dead peer")
		time.Sleep(100 * time.Millisecond) // a duplicate NAK would trail in now
		naks.mu.Lock()
		defer naks.mu.Unlock()
		checkBatchNAKs(t, naks.got, sent)
	})

	t.Run("cap eviction", func(t *testing.T) {
		p := newNodePair(t, siteAssign)
		rtA, rtB, nodeA := p.rtA, p.rtB, p.nodeA
		const cap, total = 8, 40
		nodeA.SetSendQueueCap(cap)
		nodeA.batchDelay = 300 * time.Millisecond // the writer lingers while the burst overflows the outbox

		naks := &recorder{done: make(chan struct{}), want: 3 * (total - cap - 1)}
		rtA.Register(engine.RIAddr(0), naks)
		recv := &recorder{done: make(chan struct{}), want: cap + 1}
		rtB.Register(engine.QMAddr(1), recv)
		send(nodeA, 0)
		time.Sleep(50 * time.Millisecond) // the writer takes batch 0 and starts its linger
		for i := 1; i < total; i++ {
			send(nodeA, i)
		}
		waitRecorder(t, naks, "the eviction NAKs")
		waitRecorder(t, recv, "the surviving batches")
		time.Sleep(100 * time.Millisecond) // stragglers
		naks.mu.Lock()
		defer naks.mu.Unlock()
		recv.mu.Lock()
		defer recv.mu.Unlock()
		delivered := map[int]bool{}
		for _, m := range recv.got {
			b, ok := m.(model.RequestBatchMsg)
			if !ok || !reflect.DeepEqual(b, distinctBatch(int(b.Txn.Seq)-1000)) {
				t.Fatalf("delivered %T %+v, not a batch that was sent", m, m)
			}
			delivered[int(b.Txn.Seq)-1000] = true
		}
		var evicted []int
		for i := 0; i < total; i++ {
			if !delivered[i] {
				evicted = append(evicted, i)
			}
		}
		checkBatchNAKs(t, naks.got, evicted)
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
			nodeA.forward(engine.Envelope{From: engine.RIAddr(0), To: to, Msg: request(distinctRequest(i))})
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

// doneLog keeps the TxnDoneMsgs a collector is sent.
type doneLog struct {
	mu    sync.Mutex
	dones []model.TxnDoneMsg
}

func (d *doneLog) OnMessage(_ engine.Context, _ engine.Addr, msg model.Message) {
	if v, ok := valueForm(msg).(model.TxnDoneMsg); ok { // either form
		d.mu.Lock()
		d.dones = append(d.dones, v)
		d.mu.Unlock()
	}
}

func (d *doneLog) count(o model.TxnOutcome) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, v := range d.dones {
		if v.Outcome == o {
			n++
		}
	}
	return n
}

// heldQM is a queue manager that handles nothing until released.
type heldQM struct {
	*qm.Manager
	release chan struct{}
}

func (h *heldQM) OnMessage(ctx engine.Context, from engine.Addr, msg model.Message) {
	<-h.release
	h.Manager.OnMessage(ctx, from, msg)
}

// TestDeadPeerRefusesBatchPerCopy: a real issuer with sites 0 and 1 on its
// own node and site 2 behind a dead peer. Its request batch to site 2 is
// dropped whole by the transport, and the NAK of every member reaches the
// issuer: under quorum (N3/W2) the first attempt asks only sites 0 and 1,
// site 1 holds its answer, so the hedge sweep sends the spares to site 2
// after RestartDelayMicros; exactly those copies are excluded and the
// attempt commits through sites 0 and 1. Under write-all every attempt is
// refused and restarts until MaxAttempts drops the transaction. No
// transaction is left active.
func TestDeadPeerRefusesBatchPerCopy(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()
	for _, mode := range []string{"quorum", "write-all"} {
		t.Run(mode, func(t *testing.T) {
			rt := engine.NewRuntime(engine.FixedLatency{}, 1)
			defer rt.Shutdown()
			node, err := NewNode(rt, "site0", "", Topology{
				Peers: map[string]string{"site2": deadAddr},
				Assign: func(a engine.Addr) string {
					if a.Kind == engine.KindQM && a.ID == 2 {
						return "site2"
					}
					return "site0"
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer node.Close()
			sites := []model.SiteID{0, 1, 2}
			held := &heldQM{release: make(chan struct{})}
			var releaseOnce sync.Once
			release := func() { releaseOnce.Do(func() { close(held.release) }) }
			defer release() // before the runtime's Shutdown waits on site 1's goroutine
			pm := placement.Build(placement.RoundRobin, 4, sites, 3)
			for _, s := range sites[:2] {
				st := storage.NewStore(s)
				for i := 0; i < 4; i++ {
					st.Create(model.ItemID(i), 100)
				}
				m := qm.New(s, st, nil, qm.Options{})
				m.SetPartitionMap(pm)
				if s == 1 {
					held.Manager = m
					rt.Register(engine.QMAddr(s), held)
				} else {
					rt.Register(engine.QMAddr(s), m)
				}
			}
			opts := ri.Options{PAIntervalMicros: 10, RestartDelayMicros: 1000, MaxAttempts: 2}
			if mode == "quorum" {
				opts.Quorum = &model.Quorum{N: 3, W: 2, R: 2}
			}
			iss := ri.New(0, pm, nil, opts, nil)
			rt.Register(engine.RIAddr(0), iss)
			log := &doneLog{}
			rt.Register(engine.CollectorAddr(), log)

			tx := model.NewTxn(model.TxnID{Site: 0, Seq: 1}, model.TwoPL, nil, []model.ItemID{0, 1}, 0)
			rt.Post(engine.Envelope{From: engine.DriverAddr(0), To: engine.RIAddr(0), Msg: model.SubmitTxnMsg{Txn: tx}})
			// Site 1 answers only once both NAKs are in, so the quorum cannot
			// close before the dead peer's refusal reaches the issuer.
			eventually(t, "two busy NAKs", func() bool { return iss.Snapshot().BusyNAKs == 2 })
			release()
			eventually(t, "the transaction to finish", func() bool {
				s := iss.Snapshot()
				return s.Submitted == 1 && s.Active == 0
			})
			s := iss.Snapshot()
			if mode == "quorum" {
				if s.Committed != 1 || s.BusyNAKs != 2 || s.QuorumExcluded != 2 || s.QuorumHedged != 1 || log.count(model.OutcomeBusy) != 0 {
					t.Fatalf("stats %+v: want a commit with site 2's 2 copies hedged, NAK'd and excluded, no restart", s)
				}
				return
			}
			if s.Committed != 0 || s.Dropped != 1 {
				t.Fatalf("stats %+v: want the write-all transaction restarted and then dropped", s)
			}
			eventually(t, "both refused attempts to be reported", func() bool { return log.count(model.OutcomeBusy) == 2 })
		})
	}
}
