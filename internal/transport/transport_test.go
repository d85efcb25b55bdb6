package transport

import (
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"ucc/internal/engine"
	"ucc/internal/model"
)

// recorder keeps every message it is delivered. A delivered message belongs
// to the runtime, which recycles a pooled one as soon as OnMessage returns —
// and everything the read loop decodes is pooled — so the recorder keeps the
// value copy, as any actor that retains a message must.
type recorder struct {
	mu   sync.Mutex
	got  []model.Message
	done chan struct{}
	want int
}

func (r *recorder) OnMessage(ctx engine.Context, from engine.Addr, msg model.Message) {
	r.mu.Lock()
	r.got = append(r.got, asSingle(valueForm(msg)))
	if len(r.got) == r.want {
		close(r.done)
	}
	r.mu.Unlock()
}

// valueForm is a value copy of a pooled message, which owns its arrays (it
// derefs a retained copy that nothing recycles), and any other message as it
// is.
func valueForm(msg model.Message) model.Message {
	if v := reflect.ValueOf(msg); v.Kind() == reflect.Pointer {
		return reflect.ValueOf(model.RetainMessage(msg)).Elem().Interface().(model.Message)
	}
	return msg
}

// asSingle is a batch of one as the single message it stands for, and any
// other message as it is.
func asSingle(msg model.Message) model.Message {
	switch v := msg.(type) {
	case model.RequestBatchMsg:
		if len(v.Members) == 1 {
			return v.Request(0)
		}
	case model.ReleaseBatchMsg:
		if len(v.Members) == 1 {
			return v.Release(0)
		}
	case model.GrantBatchMsg:
		if len(v.Members) == 1 {
			return v.Grant(0)
		}
	}
	return msg
}

// request is v as the pooled batch of one it travels as: a sheddable
// opener.
func request(v model.RequestMsg) model.Message {
	return model.PooledRequestBatch(model.RequestBatchMsg{
		Txn: v.Txn, Attempt: v.Attempt, Protocol: v.Protocol, TS: v.TS, Interval: v.Interval,
		Site: v.Site, Epoch: v.Epoch, CopySite: v.Copy.Site,
		Members: []model.RequestMember{{Item: v.Copy.Item, Kind: v.Kind}},
	})
}

// busyOf is the NAK a refused request draws.
func busyOf(v model.RequestMsg) model.BusyMsg {
	return model.BusyMsg{Txn: v.Txn, Attempt: v.Attempt, Copy: v.Copy}
}

type relay struct{ to engine.Addr }

func (s *relay) OnMessage(ctx engine.Context, from engine.Addr, msg model.Message) {
	ctx.Send(s.to, msg)
}

// TestCrossProcessDelivery wires two runtimes over real TCP sockets and
// checks ordered delivery of typed messages in both directions.
func TestCrossProcessDelivery(t *testing.T) {
	rtA := engine.NewRuntime(engine.FixedLatency{}, 1)
	rtB := engine.NewRuntime(engine.FixedLatency{}, 2)
	defer rtA.Shutdown()
	defer rtB.Shutdown()

	// Peer A hosts RI(0)+QM(0); peer B hosts RI(1)+QM(1).
	assign := func(a engine.Addr) string {
		return fmt.Sprintf("site%d", a.ID)
	}
	topoA := Topology{Peers: map[string]string{}, Assign: assign}
	nodeA, err := NewNode(rtA, "site0", "127.0.0.1:0", topoA)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()
	topoB := Topology{Peers: map[string]string{"site0": nodeA.Addr()}, Assign: assign}
	nodeB, err := NewNode(rtB, "site1", "127.0.0.1:0", topoB)
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()
	topoA.Peers["site1"] = nodeB.Addr()

	recv := &recorder{done: make(chan struct{}), want: 50}
	rtA.Register(engine.QMAddr(0), recv)
	rtB.Register(engine.RIAddr(1), &relay{to: engine.QMAddr(0)})

	// Drive 50 typed messages from B's actor to A's actor over the wire.
	for i := 0; i < 50; i++ {
		rtB.Post(engine.Envelope{
			From: engine.RIAddr(1), To: engine.RIAddr(1),
			Msg: model.RequestMsg{
				Txn:      model.TxnID{Site: 1, Seq: uint64(i)},
				Protocol: model.PA,
				Kind:     model.OpWrite,
				Copy:     model.CopyID{Item: 3, Site: 0},
				TS:       model.Timestamp(i),
				Site:     1,
			},
		})
	}
	select {
	case <-recv.done:
	case <-time.After(10 * time.Second):
		recv.mu.Lock()
		n := len(recv.got)
		recv.mu.Unlock()
		t.Fatalf("timed out: got %d/50", n)
	}
	recv.mu.Lock()
	defer recv.mu.Unlock()
	for i, m := range recv.got {
		req, ok := m.(model.RequestMsg)
		if !ok {
			t.Fatalf("message %d has type %T", i, m)
		}
		if req.Txn.Seq != uint64(i) || req.TS != model.Timestamp(i) {
			t.Fatalf("order/content broken at %d: %+v", i, req)
		}
		if req.Copy != (model.CopyID{Item: 3, Site: 0}) {
			t.Fatalf("copy id corrupted: %+v", req.Copy)
		}
	}
}

func TestLocalAssignShortCircuits(t *testing.T) {
	rt := engine.NewRuntime(engine.FixedLatency{}, 1)
	defer rt.Shutdown()
	topo := Topology{
		Peers:  map[string]string{},
		Assign: func(engine.Addr) string { return "self" },
	}
	node, err := NewNode(rt, "self", "", topo) // outbound-only, no listener
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	recv := &recorder{done: make(chan struct{}), want: 1}
	rt.Register(engine.QMAddr(5), recv)
	rt.Register(engine.RIAddr(1), &relay{to: engine.QMAddr(5)})
	rt.Post(engine.Envelope{From: engine.RIAddr(1), To: engine.RIAddr(1), Msg: model.TickMsg{}})
	select {
	case <-recv.done:
	case <-time.After(5 * time.Second):
		t.Fatal("local short-circuit failed")
	}
}

func TestUnknownPeerDropsSilently(t *testing.T) {
	rt := engine.NewRuntime(engine.FixedLatency{}, 1)
	defer rt.Shutdown()
	topo := Topology{
		Peers:  map[string]string{},
		Assign: func(engine.Addr) string { return "ghost" },
	}
	node, err := NewNode(rt, "self", "", topo)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	rt.Register(engine.RIAddr(1), &relay{to: engine.QMAddr(5)})
	rt.Post(engine.Envelope{From: engine.RIAddr(1), To: engine.RIAddr(1), Msg: model.TickMsg{}})
	time.Sleep(50 * time.Millisecond) // must not panic or block
}

func TestStandardAssign(t *testing.T) {
	f := StandardAssign("client")
	if f(engine.QMAddr(2)) != "site2" || f(engine.RIAddr(0)) != "site0" {
		t.Fatal("site assignment wrong")
	}
	if f(engine.DetectorAddr()) != "site0" {
		t.Fatal("detector must live on site0")
	}
	if f(engine.CollectorAddr()) != "client" || f(engine.DriverAddr(3)) != "client" {
		t.Fatal("client-side assignment wrong")
	}
}

// v2TickStream is, byte for byte, what a wire-v2 dialer wrote on a fresh
// connection: version byte 2, then a gob stream carrying one envelope
// RI(1)→QM(0) TickMsg{Tag: 7} (captured from the last build that spoke v2).
const v2TickStream = "02677f0301010c57697265456e76656c6f706501ff80000107010846726f6d4b696e64010600010646726f6d4944010400010946726f6d53686172640106000106546f4b696e640106000104546f49440104000107546f536861726401060001034d736701100000003fff8002020201031a7563632f696e7465726e616c2f6d6f64656c2e5469636b4d7367ff81030101075469636b4d736701ff820001010103546167010600000007ff820301070000"

// v3TickStream is, byte for byte, what a wire-v3 dialer wrote on a fresh
// connection: version byte 3, then one frame carrying RI(1)→QM(0)
// TickMsg{Tag: 7} (captured from the last build that spoke v3).
const v3TickStream = "03080002000100001307"

// v8TickFrame is, byte for byte, the frame a wire-v4 to v8 dialer wrote for
// RI(1)→QM(0) TickMsg{} (v5 changed only the catch-up records, v6 only the
// queue stats, v7 only the log-shipping pull and reply, and v8 only the
// transaction Seqs and anchor stamps, which a TickMsg does not carry); v9
// retired its tag, 19, with its encoding.
const v8TickFrame = "0401101300"

// v9RequestFrame is, byte for byte, the frame a wire-v9 dialer wrote first
// for RI(1)→QM(0) RequestMsg{Txn: {1, 7}, Copy: {Item: 3}}: the addresses,
// then the tag, where v10's first frame of a tag carries the header byte
// before the addresses (v9 sent every frame v8 sent byte for byte).
const v9RequestFrame = "0e011001020e000600000000000000"

// TestWireVersionRejected: a connection whose first byte is not WireVersion
// is closed before anything behind it reaches a decoder — no ack, nothing
// injected — whether what follows is a well-formed current frame or a real
// v2, v3, v4, v5, v6, v7, v8, v9 or v10 dialer's whole stream. (A v8
// dialer's request frame is byte for byte a v9 one: v9 changed no frame a
// process sends, only which tags exist; and a v10 dialer's is a v11 one:
// v11 changed only the stats report and the log-shipping plane.)
func TestWireVersionRejected(t *testing.T) {
	rt := engine.NewRuntime(engine.FixedLatency{}, 1)
	defer rt.Shutdown()
	topo := Topology{Peers: map[string]string{}, Assign: func(engine.Addr) string { return "x" }}
	node, err := NewNode(rt, "self", "127.0.0.1:0", topo)
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	recv := &recorder{done: make(chan struct{}), want: 1}
	rt.Register(engine.QMAddr(0), recv)

	frame := framesOf(t, engine.Envelope{From: engine.RIAddr(1), To: engine.QMAddr(0),
		Msg: request(model.RequestMsg{Txn: model.TxnID{Site: 1, Seq: 7}, Copy: model.CopyID{Item: 3}})})
	tick, err := hex.DecodeString(v8TickFrame)
	if err != nil {
		t.Fatal(err)
	}
	v9Request, err := hex.DecodeString(v9RequestFrame)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := hex.DecodeString(v2TickStream)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := hex.DecodeString(v3TickStream)
	if err != nil {
		t.Fatal(err)
	}
	streams := map[string][]byte{
		"v2 dialer":               v2,
		"v3 dialer":               v3,
		"v4 dialer":               append([]byte{4}, tick...),
		"v5 dialer":               append([]byte{5}, tick...),
		"v6 dialer":               append([]byte{6}, tick...),
		"v7 dialer":               append([]byte{7}, tick...),
		"v8 dialer":               append([]byte{8}, tick...),
		"v8 dialer's request":     append([]byte{8}, v9Request...),
		"v9 dialer":               append([]byte{9}, v9Request...),
		"v9 dialer, v11 frame":    append([]byte{9}, frame...),
		"v10 dialer":              append([]byte{10}, frame...),
		"byte 3 then v11 frame":   append([]byte{3}, frame...),
		"byte 2 then v11 frame":   append([]byte{2}, frame...),
		"byte 1 then v11 frame":   append([]byte{1}, frame...),
		"ack byte as version":     append([]byte{wireAck}, frame...),
		"v3 ack byte as version":  append([]byte{0xC3}, frame...),
		"v4 ack byte as version":  append([]byte{0xC4}, frame...),
		"v5 ack byte as version":  append([]byte{0xC5}, frame...),
		"v6 ack byte as version":  append([]byte{0xC6}, frame...),
		"v7 ack byte as version":  append([]byte{0xC7}, frame...),
		"v8 ack byte as version":  append([]byte{0xC8}, frame...),
		"v9 ack byte as version":  append([]byte{0xC9}, frame...),
		"v10 ack byte as version": append([]byte{0xCA}, frame...),
		"random byte, v11 frame":  append([]byte{0x5a}, frame...),
	}
	for name, stream := range streams {
		c, err := net.Dial("tcp", node.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(stream); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The listener closes without writing a byte: the read ends in an
		// error (EOF, or a reset when unread input was pending), never data.
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		var b [1]byte
		if n, err := c.Read(b[:]); n != 0 || err == nil {
			t.Fatalf("%s: listener answered %#x", name, b[0])
		} else if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: listener kept the connection open", name)
		}
		c.Close()
	}
	select {
	case <-recv.done:
		t.Fatal("envelope delivered despite version mismatch")
	case <-time.After(100 * time.Millisecond):
	}
	if s := node.Wire().Snapshot(); s.MsgsIn != 0 || s.BytesIn != 0 || s.UnknownIn != 0 {
		t.Fatalf("rejected connections moved the inbound counters: %+v", s)
	}
}

// TestBatchCoalesces: a backlog accumulated while the writer is busy must go
// out in far fewer flushes than envelopes.
func TestBatchCoalesces(t *testing.T) {
	rtA := engine.NewRuntime(engine.FixedLatency{}, 1)
	rtB := engine.NewRuntime(engine.FixedLatency{}, 2)
	defer rtA.Shutdown()
	defer rtB.Shutdown()
	assign := func(a engine.Addr) string { return fmt.Sprintf("site%d", a.ID) }

	nodeB, err := NewNode(rtB, "site1", "127.0.0.1:0", Topology{Peers: map[string]string{}, Assign: assign})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()
	nodeA, err := NewNode(rtA, "site0", "", Topology{
		Peers: map[string]string{"site1": nodeB.Addr()}, Assign: assign,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()
	// A small linger guarantees the backlog accumulates before the first
	// flush even on a fast loopback.
	nodeA.batchDelay = 20 * time.Millisecond

	const total = 400
	recv := &recorder{done: make(chan struct{}), want: total}
	rtB.Register(engine.QMAddr(1), recv)

	for i := 0; i < total; i++ {
		nodeA.forward(engine.Envelope{
			From: engine.RIAddr(0), To: engine.QMAddr(1),
			Msg: request(model.RequestMsg{Txn: model.TxnID{Site: 0, Seq: uint64(i)}, TS: model.Timestamp(i)}),
		})
	}
	select {
	case <-recv.done:
	case <-time.After(10 * time.Second):
		recv.mu.Lock()
		n := len(recv.got)
		recv.mu.Unlock()
		t.Fatalf("timed out: got %d/%d", n, total)
	}
	eventually(t, "the sender to count its batches", func() bool {
		envs, _ := nodeA.BatchStats()
		return envs >= total
	})
	envs, flushes := nodeA.BatchStats()
	if envs != total {
		t.Fatalf("sent %d envelopes, want %d", envs, total)
	}
	if flushes*4 > envs {
		t.Fatalf("batching barely coalesced: %d flushes for %d envelopes", flushes, envs)
	}
	// Order must survive batching.
	recv.mu.Lock()
	defer recv.mu.Unlock()
	for i, m := range recv.got {
		if req := m.(model.RequestMsg); req.Txn.Seq != uint64(i) {
			t.Fatalf("order broken at %d: %+v", i, req)
		}
	}
}

// TestSendQueueCapDropsOldest: while a peer's writer is busy (a long linger
// stands in for a stuck dial or a slow peer), the outbox must stay at its
// cap by discarding the OLDEST envelopes, and the survivors must be the
// newest ones, delivered in order.
func TestSendQueueCapDropsOldest(t *testing.T) {
	assign := func(a engine.Addr) string { return fmt.Sprintf("site%d", a.ID) }
	rtA := engine.NewRuntime(engine.FixedLatency{}, 1)
	rtB := engine.NewRuntime(engine.FixedLatency{}, 2)
	defer rtA.Shutdown()
	defer rtB.Shutdown()

	nodeB, err := NewNode(rtB, "site1", "127.0.0.1:0", Topology{Peers: map[string]string{}, Assign: assign})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()
	nodeA, err := NewNode(rtA, "site0", "", Topology{
		Peers: map[string]string{"site1": nodeB.Addr()}, Assign: assign,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()

	const cap = 16
	const total = 200
	nodeA.SetSendQueueCap(cap)
	// The writer lingers long enough for the whole burst to hit the outbox
	// while it sleeps; only the first (taken) envelope and the newest `cap`
	// can survive.
	nodeA.batchDelay = 300 * time.Millisecond

	recv := &recorder{done: make(chan struct{}), want: cap + 1}
	rtB.Register(engine.QMAddr(1), recv)
	send := func(i int) {
		nodeA.forward(engine.Envelope{
			From: engine.RIAddr(0), To: engine.QMAddr(1),
			Msg: request(model.RequestMsg{Txn: model.TxnID{Site: 0, Seq: uint64(i)}, TS: model.Timestamp(i)}),
		})
	}
	// First envelope alone, and a beat for the writer to take it and enter
	// its linger — then the burst lands entirely in the capped outbox.
	send(0)
	time.Sleep(50 * time.Millisecond)
	for i := 1; i < total; i++ {
		send(i)
	}
	select {
	case <-recv.done:
	case <-time.After(10 * time.Second):
		recv.mu.Lock()
		n := len(recv.got)
		recv.mu.Unlock()
		t.Fatalf("timed out: got %d/%d", n, cap+1)
	}
	// Give any stragglers a beat, then check nothing beyond cap+1 arrived.
	time.Sleep(100 * time.Millisecond)
	recv.mu.Lock()
	defer recv.mu.Unlock()
	if len(recv.got) != cap+1 {
		t.Fatalf("delivered %d envelopes, want %d (cap + the one the writer already held)", len(recv.got), cap+1)
	}
	// Envelope 0 was taken by the writer before the cap engaged; the rest
	// must be the NEWEST cap envelopes, in order.
	if first := recv.got[0].(model.RequestMsg); first.Txn.Seq != 0 {
		t.Fatalf("first delivered = %+v, want seq 0", first)
	}
	for i := 1; i < len(recv.got); i++ {
		want := uint64(total - cap + i - 1)
		if got := recv.got[i].(model.RequestMsg).Txn.Seq; got != want {
			t.Fatalf("survivor %d has seq %d, want %d (drop-oldest violated)", i, got, want)
		}
	}
	dropped, high := nodeA.QueueStats()
	if want := uint64(total - 1 - cap); dropped != want {
		t.Fatalf("dropped = %d, want %d", dropped, want)
	}
	if high > cap {
		t.Fatalf("queue high-water %d exceeded cap %d", high, cap)
	}
}

// TestSendQueueCapEvictionNAKs: an envelope evicted by the send-queue cap
// must not vanish silently — the LOCAL sender receives the evicted message's
// BusyMsg NAK, exactly as if the remote mailbox had refused it
// (engine.Runtime.nak), so the issuing attempt aborts and releases its
// requests at other sites instead of stranding in negotiation forever.
func TestSendQueueCapEvictionNAKs(t *testing.T) {
	assign := func(a engine.Addr) string { return fmt.Sprintf("site%d", a.ID) }
	rtA := engine.NewRuntime(engine.FixedLatency{}, 1)
	rtB := engine.NewRuntime(engine.FixedLatency{}, 2)
	defer rtA.Shutdown()
	defer rtB.Shutdown()

	nodeB, err := NewNode(rtB, "site1", "127.0.0.1:0", Topology{Peers: map[string]string{}, Assign: assign})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()
	nodeA, err := NewNode(rtA, "site0", "", Topology{
		Peers: map[string]string{"site1": nodeB.Addr()}, Assign: assign,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()

	const cap = 16
	const total = 200
	const evictions = total - 1 - cap // writer holds #0; the newest cap survive
	nodeA.SetSendQueueCap(cap)
	nodeA.batchDelay = 300 * time.Millisecond

	rtB.Register(engine.QMAddr(1), &recorder{done: make(chan struct{}), want: 1 << 30})
	// The sender's actor on A receives the NAKs.
	naks := &recorder{done: make(chan struct{}), want: evictions}
	rtA.Register(engine.RIAddr(0), naks)

	send := func(i int) {
		nodeA.forward(engine.Envelope{
			From: engine.RIAddr(0), To: engine.QMAddr(1),
			Msg: request(model.RequestMsg{Txn: model.TxnID{Site: 0, Seq: uint64(i)}, TS: model.Timestamp(i)}),
		})
	}
	send(0)
	time.Sleep(50 * time.Millisecond)
	for i := 1; i < total; i++ {
		send(i)
	}
	select {
	case <-naks.done:
	case <-time.After(10 * time.Second):
		naks.mu.Lock()
		n := len(naks.got)
		naks.mu.Unlock()
		t.Fatalf("timed out: %d/%d NAKs delivered to the sender", n, evictions)
	}
	naks.mu.Lock()
	defer naks.mu.Unlock()
	// Every eviction NAK'd, oldest first, carrying the evicted identity. The
	// expected count is `evictions`, plus one if the writer had not yet taken
	// envelope 0 when the burst landed (then 0 was evicted too) — a timing
	// window the 50ms primer usually, but not provably, closes.
	dropped, _ := nodeA.QueueStats()
	if got := uint64(len(naks.got)); got != dropped {
		t.Fatalf("NAKs delivered = %d, evictions counted = %d (one NAK per eviction)", got, dropped)
	}
	if dropped != uint64(evictions) && dropped != uint64(evictions+1) {
		t.Fatalf("dropped = %d, want %d (or %d if the writer missed envelope 0)",
			dropped, evictions, evictions+1)
	}
	prev := int64(-1)
	for i, m := range naks.got {
		busy, ok := m.(model.BusyMsg)
		if !ok {
			t.Fatalf("sender received %T, want model.BusyMsg", m)
		}
		if seq := int64(busy.Txn.Seq); seq <= prev {
			t.Fatalf("NAK %d carries seq %d after seq %d (oldest-first eviction violated)", i, seq, prev)
		} else {
			prev = seq
		}
	}
	// The newest `cap` envelopes survived: none of them may have been NAK'd.
	if prev >= int64(total-cap) {
		t.Fatalf("NAK for seq %d: a surviving (newest-%d) envelope was evicted", prev, cap)
	}
}

// TestUnreachablePeerNAKsSheddables: a batch dropped because its peer is
// unreachable (dead dial) must NAK its sheddable envelopes back to the
// local sender, just like a cap eviction — a silently dropped RequestMsg
// strands its attempt forever. Completers in the dropped batch stay silent
// (crashed-site semantics).
func TestUnreachablePeerNAKsSheddables(t *testing.T) {
	assign := func(a engine.Addr) string { return fmt.Sprintf("site%d", a.ID) }
	rtA := engine.NewRuntime(engine.FixedLatency{}, 1)
	defer rtA.Shutdown()

	// A port that refuses connections: listen, note the address, close.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	nodeA, err := NewNode(rtA, "site0", "", Topology{
		Peers: map[string]string{"site1": deadAddr}, Assign: assign,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()

	naks := &recorder{done: make(chan struct{}), want: 1}
	rtA.Register(engine.RIAddr(0), naks)

	nodeA.forward(engine.Envelope{
		From: engine.RIAddr(0), To: engine.QMAddr(1),
		Msg: request(model.RequestMsg{Txn: model.TxnID{Site: 0, Seq: 7}}),
	})
	nodeA.forward(engine.Envelope{
		From: engine.RIAddr(0), To: engine.QMAddr(1),
		Msg: model.ReleaseMsg{Txn: model.TxnID{Site: 0, Seq: 8}},
	})
	select {
	case <-naks.done:
	case <-time.After(10 * time.Second):
		t.Fatal("no NAK for a request dropped on an unreachable peer")
	}
	// Let any (wrong) release NAK trail in before checking.
	time.Sleep(200 * time.Millisecond)
	naks.mu.Lock()
	defer naks.mu.Unlock()
	if len(naks.got) != 1 {
		t.Fatalf("sender received %d NAKs, want exactly 1 (only the request is sheddable)", len(naks.got))
	}
	busy, ok := naks.got[0].(model.BusyMsg)
	if !ok || busy.Txn.Seq != 7 {
		t.Fatalf("NAK = %+v, want BusyMsg for the dropped request (seq 7)", naks.got[0])
	}
	// Both dropped envelopes — the NAK'd request and the silent release —
	// count in the drop stats the operator reads.
	if dropped, _ := nodeA.QueueStats(); dropped != 2 {
		t.Fatalf("dropped = %d, want 2 (both envelopes of the dropped batches)", dropped)
	}
}

// TestSendQueueCapSparesCompleters: the cap must never evict
// protocol-completion traffic — a dropped release to a live-but-slow peer
// would strand its locks forever. Requests interleaved with releases are
// evicted; the releases all arrive, even past the cap.
func TestSendQueueCapSparesCompleters(t *testing.T) {
	assign := func(a engine.Addr) string { return fmt.Sprintf("site%d", a.ID) }
	rtA := engine.NewRuntime(engine.FixedLatency{}, 1)
	rtB := engine.NewRuntime(engine.FixedLatency{}, 2)
	defer rtA.Shutdown()
	defer rtB.Shutdown()

	nodeB, err := NewNode(rtB, "site1", "127.0.0.1:0", Topology{Peers: map[string]string{}, Assign: assign})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()
	nodeA, err := NewNode(rtA, "site0", "", Topology{
		Peers: map[string]string{"site1": nodeB.Addr()}, Assign: assign,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()

	const cap = 8
	const releases = 40
	nodeA.SetSendQueueCap(cap)
	nodeA.batchDelay = 300 * time.Millisecond

	recv := &recorder{done: make(chan struct{}), want: 1 << 30}
	rtB.Register(engine.QMAddr(1), recv)

	// Prime the writer with one envelope, then burst releases (completers,
	// never evicted) interleaved with twice as many requests (sheddable).
	nodeA.forward(engine.Envelope{
		From: engine.RIAddr(0), To: engine.QMAddr(1),
		Msg: request(model.RequestMsg{Txn: model.TxnID{Site: 0, Seq: 9999}}),
	})
	time.Sleep(50 * time.Millisecond)
	for i := 0; i < releases; i++ {
		nodeA.forward(engine.Envelope{
			From: engine.RIAddr(0), To: engine.QMAddr(1),
			Msg: model.ReleaseMsg{Txn: model.TxnID{Site: 0, Seq: uint64(i)}},
		})
		for j := 0; j < 2; j++ {
			nodeA.forward(engine.Envelope{
				From: engine.RIAddr(0), To: engine.QMAddr(1),
				Msg: request(model.RequestMsg{Txn: model.TxnID{Site: 0, Seq: uint64(1000 + i*2 + j)}}),
			})
		}
	}
	// Every release must arrive, however many requests were evicted.
	deadline := time.Now().Add(10 * time.Second)
	for {
		recv.mu.Lock()
		got := 0
		for _, m := range recv.got {
			if _, ok := m.(model.ReleaseMsg); ok {
				got++
			}
		}
		recv.mu.Unlock()
		if got == releases {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("releases delivered = %d, want %d (completers must never be evicted)", got, releases)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if dropped, _ := nodeA.QueueStats(); dropped == 0 {
		t.Fatal("no requests were evicted; the cap never engaged and the test proved nothing")
	}
}

// TestSendDuringReconnect is the regression test for the retired-connection
// interleaving hazard: while a sender hammers envelopes, the receiving node
// is torn down and rebuilt on the same address. A retired connection's
// half-written frame must never corrupt the replacement connection's
// stream — every envelope that arrives (on either incarnation) must decode
// intact; losses are allowed (the peer was down), corruption is not. Run
// under -race this also hammers the writer/dialer/close interleavings.
//
// It is the lifetime test of the retry as well. The requests are pooled and
// every field of one is derived from its (sender, sequence number), so each
// message is distinct and checkable on its own: a batch recycled before its
// retry on the fresh dial would arrive zeroed (RecycleMessage clears the
// struct), or — once the pool has handed the struct to another sender —
// carrying a later message out of order, or a mix of two.
//
// The sender also runs with a send-queue cap: the cap must hold across the
// bounce — the outage is exactly when an unbounded outbox would balloon —
// without breaking redelivery to the replacement incarnation.
func TestSendDuringReconnect(t *testing.T) {
	// reconnectRequest is sender s's i-th request.
	reconnectRequest := func(s, i int) model.RequestMsg {
		return model.RequestMsg{
			Txn:     model.TxnID{Site: model.SiteID(s), Seq: uint64(i)},
			Attempt: model.Attempt(i*8 + s),
			Kind:    model.OpWrite,
			Copy:    model.CopyID{Item: model.ItemID(i*8 + s), Site: 1},
			TS:      model.Timestamp(i),
			Site:    model.SiteID(s),
		}
	}
	const sendCap = 256
	assign := func(a engine.Addr) string { return fmt.Sprintf("site%d", a.ID) }
	rtA := engine.NewRuntime(engine.FixedLatency{}, 1)
	defer rtA.Shutdown()

	// First incarnation of the receiver, on a kernel-chosen port we reuse.
	rtB1 := engine.NewRuntime(engine.FixedLatency{}, 2)
	nodeB1, err := NewNode(rtB1, "site1", "127.0.0.1:0", Topology{Peers: map[string]string{}, Assign: assign})
	if err != nil {
		t.Fatal(err)
	}
	addr := nodeB1.Addr()
	recv1 := &recorder{done: make(chan struct{}), want: 1 << 30}
	rtB1.Register(engine.QMAddr(1), recv1)

	nodeA, err := NewNode(rtA, "site0", "", Topology{
		Peers: map[string]string{"site1": addr}, Assign: assign,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()
	nodeA.SetSendQueueCap(sendCap)

	// Hammer from several goroutines through the node's uplink while the
	// receiver bounces; they keep sending until the replacement has provably
	// received traffic. Each sender tags its envelopes so intactness is
	// checkable per message.
	const senders = 4
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 1; ; i++ { // from 1: a zeroed message names no request that was sent
				select {
				case <-stop:
					return
				default:
				}
				nodeA.forward(engine.Envelope{
					From: engine.RIAddr(0), To: engine.QMAddr(1),
					Msg: request(reconnectRequest(s, i)),
				})
				if i%64 == 0 {
					time.Sleep(time.Millisecond) // let batches form and the dialer breathe
				}
			}
		}(s)
	}

	// Bounce the receiver mid-stream.
	time.Sleep(30 * time.Millisecond)
	nodeB1.Close()
	rtB1.Shutdown()

	var nodeB2 *Node
	var rtB2 *engine.Runtime
	recv2 := &recorder{done: make(chan struct{}), want: 1 << 30}
	for retry := 0; retry < 50; retry++ {
		rtB2 = engine.NewRuntime(engine.FixedLatency{}, 3)
		nodeB2, err = NewNode(rtB2, "site1", addr, Topology{Peers: map[string]string{}, Assign: assign})
		if err == nil {
			break
		}
		rtB2.Shutdown()
		time.Sleep(20 * time.Millisecond) // TIME_WAIT on the fixed port
	}
	if err != nil {
		t.Fatalf("could not rebind %s: %v", addr, err)
	}
	defer nodeB2.Close()
	defer rtB2.Shutdown()
	rtB2.Register(engine.QMAddr(1), recv2)

	// Keep hammering until the replacement incarnation has received a real
	// burst (proof the sender redialed and restarted a clean stream).
	deadline := time.After(15 * time.Second)
	for {
		recv2.mu.Lock()
		n := len(recv2.got)
		recv2.mu.Unlock()
		if n >= 500 {
			break
		}
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			t.Fatalf("replacement node received only %d envelopes", n)
		case <-time.After(10 * time.Millisecond):
		}
	}
	close(stop)
	wg.Wait()
	// Let in-flight batches land.
	time.Sleep(300 * time.Millisecond)

	check := func(name string, r *recorder) int {
		r.mu.Lock()
		defer r.mu.Unlock()
		lastSeq := map[model.SiteID]uint64{}
		for i, m := range r.got {
			req, ok := m.(model.RequestMsg)
			if !ok {
				t.Fatalf("%s: message %d has type %T (stream corrupted)", name, i, m)
			}
			if req != reconnectRequest(int(req.Txn.Site), int(req.Txn.Seq)) || req.Txn.Seq == 0 {
				t.Fatalf("%s: message %d is not one that was sent: %+v", name, i, req)
			}
			// Per-sender FIFO must hold within one incarnation: batching and
			// reconnection may drop or (across the bounce) duplicate, but
			// never reorder one sender's stream.
			if prev, ok := lastSeq[req.Txn.Site]; ok && req.Txn.Seq < prev {
				t.Fatalf("%s: sender %d reordered: %d after %d", name, req.Txn.Site, req.Txn.Seq, prev)
			}
			lastSeq[req.Txn.Site] = req.Txn.Seq
		}
		return len(r.got)
	}
	n1 := check("incarnation1", recv1)
	n2 := check("incarnation2", recv2)
	if n2 == 0 {
		t.Fatal("replacement node received nothing; reconnect path unexercised")
	}
	// The cap must have held throughout — including while the peer was down
	// and the writer was redialing, the window where the outbox grows
	// fastest. Drop accounting keeps meaning across the reconnect.
	dropped, high := nodeA.QueueStats()
	if high > sendCap {
		t.Fatalf("send-queue high-water %d exceeded cap %d across the bounce", high, sendCap)
	}
	t.Logf("reconnect hammer: %d envelopes before bounce, %d after, %d dropped at the cap (high %d)",
		n1, n2, dropped, high)
}

// TestReconnectStartsFreshStream: a batch retried on a fresh dial delivers
// every Seq and stamp exactly. The first connection's frames leave both
// ends' stream state far from a fresh one's. The receiver then drops that
// connection; once the sender has seen it close, the next batch fails on it
// and is re-sent whole on a fresh dial, whose frame writer and reader both
// start from a fresh stream state.
func TestReconnectStartsFreshStream(t *testing.T) {
	const (
		per  = 16
		wall = 1_760_000_000_000_000
	)
	req := func(i int) model.RequestMsg {
		return model.RequestMsg{Txn: model.TxnID{Site: 0, Seq: 1_000_000 + 3*uint64(i)}, Attempt: 1, Protocol: model.TO,
			Kind: model.OpWrite, Copy: model.CopyID{Item: model.ItemID(i), Site: 1}, TS: model.Timestamp(wall + 150*i)}
	}
	rtA := engine.NewRuntime(engine.FixedLatency{}, 1)
	rtB := engine.NewRuntime(engine.FixedLatency{}, 2)
	defer rtA.Shutdown()
	defer rtB.Shutdown()
	nodeB, err := NewNode(rtB, "site1", "127.0.0.1:0", Topology{Peers: map[string]string{}, Assign: siteAssign})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()
	nodeA, err := NewNode(rtA, "site0", "", Topology{Peers: map[string]string{"site1": nodeB.Addr()}, Assign: siteAssign})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeA.Close()
	recv := &recorder{done: make(chan struct{}), want: 2 * per}
	rtB.Register(engine.QMAddr(1), recv)
	send := func(from, to int) {
		for i := from; i < to; i++ {
			nodeA.forward(engine.Envelope{From: engine.RIAddr(0), To: engine.QMAddr(1), Msg: request(req(i))})
		}
	}

	send(0, per)
	eventually(t, "the first connection's envelopes", func() bool {
		recv.mu.Lock()
		defer recv.mu.Unlock()
		return len(recv.got) == per
	})
	nodeB.mu.Lock()
	for c := range nodeB.inbound {
		c.Close()
	}
	nodeB.mu.Unlock()
	eventually(t, "the sender to see its connection close", func() bool {
		nodeA.mu.Lock()
		defer nodeA.mu.Unlock()
		return len(nodeA.outbound) == 0
	})
	send(per, 2*per)
	waitRecorder(t, recv, "the batch retried on a fresh dial")

	recv.mu.Lock()
	defer recv.mu.Unlock()
	for i, m := range recv.got {
		if got, ok := m.(model.RequestMsg); !ok || got != req(i) {
			t.Fatalf("message %d: %T %+v, want %+v", i, m, m, req(i))
		}
	}
	if s := nodeA.Wire().Snapshot(); s.ConnsOut != 2 {
		t.Fatalf("ConnsOut=%d, want the second batch on a second connection", s.ConnsOut)
	}
	if dropped, _ := nodeA.QueueStats(); dropped != 0 {
		t.Fatalf("droppedSends=%d, want the batch retried, not dropped", dropped)
	}
}
