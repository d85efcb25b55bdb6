package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/wire"
)

func siteAssign(a engine.Addr) string { return fmt.Sprintf("site%d", a.ID) }

func waitRecorder(t *testing.T, r *recorder, what string) {
	t.Helper()
	select {
	case <-r.done:
	case <-time.After(10 * time.Second):
		r.mu.Lock()
		n := len(r.got)
		r.mu.Unlock()
		t.Fatalf("%s: timed out with %d/%d messages", what, n, r.want)
	}
}

// frameOf length-prefixes an encoded envelope payload, as wire.Writer does.
func frameOf(payload []byte) []byte {
	return append(model.AppendUvarint(nil, uint64(len(payload))), payload...)
}

// framesOf is envs framed through one wire.Writer, as the start of a fresh
// connection carries them.
func framesOf(t *testing.T, envs ...engine.Envelope) []byte {
	t.Helper()
	var sink bytes.Buffer
	bw := bufio.NewWriter(&sink)
	w := wire.NewWriter(bw)
	defer w.Release()
	for _, env := range envs {
		if _, err := w.WriteEnvelope(env); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return sink.Bytes()
}

// eventually polls cond for up to 10 s. Sender-side counters need it: the
// writer bumps them after the flush returns, so the receiver can see a batch
// before its sender has counted it.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestHandshakeThenFramedTraffic: a dialer and a listener complete the
// version-byte/ack handshake once, and the codec counters show framed
// traffic on both ends of that one connection.
func TestHandshakeThenFramedTraffic(t *testing.T) {
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

	const total = 50
	recv := &recorder{done: make(chan struct{}), want: total}
	rtB.Register(engine.QMAddr(1), recv)
	for i := 0; i < total; i++ {
		nodeA.forward(engine.Envelope{
			From: engine.RIAddr(0), To: engine.QMAddr(1),
			Msg: request(model.RequestMsg{Txn: model.TxnID{Site: 0, Seq: uint64(i)}, TS: model.Timestamp(i)}),
		})
	}
	waitRecorder(t, recv, "framed traffic")
	b := nodeB.Wire().Snapshot()
	if b.MsgsIn != total || b.BytesIn == 0 {
		t.Fatalf("receiver counted %d msgs / %d B, want %d msgs", b.MsgsIn, b.BytesIn, total)
	}
	eventually(t, "both ends to agree on frame messages and bytes", func() bool {
		a := nodeA.Wire().Snapshot()
		return a.MsgsOut == total && a.BytesOut == b.BytesIn
	})
	if a := nodeA.Wire().Snapshot(); a.ConnsOut != 1 {
		t.Fatalf("ConnsOut=%d, want one handshake for one peer", a.ConnsOut)
	}
}

// stubPeer is a listener that is not a wire-v11 node: it accepts connections
// and hands each to serve, which misbehaves in one specific way. Every
// accepted connection is closed with the stub.
type stubPeer struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func newStubPeer(t *testing.T, serve func(net.Conn)) *stubPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &stubPeer{ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			p.conns = append(p.conns, c)
			p.mu.Unlock()
			go serve(c)
		}
	}()
	return p
}

func (p *stubPeer) Close() {
	p.ln.Close()
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

// readVersionThen consumes the dialer's version byte, then answers with
// reply (nil = say nothing) and holds the connection open.
func readVersionThen(reply []byte) func(net.Conn) {
	return func(c net.Conn) {
		var vb [1]byte
		if _, err := io.ReadFull(c, vb[:]); err != nil {
			return
		}
		c.Write(reply)
	}
}

// TestFailedHandshakeIsAFailedConnect: a peer that accepts the TCP
// connection but is not a wire-v11 listener — it closes on the version byte,
// never acks, acks the wrong byte, or acks as a v3, v4, v5, v6, v7, v8, v9 or
// v10 listener does — fails the dial like an unreachable peer does: connect gives up within
// handshakeTimeout, the queued request comes back to its local sender as its
// BusyMsg NAK, QueueStats counts the drop, no handshake is counted. A real
// node that later takes over the address is picked up by the next send,
// because every dial starts over.
func TestFailedHandshakeIsAFailedConnect(t *testing.T) {
	old := handshakeTimeout
	handshakeTimeout = 100 * time.Millisecond
	// Registered before any node exists, so it runs after every deferred
	// Close below has waited out the writer goroutines that read the var.
	t.Cleanup(func() { handshakeTimeout = old })

	for name, serve := range map[string]func(net.Conn){
		"closes on the version byte": func(c net.Conn) { c.Close() },
		"never acks":                 readVersionThen(nil),
		"acks the wrong byte":        readVersionThen([]byte{2}),
		"acks as a v3 listener":      readVersionThen([]byte{0xC3}),
		"acks as a v4 listener":      readVersionThen([]byte{0xC4}),
		"acks as a v5 listener":      readVersionThen([]byte{0xC5}),
		"acks as a v6 listener":      readVersionThen([]byte{0xC6}),
		"acks as a v7 listener":      readVersionThen([]byte{0xC7}),
		"acks as a v8 listener":      readVersionThen([]byte{0xC8}),
		"acks as a v9 listener":      readVersionThen([]byte{0xC9}),
		"acks as a v10 listener":     readVersionThen([]byte{0xCA}),
	} {
		t.Run(name, func(t *testing.T) {
			rtA := engine.NewRuntime(engine.FixedLatency{}, 1)
			defer rtA.Shutdown()
			stub := newStubPeer(t, serve)
			defer stub.Close()
			addr := stub.ln.Addr().String()

			nodeA, err := NewNode(rtA, "site0", "", Topology{Peers: map[string]string{"site1": addr}, Assign: siteAssign})
			if err != nil {
				t.Fatal(err)
			}
			defer nodeA.Close()
			naks := &recorder{done: make(chan struct{}), want: 1}
			rtA.Register(engine.RIAddr(0), naks)

			txn := model.TxnID{Site: 0, Seq: 7}
			start := time.Now()
			nodeA.forward(engine.Envelope{
				From: engine.RIAddr(0), To: engine.QMAddr(1),
				Msg: request(model.RequestMsg{Txn: txn, Attempt: 3}),
			})
			// Well under the 3 s production timeout: the shortened
			// handshakeTimeout is what bounds the stalled cases.
			select {
			case <-naks.done:
			case <-time.After(2 * time.Second):
				t.Fatalf("no NAK %v after the send: connect is still waiting on the handshake", time.Since(start))
			}
			naks.mu.Lock()
			busy, ok := naks.got[0].(model.BusyMsg)
			naks.mu.Unlock()
			if !ok || busy.Txn != txn || busy.Attempt != 3 {
				t.Fatalf("sender received %T %+v, want the request's BusyMsg", naks.got[0], naks.got[0])
			}
			if dropped, _ := nodeA.QueueStats(); dropped != 1 {
				t.Fatalf("dropped = %d, want 1", dropped)
			}
			if s := nodeA.Wire().Snapshot(); s.ConnsOut != 0 || s.MsgsOut != 0 {
				t.Fatalf("a failed handshake counted as a connection: %+v", s)
			}

			// A real node takes over the address.
			stub.Close()
			rtB := engine.NewRuntime(engine.FixedLatency{}, 2)
			defer rtB.Shutdown()
			var nodeB *Node
			for retry := 0; retry < 50; retry++ {
				if nodeB, err = NewNode(rtB, "site1", addr, Topology{Peers: map[string]string{}, Assign: siteAssign}); err == nil {
					break
				}
				time.Sleep(20 * time.Millisecond) // the stub's port is still releasing
			}
			if err != nil {
				t.Fatalf("could not rebind %s: %v", addr, err)
			}
			defer nodeB.Close()
			recv := &recorder{done: make(chan struct{}), want: 1}
			rtB.Register(engine.QMAddr(1), recv)
			nodeA.forward(engine.Envelope{
				From: engine.RIAddr(0), To: engine.QMAddr(1),
				Msg: request(model.RequestMsg{Txn: model.TxnID{Site: 0, Seq: 8}}),
			})
			waitRecorder(t, recv, "first send after a real peer took the address")
			if s := nodeA.Wire().Snapshot(); s.ConnsOut != 1 {
				t.Fatalf("ConnsOut=%d after the real peer came up, want 1", s.ConnsOut)
			}
		})
	}
}

// memberNAKs checks the BusyMsgs that answer one request batch, member by
// member, as they arrive on its mailbox goroutine: done closes once every
// member has had its NAK, and a TickMsg closes marked, after which bad counts
// the messages that answered no member or one twice. The batch's items are
// base, base+1, ... so a NAK names its member by its copy's item.
type memberNAKs struct {
	batch        model.RequestBatchMsg
	base         model.ItemID
	seen         []bool
	left, bad    int
	done, marked chan struct{}
}

func (c *memberNAKs) OnMessage(_ engine.Context, _ engine.Addr, msg model.Message) {
	if _, ok := msg.(model.TickMsg); ok {
		close(c.marked)
		return
	}
	busy, ok := msg.(*model.BusyMsg)
	if !ok {
		c.bad++
		return
	}
	i := int(busy.Copy.Item - c.base)
	if i < 0 || i >= len(c.seen) || c.seen[i] || *busy != *c.batch.Busy(i).(*model.BusyMsg) {
		c.bad++
		return
	}
	c.seen[i] = true
	if c.left--; c.left == 0 {
		close(c.done)
	}
}

// TestEncodeFailureNAKsSheddable: a per-envelope encode failure — a request
// batch whose frame is over MaxFrameBytes — must behave like every other
// transport drop: one BusyMsg per member NAK'd back to the local sender
// (silence would strand the attempt in negotiation forever), counted dropped
// and NOT counted sent, while the stream stays alive for the rest of the
// batch.
func TestEncodeFailureNAKsSheddable(t *testing.T) {
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

	// Each member encodes to six bytes, a five-byte item varint and its kind,
	// so this many put the frame just past the cap.
	const base = model.ItemID(1 << 28)
	huge := model.RequestBatchMsg{Txn: model.TxnID{Site: 0, Seq: 9}, Attempt: 2, CopySite: 1,
		Members: make([]model.RequestMember, wire.MaxFrameBytes/6+1)}
	for i := range huge.Members {
		huge.Members[i].Item = base + model.ItemID(i)
	}
	naks := &memberNAKs{batch: huge, base: base, seen: make([]bool, len(huge.Members)),
		left: len(huge.Members), done: make(chan struct{}), marked: make(chan struct{})}
	rtA.Register(engine.RIAddr(0), naks)
	okRecv := &recorder{done: make(chan struct{}), want: 1}
	rtB.Register(engine.QMAddr(1), okRecv)

	nodeA.forward(engine.Envelope{From: engine.RIAddr(0), To: engine.QMAddr(1), Msg: huge})
	nodeA.forward(engine.Envelope{
		From: engine.RIAddr(0), To: engine.QMAddr(1),
		Msg: request(model.RequestMsg{Txn: model.TxnID{Site: 0, Seq: 10}}),
	})

	waitRecorder(t, okRecv, "good envelope after the encode drop")
	select {
	case <-naks.done:
	case <-time.After(30 * time.Second):
		t.Fatal("not every member of the oversized batch was NAK'd")
	}
	eventually(t, "the sender to count its batch", func() bool {
		_, flushes := nodeA.BatchStats()
		return flushes > 0
	})
	// The batch is written, so every NAK it drew is in the sender's mailbox,
	// ahead of this marker.
	rtA.Post(engine.Envelope{From: engine.RIAddr(0), To: engine.RIAddr(0), Msg: model.TickMsg{}})
	select {
	case <-naks.marked:
	case <-time.After(10 * time.Second):
		t.Fatal("the marker never reached the sender")
	}
	if naks.bad != 0 {
		t.Fatalf("the sender got %d NAKs that answer no member, or answer one twice", naks.bad)
	}
	if dropped, _ := nodeA.QueueStats(); dropped != 1 {
		t.Fatalf("droppedSends=%d, want 1", dropped)
	}
	if s := nodeA.Wire().Snapshot(); s.MsgsOut != 1 {
		t.Fatalf("MsgsOut=%d counted the dropped envelope as sent", s.MsgsOut)
	}
	if envs, _ := nodeA.BatchStats(); envs != 1 {
		t.Fatalf("BatchStats envelopes=%d counted the dropped envelope as sent", envs)
	}
}

// TestEncodeFailureLeavesNoStreamTrace: the envelope after an unencodable
// one decodes exactly as sent. The unencodable release batch — its frame
// over MaxFrameBytes, a completer, so nothing is NAK'd — carries a Seq and
// a commit stamp far from its neighbours', which its encode got as far as
// coding before the size check refused it. A writer that kept that stream
// state would code the next envelope against a state its reader never saw.
func TestEncodeFailureLeavesNoStreamTrace(t *testing.T) {
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
	recv := &recorder{done: make(chan struct{}), want: 2}
	rtB.Register(engine.QMAddr(1), recv)

	const wall = 1_760_000_000_000_000
	sent := []model.RequestMsg{
		{Txn: model.TxnID{Site: 0, Seq: 1_000_000}, Protocol: model.TO, Copy: model.CopyID{Item: 4, Site: 1}, TS: wall},
		{Txn: model.TxnID{Site: 0, Seq: 1_000_003}, Protocol: model.TO, Copy: model.CopyID{Item: 5, Site: 1}, TS: wall + 180},
	}
	// Each member encodes to seven bytes, a five-byte item varint, its flag
	// and its value, so this many put the frame just past the cap.
	huge := model.ReleaseBatchMsg{Txn: model.TxnID{Site: 0, Seq: 7_000_000}, CopySite: 1, CommitMicros: wall + 90_000_000,
		Members: make([]model.ReleaseMember, wire.MaxFrameBytes/7+1)}
	for i := range huge.Members {
		huge.Members[i].Item = 1<<28 + model.ItemID(i)
	}
	to := func(m model.Message) engine.Envelope {
		return engine.Envelope{From: engine.RIAddr(0), To: engine.QMAddr(1), Msg: m}
	}
	nodeA.forward(to(request(sent[0])))
	nodeA.forward(to(huge))
	nodeA.forward(to(request(sent[1])))

	waitRecorder(t, recv, "the envelopes around the encode drop")
	recv.mu.Lock()
	defer recv.mu.Unlock()
	for i, m := range recv.got {
		if req, ok := m.(model.RequestMsg); !ok || req != sent[i] {
			t.Fatalf("message %d: %T %+v, want %+v", i, m, m, sent[i])
		}
	}
	if dropped, _ := nodeA.QueueStats(); dropped != 1 {
		t.Fatalf("droppedSends=%d, want the one unencodable envelope", dropped)
	}
}

// TestLocalMessageToPeerRefused: a process-local message addressed to a
// peer is refused at the writer, never sent. The tick between two requests
// is dropped and counted like any unencodable envelope, it reaches no actor
// at the peer, and the requests around it, whose Seqs and stamps are coded
// against each other, decode exactly as sent.
func TestLocalMessageToPeerRefused(t *testing.T) {
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
	recv := &recorder{done: make(chan struct{}), want: 2}
	rtB.Register(engine.QMAddr(1), recv)

	const wall = 1_760_000_000_000_000
	sent := []model.RequestMsg{
		{Txn: model.TxnID{Site: 0, Seq: 1_000_000}, Protocol: model.TO, Copy: model.CopyID{Item: 4, Site: 1}, TS: wall},
		{Txn: model.TxnID{Site: 0, Seq: 1_000_005}, Protocol: model.TO, Copy: model.CopyID{Item: 5, Site: 1}, TS: wall + 260},
	}
	to := func(m model.Message) engine.Envelope {
		return engine.Envelope{From: engine.RIAddr(0), To: engine.QMAddr(1), Msg: m}
	}
	nodeA.forward(to(request(sent[0])))
	nodeA.forward(to(model.TickMsg{Tag: 7}))
	nodeA.forward(to(request(sent[1])))

	waitRecorder(t, recv, "the requests around the tick")
	recv.mu.Lock()
	defer recv.mu.Unlock()
	for i, m := range recv.got {
		if req, ok := m.(model.RequestMsg); !ok || req != sent[i] {
			t.Fatalf("message %d: %T %+v, want %+v", i, m, m, sent[i])
		}
	}
	if dropped, _ := nodeA.QueueStats(); dropped != 1 {
		t.Fatalf("droppedSends=%d, want the one process-local envelope", dropped)
	}
}

// TestUnknownTagFrameSkipped: a frame carrying a message tag from a NEWER
// build, or a retired tag, must be skipped — frames are length-prefixed
// precisely so the stream survives — with the surrounding known frames
// delivered in order. Severing would drop whole batches and redial-loop a
// mixed-build fleet during a rolling upgrade.
func TestUnknownTagFrameSkipped(t *testing.T) {
	rtB := engine.NewRuntime(engine.FixedLatency{}, 2)
	defer rtB.Shutdown()
	nodeB, err := NewNode(rtB, "site1", "127.0.0.1:0", Topology{Peers: map[string]string{}, Assign: siteAssign})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeB.Close()

	recv := &recorder{done: make(chan struct{}), want: 2}
	rtB.Register(engine.QMAddr(1), recv)

	// Speak the wire by hand: version byte, consume the ack, then four frames
	// — known, unknown-tag (a future build's message), retired-tag (tag 20,
	// ComputeDoneMsg's until v9), known.
	c, err := net.Dial("tcp", nodeB.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte{WireVersion}); err != nil {
		t.Fatal(err)
	}
	var ack [1]byte
	if _, err := c.Read(ack[:]); err != nil || ack[0] != wireAck {
		t.Fatalf("no ack: %v %x", err, ack)
	}
	// The known frames carry Seqs and stamps of their own, the second coded
	// against the first: skipping the future and retired frames must leave
	// the reader's stream state where the first left it. The retired frame's
	// body is what v8 coded for ComputeDoneMsg{Txn: {0, 1_000_003},
	// Attempt: 1}: a Seq delta that would move the state if it were read.
	sent := []model.RequestMsg{
		{Txn: model.TxnID{Site: 0, Seq: 1_000_000}, Protocol: model.TO, Kind: model.OpWrite,
			Copy: model.CopyID{Item: 4, Site: 1}, TS: 1_760_000_000_000_000},
		{Txn: model.TxnID{Site: 0, Seq: 1_000_007}, Protocol: model.TO,
			Copy: model.CopyID{Item: 5, Site: 1}, TS: 1_760_000_000_000_250},
	}
	known := framesOf(t,
		engine.Envelope{From: engine.RIAddr(0), To: engine.QMAddr(1), Msg: request(sent[0])},
		engine.Envelope{From: engine.RIAddr(0), To: engine.QMAddr(1), Msg: request(sent[1])})
	n, k := binary.Uvarint(known)
	first := k + int(n)
	// The future frame: tag 63, the last a header holds, its addresses left
	// out as a newer build's later frame of the tag has them, arbitrary
	// body. The retired frame: tag 20 with both addresses explicit (the
	// header byte 0xC0|20), RI(1) → QM(2). The second known frame leaves
	// its addresses out, so it decodes as sent only if neither skipped
	// frame moved what the first known frame left.
	future := frameOf([]byte{63, 0xde, 0xad, 0xbe, 0xef})
	retired := frameOf([]byte{0xC0 | 20, 0x01, 0x12, 0x00, 0x06, 0x01})
	var stream []byte
	stream = append(stream, known[:first]...)
	stream = append(stream, future...)
	stream = append(stream, retired...)
	stream = append(stream, known[first:]...)
	if _, err := c.Write(stream); err != nil {
		t.Fatal(err)
	}
	waitRecorder(t, recv, "frames around the unknown tag")
	recv.mu.Lock()
	defer recv.mu.Unlock()
	for i, m := range recv.got {
		if req, ok := m.(model.RequestMsg); !ok || req != sent[i] {
			t.Fatalf("message %d: %T %+v, want %+v", i, m, m, sent[i])
		}
	}
	s := nodeB.Wire().Snapshot()
	if s.UnknownIn != 2 {
		t.Fatalf("UnknownIn=%d, want 2", s.UnknownIn)
	}
	if s.MsgsIn != 2 {
		t.Fatalf("MsgsIn=%d counted the skipped frame", s.MsgsIn)
	}
}
