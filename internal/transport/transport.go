package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"iter"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ucc/internal/engine"
	"ucc/internal/metrics"
	"ucc/internal/model"
	"ucc/internal/wire"
)

// WireVersion is the first byte a dialer writes on a fresh connection:
// version 3, the hand-rolled binary codec (internal/wire) — length-prefixed
// frames of explicitly-encoded envelopes, no reflection, pooled buffers. A
// reader that sees any other version byte closes the connection instead of
// feeding misframed bytes to a decoder.
const WireVersion byte = 3

// wireAckV3 is the single byte a listener writes back after reading the
// version byte. A dialer sends nothing until it has read it: a peer that
// closes, stalls, or answers anything else is not a wire-v3 node, and the
// dial fails.
const wireAckV3 byte = 0xC3

// handshakeTimeout bounds the dialer's wait for the ack. A live peer acks in
// one RTT, so this only fires against something that accepted the connection
// and then stalled.
var handshakeTimeout = 3 * time.Second

// defaultBatchBytes is the mid-batch flush threshold: while draining a large
// backlog the writer flushes whenever this much is buffered, bounding memory
// and keeping the pipe busy instead of building one giant frame.
const defaultBatchBytes = 64 << 10

// Topology statically assigns every actor address to a named peer.
type Topology struct {
	// Peers maps peer name → TCP address.
	Peers map[string]string
	// Assign returns the peer name hosting an actor address. It must be a pure
	// function of the address: a Node asks once per destination and remembers
	// the answer for as long as it lives.
	Assign func(engine.Addr) string
}

// ParsePeerList splits a comma-separated site address list (index = site
// id): at least one entry, none empty, whitespace trimmed.
func ParsePeerList(csv string) ([]string, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, fmt.Errorf("transport: peer list is empty")
	}
	parts := strings.Split(csv, ",")
	out := make([]string, len(parts))
	for i, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("transport: peer list entry %d is empty", i)
		}
		out[i] = p
	}
	return out, nil
}

// StandardTopology builds the topology cmd/uccnode and cmd/uccclient share:
// site i's actors on peer "site<i>", the collector (plus drivers and
// anything unknown) on "client". clientAddr may be empty for a node that
// has not yet learned the client's address (the client connects inbound).
func StandardTopology(peers []string, clientAddr string) Topology {
	topo := Topology{
		Peers:  map[string]string{},
		Assign: StandardAssign("client"),
	}
	for i, addr := range peers {
		topo.Peers[fmt.Sprintf("site%d", i)] = addr
	}
	if clientAddr != "" {
		topo.Peers["client"] = clientAddr
	}
	return topo
}

// StandardAssign places QM(i)/RI(i)/Driver(i) on peer "site<i>" (every QM
// shard of a site lives with the site), the deadlock detector on "site0",
// and the collector (plus anything unknown) on clientPeer — the layout
// cmd/uccnode and cmd/uccclient use.
func StandardAssign(clientPeer string) func(engine.Addr) string {
	return func(a engine.Addr) string {
		switch a.Kind {
		case engine.KindQM, engine.KindRI:
			return fmt.Sprintf("site%d", a.ID)
		case engine.KindDetector:
			return "site0"
		default:
			return clientPeer
		}
	}
}

// Node connects one process's runtime to the topology.
//
// Outbound wire path: envelopes for a peer are enqueued on that peer's
// outbox and drained by one writer goroutine, which encodes every queued
// envelope as a wire-v3 frame into a buffered writer and flushes once per
// drained batch (or at defaultBatchBytes mid-batch) — one write instead of one
// syscall-sized write per envelope. Under load the batch size grows
// naturally; when idle, a lone envelope flushes immediately, adding no
// latency.
//
// Message ownership: the node is the runtime's uplink, so it owns every
// message it is handed (engine.Runtime.SetUplink) and nothing is copied on
// the way through. A pooled message stays in its envelope on the outbox and
// goes back to its pool (model.RecycleMessage) at the point the envelope
// leaves this node for good: after the writer's final outcome for its batch
// (flushed, or dropped and NAK'd), or where it is removed from the outbox
// (cap eviction, unencodable). Inbound, the read loop decodes into the same
// pools and the runtime's mailbox loop recycles.
type Node struct {
	self string
	topo Topology
	rt   *engine.Runtime
	// batchDelay, when positive, makes the writer linger once per batch before
	// framing it. Only this package's tests set it: it is their way to hold
	// the writer so outbox depth is deterministic.
	batchDelay time.Duration

	// routes remembers what each destination address resolved to: its peer's
	// sender, or nil for an address this node hosts itself. The map is never
	// written in place — resolve replaces it under mu — so forward reads it
	// with one atomic load and the steady-state send takes only the peer's own
	// lock. Entries appear on the first send to an address and never change
	// (Topology.Assign is static).
	routes atomic.Pointer[map[engine.Addr]*peerSender]

	mu       sync.Mutex
	senders  map[string]*peerSender
	outbound map[net.Conn]bool
	inbound  map[net.Conn]bool
	ln       net.Listener
	closed   bool
	wg       sync.WaitGroup

	// sendQueueCap bounds each peer outbox (0 = unbounded): when an enqueue
	// would exceed it, the OLDEST queued sheddable envelope is dropped to
	// make room and its BusyMsg NAK is injected back to the local sender —
	// the same refusal the engine delivers for a full mailbox, so the
	// issuer's attempt aborts (releasing its requests elsewhere) instead of
	// stranding in negotiation. Oldest-first is the right policy for this
	// protocol: a stale request is re-sent by its issuer's restart machinery
	// anyway, while the newest traffic is most likely to still matter. Only
	// sheddable messages
	// (model.Sheddable — new-work openers) are ever evicted, mirroring the
	// engine's mailbox policy: dropping a release or grant to a live-but-slow
	// peer would strand its locks forever, so completer traffic rides past
	// the cap (it is protocol-bounded by the in-flight work the openers
	// admitted). The cap counts only the outbox — a batch the writer has
	// already taken (and may be retrying across a reconnect) is in flight,
	// not queued, so a reconnect cannot double-shrink the budget or lose
	// accounting. Atomic because forward reads it without the node lock while
	// cmd/uccnode sets it on a node that is already listening.
	sendQueueCap atomic.Int64

	// Batching observability (tests, diagnostics).
	sentEnvelopes atomic.Uint64
	flushes       atomic.Uint64
	// wireStats counts codec-level traffic: envelopes/bytes each way and
	// completed outbound handshakes.
	wireStats metrics.WireCounters
	// droppedSends counts every envelope the transport discarded — cap
	// evictions plus whole batches dropped on an unreachable peer;
	// queueHigh is the deepest any peer outbox has ever been.
	droppedSends atomic.Uint64
	queueHigh    atomic.Int64
}

// peerSender owns the outbox and the single writer goroutine for one peer.
// The writer is the only goroutine that ever touches the peer's connection
// or frame writer, which is what makes reconnection safe: a retired
// connection's half-written frame dies with its socket and its buffer; the
// replacement gets a fresh socket, a fresh buffered writer, and a fresh
// frame writer, so no stale bytes can interleave with the new connection's
// first batch.
//
// The outbox is two arrays that trade places: senders append to queue while
// the writer works through the batch it took, and take swaps the writer's
// spent batch back in as the next queue, so a steady stream allocates no
// outbox at all. An envelope on either array still owns its message.
type peerSender struct {
	n    *Node
	peer string

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []engine.Envelope
	closed bool
	// shedHint is the index where the eviction scan for the oldest sheddable
	// envelope resumes. Everything before it is known non-sheddable: completers
	// are never evicted and only leave the queue when the writer takes the
	// whole backlog (which resets the hint), so the hint only moves forward
	// between takes and eviction is O(1) amortized instead of an O(n) scan per
	// enqueue at the cap.
	shedHint int
}

// NewNode wires rt's uplink into the topology and starts listening on
// listenAddr (empty string = outbound-only peer, e.g. a client that other
// peers never dial).
func NewNode(rt *engine.Runtime, self, listenAddr string, topo Topology) (*Node, error) {
	if topo.Assign == nil {
		return nil, fmt.Errorf("transport: topology needs an Assign function")
	}
	n := &Node{
		self: self, topo: topo, rt: rt,
		senders:  map[string]*peerSender{},
		outbound: map[net.Conn]bool{},
		inbound:  map[net.Conn]bool{},
	}
	rt.SetUplink(n.forward)
	if listenAddr != "" {
		ln, err := net.Listen("tcp", listenAddr)
		if err != nil {
			return nil, fmt.Errorf("transport: listen %s: %w", listenAddr, err)
		}
		n.ln = ln
		n.wg.Add(1)
		go n.acceptLoop()
	}
	return n, nil
}

// BatchStats reports (envelopes sent over the wire, flushes performed). The
// ratio is the coalescing factor; envelopes/flushes = 1 means no batching
// happened (idle traffic), larger means the writer amortized syscalls
// across that many envelopes.
func (n *Node) BatchStats() (envelopes, flushes uint64) {
	return n.sentEnvelopes.Load(), n.flushes.Load()
}

// Wire exposes the codec-level counters: envelopes and bytes each way, plus
// completed outbound handshakes.
func (n *Node) Wire() *metrics.WireCounters { return &n.wireStats }

// SetSendQueueCap bounds every peer outbox to cap envelopes; an enqueue at
// the cap drops the oldest queued sheddable envelope to make room (counted
// in QueueStats) and NAKs it back to the local sender with its BusyMsg, so
// the issuing attempt aborts instead of waiting forever on a reply that
// will never come. Completion traffic is never evicted and may ride past
// the cap. Zero (the default) keeps outboxes unbounded. Call before traffic
// flows.
func (n *Node) SetSendQueueCap(cap int) { n.sendQueueCap.Store(int64(cap)) }

// QueueStats reports (envelopes the transport discarded — send-queue-cap
// evictions plus batches dropped on an unreachable peer — and the deepest
// any peer outbox has ever been). With a cap configured, sheddable traffic
// can never push the high-water mark past it — including while a writer is
// stuck dialing a dead peer or retrying a batch across a reconnect, the
// exact regimes where unbounded outboxes used to melt the node; only
// protocol-completion messages (never evicted by design) can exceed it, by
// the protocol-bounded amount of work in flight.
func (n *Node) QueueStats() (dropped uint64, highWater int) {
	return n.droppedSends.Load(), int(n.queueHigh.Load())
}

// Addr returns the bound listen address (tests pass ":0").
func (n *Node) Addr() string {
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			c.Close()
			return
		}
		n.inbound[c] = true
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(c)
	}
}

// readLoop serves one inbound connection: check the version byte, ack it,
// then decode frames into the runtime until the connection ends. Hot
// fixed-size messages are decoded into the message pools; Inject takes them
// over and the destination's mailbox loop recycles them.
func (n *Node) readLoop(c net.Conn) {
	defer n.wg.Done()
	defer func() {
		c.Close()
		n.mu.Lock()
		delete(n.inbound, c)
		n.mu.Unlock()
	}()
	var vb [1]byte
	if _, err := io.ReadFull(c, vb[:]); err != nil {
		return
	}
	if vb[0] != WireVersion {
		return // not a wire-v3 dialer (or a port scanner); drop the conn
	}
	if _, err := c.Write([]byte{wireAckV3}); err != nil {
		return
	}
	rd := wire.NewReader(bufio.NewReader(c))
	defer rd.Release()
	for {
		// BytesIn counts decoded frame bytes — the frame layer, matching
		// BytesOut on the sending side — not raw socket reads, which would
		// include read-ahead for frames never decoded.
		env, frameBytes, err := rd.ReadEnvelopePooled()
		if errors.Is(err, model.ErrWireUnknownTag) {
			// A message type appended by a NEWER build: the frame was fully
			// consumed (length-prefixed for exactly this reason), so skip it
			// and keep the stream — severing would drop the whole batch
			// around it and melt a mixed-build fleet into a redial loop
			// during rolling upgrades. This node couldn't have processed the
			// message anyway. Skipped frames count only in UnknownIn — adding
			// their bytes to BytesIn with no MsgsIn would skew B/msg.
			n.wireStats.UnknownIn.Add(1)
			continue
		}
		if err != nil {
			return // EOF, torn frame, or corrupt input: drop the conn
		}
		n.wireStats.BytesIn.Add(uint64(frameBytes))
		n.wireStats.MsgsIn.Add(1)
		//ucclint:allow postnotinject -- terminal inbound delivery: this node is the envelope's destination; Post would re-route through the topology
		n.rt.Inject(env)
	}
}

// forward routes an envelope produced by the local runtime and takes
// ownership of its message: local destinations short-circuit into the
// runtime; remote ones enqueue on the destination peer's outbox for its
// writer goroutine to batch onto the wire. Where the destination lives is
// looked up in routes; only the first send to an address resolves it.
func (n *Node) forward(env engine.Envelope) {
	var ps *peerSender
	known := false
	if routes := n.routes.Load(); routes != nil {
		ps, known = (*routes)[env.To]
	}
	if !known {
		if ps, known = n.resolve(env.To); !known {
			return // the node is closed
		}
	}
	if ps == nil {
		//ucclint:allow postnotinject -- forward IS Post's routing backend; the local short-circuit must Inject or it would recurse
		n.rt.Inject(env)
		return
	}
	ps.enqueue(env)
}

// resolve asks the topology where to lives, creates that peer's sender (and
// its writer goroutine) if this is the first address it hosts, and records
// the answer in routes: nil for an address assigned to this node itself. ok
// is false once the node is closed.
func (n *Node) resolve(to engine.Addr) (ps *peerSender, ok bool) {
	peer := n.topo.Assign(to)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, false
	}
	if peer != n.self {
		ps = n.senders[peer]
		if ps == nil {
			ps = &peerSender{n: n, peer: peer}
			ps.cond = sync.NewCond(&ps.mu)
			n.senders[peer] = ps
			n.wg.Add(1)
			go ps.run()
		}
	}
	routes := map[engine.Addr]*peerSender{to: ps}
	if old := n.routes.Load(); old != nil {
		for a, s := range *old {
			routes[a] = s
		}
	}
	n.routes.Store(&routes)
	return ps, true
}

// enqueue appends env to the outbox and wakes the writer. At the send-queue
// cap it first evicts the oldest sheddable envelope, which is NAK'd back to
// its local sender and then recycled — the envelope has left the node.
func (ps *peerSender) enqueue(env engine.Envelope) {
	n := ps.n
	cap := int(n.sendQueueCap.Load())
	ps.mu.Lock()
	var evicted engine.Envelope
	haveEvicted := false
	if !ps.closed {
		if cap > 0 && len(ps.queue) >= cap {
			// Evict the oldest SHEDDABLE envelope (in place, so the backing
			// array is reused), resuming the scan at shedHint — everything
			// before it is completers, which never leave except by a whole-
			// queue take. If the backlog is all completers, grow past the cap
			// instead — the bound is hard for openers, soft for completion
			// traffic whose loss would wedge the protocol.
			for i := ps.shedHint; i < len(ps.queue); i++ {
				if _, ok := ps.queue[i].Msg.(model.Sheddable); ok {
					evicted = ps.queue[i]
					haveEvicted = true
					copy(ps.queue[i:], ps.queue[i+1:])
					ps.queue = ps.queue[:len(ps.queue)-1]
					n.droppedSends.Add(1)
					ps.shedHint = i
					break
				}
				ps.shedHint = i + 1
			}
		}
		ps.queue = append(ps.queue, env)
		for d := int64(len(ps.queue)); ; {
			prev := n.queueHigh.Load()
			if d <= prev || n.queueHigh.CompareAndSwap(prev, d) {
				break
			}
		}
		ps.cond.Signal()
	}
	ps.mu.Unlock()
	if haveEvicted {
		// NAK the evicted envelope back to its (local) sender, exactly as the
		// engine NAKs a sheddable refused at a full mailbox (Runtime.nak):
		// silence here would strand the issuer's attempt in negotiation
		// forever — its already-admitted requests at other sites would hold
		// queue entries with no wait-cycle for the deadlock detector to break.
		// A BusyMsg is not itself sheddable, so Inject always delivers it.
		for nak := range busyNAKs(evicted) {
			//ucclint:allow postnotinject -- NAK to the evicted envelope's local sender: busyNAKs only produces locally-addressed envelopes
			n.rt.Inject(nak)
		}
		model.RecycleMessage(evicted.Msg)
	}
}

// take blocks until the outbox is non-empty (or the sender is closed) and
// returns the whole backlog. spent — the writer's previous batch, cleared —
// becomes the new outbox, so the two arrays alternate instead of a fresh one
// growing under every batch.
func (ps *peerSender) take(spent []engine.Envelope) ([]engine.Envelope, bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for len(ps.queue) == 0 && !ps.closed {
		ps.cond.Wait()
	}
	if len(ps.queue) == 0 {
		return nil, false // closed and drained
	}
	batch := ps.queue
	ps.queue = spent[:0]
	ps.shedHint = 0
	return batch, true
}

// takeMore moves any backlog onto the end of batch without blocking (batch
// growth during the test-only linger); the outbox keeps its array.
func (ps *peerSender) takeMore(batch []engine.Envelope) []engine.Envelope {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	batch = append(batch, ps.queue...)
	clear(ps.queue)
	ps.queue = ps.queue[:0]
	ps.shedHint = 0
	return batch
}

// peerConn bundles the per-connection encoding state. It is rebuilt from
// scratch on every (re)dial — see peerSender for why reuse would corrupt the
// stream.
type peerConn struct {
	c  net.Conn
	bw *bufio.Writer
	fw *wire.Writer
}

// connect dials the peer and completes the handshake. A peer that closes,
// never answers, or answers a different byte is a failed connect, handled
// exactly like a refused dial — the caller drops the batch and NAKs its
// sheddable members. The close-detection drain goroutine starts only after
// the handshake: the ack is the one byte a peer ever sends on a dialer's
// connection, and the handshake read must be the one to consume it.
func (ps *peerSender) connect() (*peerConn, error) {
	n := ps.n
	c, err := n.dialRaw(ps.peer)
	if err != nil {
		return nil, err
	}
	if err := handshake(c); err != nil {
		n.unregister(c)
		return nil, fmt.Errorf("transport: handshake with %s: %w", ps.peer, err)
	}
	n.startDrain(c)
	// BytesOut is counted per frame on batch success (writeBatch), matching
	// the receiver's frame-layer count — socket-layer counting would
	// re-count a batch retried across a reconnect after a mid-batch flush.
	bw := bufio.NewWriterSize(c, defaultBatchBytes)
	n.wireStats.ConnsOut.Add(1)
	return &peerConn{c: c, bw: bw, fw: wire.NewWriter(bw)}, nil
}

// handshake is the dialer's half: write the version byte raw on the socket,
// then wait at most handshakeTimeout for the listener's ack byte.
func handshake(c net.Conn) error {
	if _, err := c.Write([]byte{WireVersion}); err != nil {
		return err
	}
	var ack [1]byte
	c.SetReadDeadline(time.Now().Add(handshakeTimeout))
	_, err := io.ReadFull(c, ack[:])
	c.SetReadDeadline(time.Time{})
	if err != nil {
		return err
	}
	if ack[0] != wireAckV3 {
		return fmt.Errorf("ack byte %#x, want %#x", ack[0], wireAckV3)
	}
	return nil
}

// run is the writer loop: take the backlog, encode it all, flush once.
// A send that fails on a stale connection (the peer crashed and restarted
// since the dial) is retried once on a fresh dial: without retransmission in
// the protocol, a single lost request would leave its transaction hung
// holding locks for the rest of the run. A peer that is genuinely down still
// drops the batch — the protocol tolerates that as a crashed site — but the
// batch's sheddable envelopes are NAK'd back to their local senders first
// (nakBatch): a silently dropped RequestMsg would strand its attempt in
// negotiation forever, the same wedge the send-queue cap's eviction NAK
// closes. A batch that was partially received before its connection died is
// re-sent whole, so a reconnect may duplicate envelopes; the protocol's
// attempt tagging absorbs duplicates (queue managers drop stale re-requests
// defensively, and supersede a resident entry when a newer attempt's request
// arrives — which also retires any entry a NAK'd-but-partially-delivered
// request left behind once its restart re-requests the copy).
//
// The batch owns its messages until that final outcome — flushed, or dropped
// and NAK'd. Only then are the pooled ones recycled, so a batch waiting for
// its retry on a fresh dial is still intact, and the NAKs (which read the
// message they answer) come before the recycle.
func (ps *peerSender) run() {
	defer ps.n.wg.Done()
	var pc *peerConn
	retire := func() {
		if pc != nil {
			pc.fw.Release() // scratch buffer back to the codec pool
			pc.c.Close()
			ps.n.mu.Lock()
			delete(ps.n.outbound, pc.c)
			ps.n.mu.Unlock()
			pc = nil
		}
	}
	defer retire()
	var batch []engine.Envelope
	for {
		var ok bool
		if batch, ok = ps.take(batch); !ok {
			return
		}
		if ps.n.batchDelay > 0 {
			// Optional linger: let the batch grow before it is framed. The
			// grown batch is still retried as a unit on a dead connection.
			time.Sleep(ps.n.batchDelay)
			batch = ps.takeMore(batch)
		}
		sent := false
		for attempt := 0; attempt < 2; attempt++ {
			if pc == nil {
				var err error
				if pc, err = ps.connect(); err != nil {
					break // unreachable peer: drop the batch (NAK'd below)
				}
			}
			var err error
			if batch, err = ps.writeBatch(pc, batch); err == nil {
				sent = true
				break
			}
			// The connection is dead: retire it — along with its frame writer
			// and any half-written frame buffered for it — and retry the whole
			// batch exactly once on a fresh dial.
			retire()
		}
		if !sent {
			ps.n.droppedSends.Add(uint64(len(batch)))
			ps.n.nakBatch(batch)
		}
		for i := range batch {
			model.RecycleMessage(batch[i].Msg)
		}
		clear(batch) // spent: the next take makes it the outbox
	}
}

// nakBatch answers every sheddable envelope of a dropped batch with its
// BusyMsg NAK to the local sender, exactly as forward does for a cap
// eviction: the peer is unreachable (dead dial, failed handshake, or a write
// that failed twice)
// and the issuer has no attempt timeout, so silence would strand each
// dropped request's attempt forever while its admitted requests at other
// sites hold queue entries. Completers are dropped without a NAK — that is
// the crashed-site semantics the protocol tolerates, and they have no Busy
// form. The NAKs are best-effort abort triggers: if a request in a
// partially-received batch did reach the peer, the restarted attempt's
// re-request supersedes the resident entry at the queue manager.
func (n *Node) nakBatch(batch []engine.Envelope) {
	for _, env := range batch {
		for nak := range busyNAKs(env) {
			//ucclint:allow postnotinject -- NAK to the dead batch's local sender: busyNAKs only produces locally-addressed envelopes
			n.rt.Inject(nak)
		}
	}
}

// busyNAKs inverts a sheddable envelope into its BusyMsg NAKs toward the
// sender, one per copy it carried — every member of a request batch — the
// same inversion engine.Runtime.nak performs for a refused mailbox push.
// Non-sheddable messages yield nothing: they have no Busy form and are never
// refused.
func busyNAKs(env engine.Envelope) iter.Seq[engine.Envelope] {
	return func(yield func(engine.Envelope) bool) {
		sh, ok := env.Msg.(model.Sheddable)
		if !ok {
			return
		}
		for i := range sh.Copies() {
			if !yield(engine.Envelope{From: env.To, To: env.From, Msg: sh.Busy(i)}) {
				return
			}
		}
	}
}

// writeBatch encodes one batch through the connection's frame writer and
// flushes once at the end, plus at defaultBatchBytes boundaries so a huge
// backlog cannot buffer unboundedly. Envelopes that arrive while encoding
// simply form the next batch — the writer loop takes them on its next
// iteration, so they are never orphaned by a retry of the current batch.
// Stats are counted only on success, so a retried batch is not
// double-counted and the envelopes/flushes ratio keeps meaning "coalescing
// on the wire" even across reconnects.
// writeBatch returns the batch with permanently-dropped envelopes removed:
// an envelope that failed ENCODING is a property of the envelope, not the
// connection, so it is NAK'd/counted exactly once here and excluded from the
// slice the caller retries (or terminally NAKs via nakBatch) — otherwise a
// batch retry would double-count the drop and inject duplicate NAKs for the
// same attempt; its message is recycled here too, the envelope having left
// the batch. An I/O error, by contrast, returns the (possibly compacted)
// batch for a whole-batch retry on a fresh connection.
func (ps *peerSender) writeBatch(pc *peerConn, batch []engine.Envelope) ([]engine.Envelope, error) {
	flushes := uint64(0)
	frameBytes := uint64(0)
	for i := 0; i < len(batch); {
		env := batch[i]
		nb, err := pc.fw.WriteEnvelope(env)
		if err != nil {
			var ee *wire.EncodeError
			if errors.As(err, &ee) {
				// Unencodable (no wire tag, oversized frame): drop it and keep
				// the stream alive — a retry would fail identically and melt
				// the writer into a redial loop. Like every other transport
				// drop, a sheddable envelope is NAK'd back to its local sender;
				// silence would strand the issuer's attempt in negotiation
				// forever.
				ps.n.droppedSends.Add(1)
				for nak := range busyNAKs(env) {
					//ucclint:allow postnotinject -- NAK to the unencodable envelope's local sender: busyNAKs only produces locally-addressed envelopes
					ps.n.rt.Inject(nak)
				}
				model.RecycleMessage(env.Msg)
				batch = slices.Delete(batch, i, i+1) // zeroes the vacated slot
				continue
			}
			return batch, err
		}
		frameBytes += uint64(nb)
		i++
		if pc.bw.Buffered() >= defaultBatchBytes {
			flushes++
			if err := pc.bw.Flush(); err != nil {
				return batch, err
			}
		}
	}
	if err := pc.bw.Flush(); err != nil {
		return batch, err
	}
	ps.n.sentEnvelopes.Add(uint64(len(batch)))
	ps.n.wireStats.MsgsOut.Add(uint64(len(batch)))
	// Frame-layer byte count, success-only like MsgsOut, so a batch retried
	// across a reconnect is never double-counted and sender/receiver B/msg
	// agree.
	ps.n.wireStats.BytesOut.Add(frameBytes)
	ps.n.flushes.Add(flushes + 1)
	return batch, nil
}

// dialRaw opens a fresh connection to peer and registers it for Close()
// teardown, but starts no reader: the caller completes the handshake first
// (its read must be the one that consumes the listener's ack byte), then
// hands the connection to startDrain.
func (n *Node) dialRaw(peer string) (net.Conn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, fmt.Errorf("transport: node closed")
	}
	addr, ok := n.topo.Peers[peer]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: unknown peer %q", peer)
	}
	c, err := net.DialTimeout("tcp", addr, 3*time.Second)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		c.Close()
		return nil, fmt.Errorf("transport: node closed")
	}
	n.outbound[c] = true
	n.mu.Unlock()
	return c, nil
}

// unregister closes and forgets a connection that never reached startDrain
// (failed handshake).
func (n *Node) unregister(c net.Conn) {
	c.Close()
	n.mu.Lock()
	delete(n.outbound, c)
	n.mu.Unlock()
}

// startDrain attaches the close-detection reader to an outbound connection
// whose handshake completed. Outbound connections carry no inbound traffic
// after the ack (each peer sends on its own dials), so a blocked read
// detects the peer closing — crash or restart — the moment it happens.
// Without it, writes into a dead connection keep "succeeding" until the
// kernel surfaces the RST, silently losing every message in between.
func (n *Node) startDrain(c net.Conn) {
	n.wg.Add(1)
	go n.drainLoop(c)
}

// drainLoop blocks reading an outbound connection; EOF/RST closes it so the
// owning writer's next flush fails fast and redials the (possibly
// restarted) peer.
func (n *Node) drainLoop(c net.Conn) {
	defer n.wg.Done()
	buf := make([]byte, 256)
	for {
		if _, err := c.Read(buf); err != nil {
			break
		}
	}
	c.Close()
	n.mu.Lock()
	delete(n.outbound, c)
	n.mu.Unlock()
}

// Close shuts the node down, closing the listener and every outbound and
// inbound connection (read loops block in Decode until their connection
// closes, so inbound sockets must be closed too or Close would hang), and
// waking every writer goroutine so it can drain and exit.
func (n *Node) Close() {
	n.mu.Lock()
	n.closed = true
	if n.ln != nil {
		n.ln.Close()
	}
	senders := make([]*peerSender, 0, len(n.senders))
	for _, ps := range n.senders {
		senders = append(senders, ps)
	}
	for c := range n.outbound {
		c.Close()
	}
	for c := range n.inbound {
		c.Close()
	}
	n.mu.Unlock()
	for _, ps := range senders {
		ps.mu.Lock()
		ps.closed = true
		ps.queue = nil
		ps.cond.Broadcast()
		ps.mu.Unlock()
	}
	n.wg.Wait()
}
