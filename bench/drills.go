package main

import (
	"fmt"
	"time"

	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/storage"
	"ucc/internal/transport"
	"ucc/internal/wal"
	"ucc/internal/wire"
)

// Drill sizes at scale 1: each drill then runs well under a second on the
// reference box. Operation counts are fixed, not timed, so both sides of a
// comparison do the same work.
const (
	drillCodecPasses = 4000
	drillStreamMsgs  = 200_000
	drillPingPongs   = 5_000
	drillLocalHops   = 200_000
	drillStoreOps    = 1_000_000
	drillWALRecords  = 100_000
)

// runDrills measures single layers in isolation, one after the other with
// nothing else running, and returns their per-layer metrics. scale shrinks
// the operation counts (tests).
func runDrills(scale float64) (map[string]float64, error) {
	n := func(full int) int {
		if v := int(float64(full) * scale); v > 1 {
			return v
		}
		return 1
	}
	out := map[string]float64{}
	if err := drillCodec(out, n(drillCodecPasses)); err != nil {
		return nil, fmt.Errorf("codec drill: %w", err)
	}
	if err := drillStream(out, n(drillStreamMsgs)); err != nil {
		return nil, fmt.Errorf("stream drill: %w", err)
	}
	if err := drillPingPong(out, n(drillPingPongs)); err != nil {
		return nil, fmt.Errorf("ping-pong drill: %w", err)
	}
	if err := drillLocalHop(out, n(drillLocalHops)); err != nil {
		return nil, fmt.Errorf("local-hop drill: %w", err)
	}
	drillStorage(out, n(drillStoreOps))
	if err := drillWAL(out, n(drillWALRecords)); err != nil {
		return nil, fmt.Errorf("wal drill: %w", err)
	}
	return out, nil
}

// drillCodec round-trips the weighted message corpus through the v3 codec
// with pooled decode, the path the transport's reader takes.
func drillCodec(out map[string]float64, passes int) error {
	h := wire.NewV3Harness()
	defer h.Release()
	corpus := wire.Corpus()
	if _, err := h.PassPooled(corpus); err != nil { // warm the pools
		return err
	}
	before := procSnapshot()
	start := time.Now()
	streamBytes := 0
	for i := 0; i < passes; i++ {
		var err error
		if streamBytes, err = h.PassPooled(corpus); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	used := procSnapshot().sub(before)
	msgs := float64(passes * len(corpus))
	out["wire.codec_ns_per_msg"] = float64(elapsed.Nanoseconds()) / msgs
	out["wire.codec_allocs_per_msg"] = used[cMallocs] / msgs
	out["wire.bytes_per_msg"] = float64(streamBytes) / float64(len(corpus))
	return nil
}

// request is the request-sized envelope payload of the transport drills.
var drillRequest = model.RequestMsg{
	Txn: model.TxnID{Site: 0, Seq: 1}, Protocol: model.PA, Kind: model.OpWrite,
	Copy: model.CopyID{Item: 7, Site: 1}, TS: 123456, Interval: 250,
}

var drillGrant = model.GrantMsg{
	Txn: drillRequest.Txn, Copy: drillRequest.Copy, Lock: model.WL, TS: 123456, Value: 100, Version: 3, CommitMicros: 1 << 40,
}

// countActor signals once it has received target messages.
type countActor struct {
	left int
	done chan struct{}
}

func (a *countActor) OnMessage(engine.Context, engine.Addr, model.Message) {
	if a.left--; a.left == 0 {
		close(a.done)
	}
}

// bounceActor answers every message with reply to peer until left runs out.
type bounceActor struct {
	peer  engine.Addr
	reply func() model.Message
	left  int
	done  chan struct{} // closed by the message that finds left at 0; nil on the echo side
}

func (a *bounceActor) OnMessage(ctx engine.Context, _ engine.Addr, _ model.Message) {
	if a.left == 0 {
		if a.done != nil {
			close(a.done) // the peer has run out too, so no further message arrives
		}
		return
	}
	a.left--
	ctx.Send(a.peer, a.reply())
}

// nodePair is two runtimes joined by loopback TCP: site 0 and site 1.
type nodePair struct {
	rt   [2]*engine.Runtime
	node [2]*transport.Node
}

func newNodePair() (*nodePair, error) {
	p := &nodePair{}
	peers := map[string]string{}
	assign := func(a engine.Addr) string { return fmt.Sprintf("site%d", a.ID) }
	for i := range p.rt {
		p.rt[i] = engine.NewRuntime(engine.FixedLatency{}, int64(i)+1)
		var err error
		p.node[i], err = transport.NewNode(p.rt[i], fmt.Sprintf("site%d", i), "127.0.0.1:0",
			transport.Topology{Peers: peers, Assign: assign})
		if err != nil {
			p.close()
			return nil, err
		}
	}
	for i, n := range p.node {
		peers[fmt.Sprintf("site%d", i)] = n.Addr()
	}
	return p, nil
}

func (p *nodePair) close() {
	for _, n := range p.node {
		if n != nil {
			n.Close()
		}
	}
	for _, rt := range p.rt {
		if rt != nil {
			rt.Shutdown()
		}
	}
}

func waitDone(done <-chan struct{}, what string) error {
	select {
	case <-done:
		return nil
	case <-time.After(60 * time.Second):
		return fmt.Errorf("%s did not complete within 60s", what)
	}
}

// drillStream pushes request-sized envelopes one way through two real nodes:
// outbox → encode → kernel → decode → mailbox. Sender and receiver share the
// process, so the CPU figure is the cost of both ends of one message.
func drillStream(out map[string]float64, msgs int) error {
	p, err := newNodePair()
	if err != nil {
		return err
	}
	defer p.close()
	recv := &countActor{left: msgs, done: make(chan struct{})}
	p.rt[1].Register(engine.QMAddr(1), recv)
	env := engine.Envelope{From: engine.RIAddr(0), To: engine.QMAddr(1), Msg: drillRequest}
	before := procSnapshot()
	start := time.Now()
	for i := 0; i < msgs; i++ {
		p.rt[0].Post(env)
	}
	if err := waitDone(recv.done, "stream"); err != nil {
		return err
	}
	elapsed := time.Since(start)
	used := procSnapshot().sub(before)
	out["transport.stream_msgs_per_s"] = float64(msgs) / elapsed.Seconds()
	out["transport.stream_allocs_per_msg"] = used[cMallocs] / float64(msgs)
	out["transport.stream_cpu_us_per_msg"] = (used[cUserUs] + used[cSysUs]) / float64(msgs)
	return nil
}

// drillPingPong bounces one request/grant pair between two nodes with
// nothing else in flight: the latency of one network hop, actor to actor.
func drillPingPong(out map[string]float64, rounds int) error {
	p, err := newNodePair()
	if err != nil {
		return err
	}
	defer p.close()
	ping := &bounceActor{peer: engine.QMAddr(1), left: rounds, done: make(chan struct{}),
		reply: func() model.Message { return model.PooledRequest(drillRequest) }}
	echo := &bounceActor{peer: engine.RIAddr(0), left: rounds,
		reply: func() model.Message { return model.PooledGrant(drillGrant) }}
	p.rt[0].Register(engine.RIAddr(0), ping)
	p.rt[1].Register(engine.QMAddr(1), echo)
	kick := engine.Envelope{From: engine.RIAddr(0), To: engine.RIAddr(0), Msg: model.TickMsg{}}
	start := time.Now()
	p.rt[0].Post(kick)
	if err := waitDone(ping.done, "ping-pong"); err != nil {
		return err
	}
	out["transport.hop_us"] = float64(time.Since(start).Microseconds()) / float64(2*rounds)
	return nil
}

// drillLocalHop bounces a message between two actors of one runtime: the
// cost of ctx.Send plus mailbox delivery with no network.
func drillLocalHop(out map[string]float64, hops int) error {
	rt := engine.NewRuntime(engine.FixedLatency{}, 1)
	defer rt.Shutdown()
	rounds := hops / 2
	if rounds < 1 {
		rounds = 1
	}
	ping := &bounceActor{peer: engine.QMAddr(0), left: rounds, done: make(chan struct{}),
		reply: func() model.Message { return model.PooledRequest(drillRequest) }}
	echo := &bounceActor{peer: engine.RIAddr(0), left: rounds,
		reply: func() model.Message { return model.PooledGrant(drillGrant) }}
	rt.Register(engine.RIAddr(0), ping)
	rt.Register(engine.QMAddr(0), echo)
	kick := engine.Envelope{From: engine.RIAddr(0), To: engine.RIAddr(0), Msg: model.TickMsg{}}
	before := procSnapshot()
	start := time.Now()
	rt.Post(kick)
	if err := waitDone(ping.done, "local hop"); err != nil {
		return err
	}
	elapsed := time.Since(start)
	used := procSnapshot().sub(before)
	out["engine.local_hop_ns"] = float64(elapsed.Nanoseconds()) / float64(2*rounds)
	out["engine.local_hop_allocs"] = used[cMallocs] / float64(2*rounds)
	return nil
}

// drillStorage times the three store operations the queue manager uses, over
// the benchmark's item count under the default chain policy. Commit stamps
// advance 10 µs per write, so chains hold several versions and prune runs.
func drillStorage(out map[string]float64, ops int) {
	st := storage.NewStore(0)
	for i := 0; i < numItems; i++ {
		st.Create(model.ItemID(i), initialValue)
	}
	txn := model.TxnID{Site: 0, Seq: 1}
	now := int64(1_000_000)
	start := time.Now()
	for i := 0; i < ops; i++ {
		st.Write(model.ItemID(i%numItems), txn, int64(i), now)
		now += 10
	}
	out["storage.write_ns"] = float64(time.Since(start).Nanoseconds()) / float64(ops)

	var sink int64
	start = time.Now()
	for i := 0; i < ops; i++ {
		v, _ := st.Read(model.ItemID(i % numItems))
		sink += v
	}
	out["storage.read_ns"] = float64(time.Since(start).Nanoseconds()) / float64(ops)

	snap := now - 15_000 // the issuers' default snapshot staleness margin
	start = time.Now()
	for i := 0; i < ops; i++ {
		v, _ := st.ReadAt(model.ItemID(i%numItems), snap)
		sink += v.Value
	}
	out["storage.read_at_ns"] = float64(time.Since(start).Nanoseconds()) / float64(ops)
	drillSink = sink
}

// drillSink keeps the storage drill's reads from being optimised away.
var drillSink int64

// drillWAL journals and flushes one record at a time on a medium whose sync
// costs nothing: the log's own append, framing and snapshot cost.
func drillWAL(out map[string]float64, records int) error {
	st := storage.NewStore(0)
	for i := 0; i < numItems; i++ {
		st.Create(model.ItemID(i), initialValue)
	}
	log, err := wal.Open(wal.NewMemMedia(), st, walOptions)
	if err != nil {
		return err
	}
	txn := model.TxnID{Site: 0, Seq: 1}
	start := time.Now()
	for i := 0; i < records; i++ {
		log.RecordWrite(model.ItemID(i%numItems), txn, int64(i), uint64(i+1), int64(i))
		if err := log.Flush(); err != nil {
			return err
		}
	}
	out["wal.append_flush_ns_per_record"] = float64(time.Since(start).Nanoseconds()) / float64(records)
	return nil
}
