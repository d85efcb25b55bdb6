package wire

import (
	"bufio"
	"bytes"
	"io"

	"ucc/internal/engine"
	"ucc/internal/model"
)

// Corpus returns a deterministic mixed-message envelope set: every wire-
// contract message type appears at least once, and the hot-path protocol
// messages (request/grant/release and friends) are weighted the way a real
// run weights them, so codec benchmarks over the corpus measure what the
// cluster actually pays per message.
func Corpus() []engine.Envelope {
	ri := engine.RIAddr(1)
	qm := engine.QMShardAddr(2, 3)
	det := engine.DetectorAddr()
	col := engine.CollectorAddr()
	txn := model.TxnID{Site: 1, Seq: 42}
	cp := model.CopyID{Item: 7, Site: 2}

	var out []engine.Envelope
	add := func(from, to engine.Addr, n int, m model.Message) {
		for i := 0; i < n; i++ {
			out = append(out, engine.Envelope{From: from, To: to, Msg: m})
		}
	}

	// Hot path: the request→grant→release cycle dominates wire traffic.
	add(ri, qm, 8, model.RequestMsg{Txn: txn, Attempt: 3, Protocol: model.PA, Kind: model.OpWrite, Copy: cp, TS: 123456789, Interval: 250, Site: 1})
	add(qm, ri, 8, model.GrantMsg{Txn: txn, Attempt: 3, Copy: cp, Lock: model.WL, TS: 123456789, Value: -987654321, Version: 17, CommitMicros: 1 << 38})
	add(ri, qm, 8, model.ReleaseMsg{Txn: txn, Attempt: 3, Copy: cp, HasWrite: true, Value: 5, CommitMicros: 1 << 40})
	add(ri, qm, 3, model.SnapReadMsg{Txn: txn, Attempt: 0, Copy: cp, SnapMicros: 1 << 41, Site: 1})
	add(qm, ri, 3, model.SnapReadReplyMsg{Txn: txn, Attempt: 0, Copy: cp, Value: 11, Version: 9, CommitMicros: 1 << 39, Exact: true})
	add(ri, qm, 2, model.FinalTSMsg{Txn: txn, Attempt: 1, Copy: cp, TS: 4242})
	add(ri, qm, 2, model.AbortMsg{Txn: txn, Attempt: 2, Copy: cp})
	add(qm, ri, 1, model.NormalGrantMsg{Txn: txn, Attempt: 3, Copy: cp})
	add(qm, ri, 1, model.RejectMsg{Txn: txn, Attempt: 1, Copy: cp, Threshold: 999})
	add(qm, ri, 1, model.BackoffMsg{Txn: txn, Attempt: 1, Copy: cp, NewTS: 777})
	add(qm, ri, 1, model.BusyMsg{Txn: txn, Attempt: 4, Copy: cp})
	add(det, ri, 1, model.VictimMsg{Txn: txn, Attempt: 2, Cycle: []model.TxnID{{Site: 1, Seq: 42}, {Site: 2, Seq: 7}, {Site: 3, Seq: 9}}})

	// The same cycle for an attempt with two copies at one mailbox: one
	// envelope per destination per protocol step (a batch of one travels as
	// the single message above).
	add(ri, qm, 3, model.RequestBatchMsg{Txn: txn, Attempt: 3, Protocol: model.PA, TS: 123456789, Interval: 250, Site: 1, CopySite: 2,
		Members: []model.RequestMember{{Item: 7, Kind: model.OpWrite}, {Item: 19, Kind: model.OpRead}}})
	add(qm, ri, 3, model.GrantBatchMsg{Txn: txn, Attempt: 3, CopySite: 2, Members: []model.GrantMember{
		{Item: 7, Lock: model.WL, TS: 123456789, Value: -987654321, Version: 17, CommitMicros: 1 << 38},
		{Item: 19, Lock: model.RL, TS: 123456789, Value: 42, Version: 3, CommitMicros: 1 << 37},
	}})
	add(ri, qm, 3, model.ReleaseBatchMsg{Txn: txn, Attempt: 3, CopySite: 2, CommitMicros: 1 << 40,
		Members: []model.ReleaseMember{{Item: 7, HasWrite: true, Value: 5}, {Item: 19}}})

	// Detection + control planes (rarer, bigger).
	add(qm, det, 1, model.WFGReportMsg{From: 2, Round: 5, Edges: []model.WaitEdge{
		{Waiter: txn, Holder: model.TxnID{Site: 2, Seq: 7}, Waiter2PL: true, Holder2PL: false, WaiterSite: 1, WaiterSeq: 3, Copy: cp, WaiterIssuer: 1},
		{Waiter: model.TxnID{Site: 3, Seq: 1}, Holder: txn, Holder2PL: true, WaiterSite: 3, Copy: model.CopyID{Item: 9, Site: 2}, WaiterIssuer: 3},
	}})
	add(det, qm, 1, model.ProbeWFGMsg{Round: 5})
	add(col, ri, 1, model.SubmitTxnMsg{Txn: model.NewTxn(txn, model.TwoPL, []model.ItemID{1, 2, 3}, []model.ItemID{4, 5}, 1500)})
	add(ri, col, 2, model.TxnDoneMsg{Txn: txn, Protocol: model.TO, Outcome: model.OutcomeCommitted, ArrivalMicros: 10, DoneMicros: 9000, FirstArrivalMicros: 10, Attempts: 2, Size: 5, Reads: 3, Writes: 2, Messages: 40, BackoffReads: 1, LockedMicros: 4000})
	add(qm, col, 1, model.QueueStatsMsg{From: 2, AtMicros: 1 << 42, ReadGrants: map[model.ItemID]uint64{1: 10, 2: 20, 3: 30}, WriteGrants: map[model.ItemID]uint64{1: 5, 4: 9}})
	add(col, ri, 1, model.EstimateMsg{AtMicros: 1 << 42, LambdaR: map[model.ItemID]float64{1: 1.5, 2: 2.25}, LambdaW: map[model.ItemID]float64{1: 0.5}, LambdaA: 4.25, Qr: 0.6, K: 4, U: [3]float64{0.01, 0.02, 0.03}, UPrime: [3]float64{0.005, 0.01, 0.015}, PAbort: 0.02, Pr: 0.1, PwR: 0.12, PB: 0.05, PBW: 0.06})
	add(ri, ri, 1, model.TickMsg{Tag: 3})
	add(ri, ri, 1, model.ComputeDoneMsg{Txn: txn, Attempt: 3})
	add(ri, ri, 1, model.RestartMsg{Txn: txn, Attempt: 4})
	add(ri, col, 1, model.TxnFinishedMsg{Txn: txn})
	add(col, ri, 1, model.StopMsg{})
	add(col, qm, 1, model.CrashMsg{})
	add(col, qm, 1, model.RecoverMsg{})
	add(qm, qm, 1, model.FlushMsg{Shard: 3})

	// Replication catch-up plane: the periodic pull with its journal digest
	// (internal/repl's codec: items 3@10 and 4@5 as varint deltas), the
	// digest-less re-pull, and a small framed record batch (the frame bytes
	// are opaque to this codec — internal/wal's framing — so any
	// deterministic byte string exercises the length-prefixed path).
	add(qm, qm, 1, model.ReplPullMsg{From: 3, AfterSeq: 1 << 20, Have: []byte{0x06, 0x14, 0x02, 0x09}})
	add(qm, qm, 1, model.ReplPullMsg{From: 3, AfterSeq: 1<<20 + 64})
	add(qm, qm, 1, model.ReplRecordsMsg{From: 2, Frames: []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03}, NextAfterSeq: 1<<20 + 64, More: true})

	// Versioned placement / online rebalance plane.
	pm := model.PartitionMap{Epoch: 9, Assignments: [][]model.SiteID{{2, 0}, {1, 2}, {0, 1}, {2}}}
	add(qm, ri, 1, model.WrongEpochMsg{Txn: txn, Attempt: 2, Copy: cp, Map: pm})
	add(col, qm, 1, model.MapInstallMsg{Map: pm})
	add(col, ri, 1, model.MapUpdateMsg{Map: pm})
	add(qm, qm, 1, model.TransferPullMsg{From: 3, Epoch: 9, AfterSeq: 1 << 18})
	add(qm, qm, 1, model.TransferRecordsMsg{From: 2, Epoch: 9, Frames: []byte{0x05, 0x06, 0x07}, NextAfterSeq: 1<<18 + 12, More: true, Done: false})
	return out
}

// V3Harness holds reusable v3 codec state for repeated corpus passes: the
// writer, reader, and their pooled buffers live across passes exactly as
// they live across batches on a transport connection, so a measured pass is
// the codec's steady state. Shared by TestWireCodecGate (the ratio gate
// against the gob reference), BenchmarkWireCodec (the msgs/KB bench gate)
// and bench/'s codec drill — one round-trip loop, so they cannot drift
// apart.
type V3Harness struct {
	sink bytes.Buffer
	bw   *bufio.Writer
	w    *Writer
	src  bytes.Reader
	br   *bufio.Reader
	r    *Reader
}

// NewV3Harness builds the reusable state; call Release when done.
func NewV3Harness() *V3Harness {
	h := &V3Harness{}
	h.bw = bufio.NewWriter(&h.sink)
	h.w = NewWriter(h.bw)
	h.br = bufio.NewReader(&h.src)
	h.r = NewReader(h.br)
	return h
}

// Pass encodes the whole corpus into an in-memory stream and decodes it
// back — one full round trip per envelope — returning the stream size.
func (h *V3Harness) Pass(corpus []engine.Envelope) (streamBytes int, err error) {
	h.sink.Reset()
	h.bw.Reset(&h.sink)
	for _, env := range corpus {
		if _, err := h.w.WriteEnvelope(env); err != nil {
			return 0, err
		}
	}
	if err := h.bw.Flush(); err != nil {
		return 0, err
	}
	streamBytes = h.sink.Len()
	h.src.Reset(h.sink.Bytes())
	h.br.Reset(&h.src)
	for {
		if _, _, err := h.r.ReadEnvelope(); err != nil {
			if err == io.EOF {
				return streamBytes, nil
			}
			return 0, err
		}
	}
}

// PassPooled is Pass with the decode side going through the message struct
// pool: each decoded envelope's message is recycled immediately after the
// read, the dispatch-and-drop lifetime the pool is built for. The difference
// between Pass and PassPooled in BenchmarkWireCodec is exactly the per-
// message interface-boxing allocation.
func (h *V3Harness) PassPooled(corpus []engine.Envelope) (streamBytes int, err error) {
	h.sink.Reset()
	h.bw.Reset(&h.sink)
	for _, env := range corpus {
		if _, err := h.w.WriteEnvelope(env); err != nil {
			return 0, err
		}
	}
	if err := h.bw.Flush(); err != nil {
		return 0, err
	}
	streamBytes = h.sink.Len()
	h.src.Reset(h.sink.Bytes())
	h.br.Reset(&h.src)
	for {
		env, _, err := h.r.ReadEnvelopePooled()
		if err != nil {
			if err == io.EOF {
				return streamBytes, nil
			}
			return 0, err
		}
		model.RecycleMessage(env.Msg)
	}
}

// Release returns the harness's pooled buffers.
func (h *V3Harness) Release() {
	h.w.Release()
	h.r.Release()
}
