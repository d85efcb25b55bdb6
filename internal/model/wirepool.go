package model

import (
	"slices"
	"sync"
)

// Message struct pooling.
//
// Storing a value-typed message in the Message interface boxes it: one small
// heap allocation per message, on the wire decode path and on the
// in-process send path alike. The protocol messages therefore travel as
// pooled pointers, and each reaches its actor in exactly one form: the
// pointer to what the sender sent, or to what DecodeMessagePooled decoded.
// So the qm, ri and deadlock type switches carry one pointer case per
// message and no value case. RecycleMessage returns a pointer to its pool.
// DecodeMessagePooled is the codec's only decoder: a caller that keeps what
// it decoded, a test comparing it with what was encoded included, takes a
// copy with RetainMessage.
//
// The pooled types are the fixed-size protocol messages (FinalTS,
// NormalGrant, Reject, Backoff, Busy, ProbeWFG), the issuer's two timers
// (ComputeDone, Restart), the six per-copy batches (RequestBatch,
// ReleaseBatch, AbortBatch, GrantBatch, SnapReadBatch, SnapReadReplyBatch)
// and four messages that carry an array (ReplPull, ReplRecords, WFGReport,
// QueueStats). A per-copy step always travels as a batch: a batch of one is
// encoded under its single message's tag (RequestMsg, GrantMsg, ...), and
// the decoder returns that tag as the pooled batch of one it stands for. The
// single structs are the members' views (RequestBatchMsg.Request(i)) and the
// encoding of a batch of one, not messages any actor receives.
// PooledRequest and PooledGrant remain as senders of those encodings.
//
// Two types pool on the send side only: the issuer's completion reports,
// TxnDone to metrics.Collector and TxnFinished to workload.Driver. In
// process those receivers get the pooled pointer; a client process decodes
// them as values, because a client may match only the value forms (the
// benchmark's load generator does). So the collector keeps a value case for
// TxnDone and the driver one for TxnFinished, the only value cases of a
// pooled type.
//
// A batch keeps its members array across recycles, up to maxPooledMembers;
// the array-carrying messages keep theirs up to maxPooledBytes (pull digest,
// shipped records, stats entries) or maxPooledEdges (wait-for edges), and an
// empty array still decodes to nil. A larger array is dropped at recycle, so
// one pathological message cannot pin its size in the pool. The PooledX
// constructors copy the caller's array into the pooled message's own, so the
// caller keeps the slice it built them in.
//
// SubmitTxn pools on the decode side, and not its struct: it is one pointer,
// which boxes without allocating, so DecodeMessagePooled takes the Txn it
// points to from a pool instead. That Txn keeps its item and spec arrays
// across recycles, and it is marked as the pool's: RecycleMessage returns it
// and leaves a caller's Txn alone. The issuer copies every submitted
// transaction into its own state before OnMessage returns (see package ri).
//
// The lifetime contract:
//
//   - A pooled message is valid only until RecycleMessage. Ownership
//     transfers at Send: the delivery layer (engine.Runtime's mailbox loop,
//     sim.Engine.Step, bench harnesses draining captured envelopes) recycles
//     after the receiving actor's OnMessage returns. A send that leaves the
//     process hands the same pointer to the transport, which recycles it
//     when the envelope leaves the peer's outbox for good (flushed, or
//     dropped and NAK'd); the receiving node's read loop decodes with
//     DecodeMessagePooled, so the message is pooled again there.
//   - A handler that keeps a message past OnMessage retains it:
//     RetainMessage returns a pooled copy, with its own array, that the
//     retainer recycles when done (a down queue-manager shard's deferral).
//   - RecycleMessage accepts any Message and ignores everything that is not
//     pooled, so a mixed stream can be recycled blindly.
//   - Variable-size messages outside the bounded set above (VictimMsg,
//     Estimate, MapInstall, ...) are not pooled: their arrays would pin
//     arbitrary memory in the pool. They travel as values.
//
// A pooled pointer encodes byte-for-byte like the value it holds, so pooled
// sends cross the transport unchanged. Each pooled type declares, beside its
// pool, its PooledX constructor and the two pooledMsg methods RecycleMessage
// and RetainMessage dispatch through.

// msgPool is one message type's pool.
type msgPool[T any] struct{ sync.Pool }

// get returns a pooled *T, or a new one when the pool is empty.
func (p *msgPool[T]) get() *T {
	if v, _ := p.Get().(*T); v != nil {
		return v
	}
	return new(T)
}

// box returns v in a pooled *T.
func (p *msgPool[T]) box(v T) *T {
	q := p.get()
	*q = v
	return q
}

// put zeroes v and returns it to the pool.
func (p *msgPool[T]) put(v *T) {
	var zero T
	*v = zero
	p.Put(v)
}

// pooledMsg is implemented by the pooled pointer types, and by nothing else.
type pooledMsg interface {
	// recycle returns the message to its pool.
	recycle()
	// retain returns a pooled copy that shares no array with the message.
	retain() Message
}

// maxPooledMembers caps the members array a recycled batch keeps, and each
// array a recycled Txn keeps: far above any transaction's copies at one
// mailbox, far below a size worth pinning.
const maxPooledMembers = 64

// keptMembers is the array a recycled batch or Txn keeps: s emptied, or
// nothing when s grew past maxPooledMembers.
func keptMembers[M any](s []M) []M { return keptArray(s, maxPooledMembers) }

// RetainMessage returns a form of m that outlives the delivery of m: a
// pooled message's pooled copy, with its own array (a submit's pooled Txn
// is copied into a pooled Txn of its own), and any other message as it is.
// The caller passes the copy to RecycleMessage when done with it. It does
// not recycle m, which the delivery layer still owns.
func RetainMessage(m Message) Message {
	if p, ok := m.(pooledMsg); ok {
		return p.retain()
	}
	return m
}

// RecycleMessage returns a pooled message (from DecodeMessagePooled, a
// PooledX constructor or RetainMessage) to its pool, and a decoded submit's
// pooled Txn to its. Non-pooled messages (value types, variable-size types,
// a submit of a caller's Txn, nil) are ignored, so callers can recycle a
// mixed stream unconditionally. The caller must not touch the message
// afterwards.
func RecycleMessage(m Message) {
	if p, ok := m.(pooledMsg); ok {
		p.recycle()
	}
}

// The pooled types. Each PooledX constructor wraps a value into a pooled
// pointer so storing it in the Message interface costs no allocation. The
// result obeys the same lifetime contract as DecodeMessagePooled output —
// ownership transfers to the delivery layer at Send, which recycles it after
// the receiving actor returns.

var requestPool msgPool[RequestMsg]

// PooledRequest returns v as a pooled *RequestMsg (send-only: it arrives as
// the batch of one it encodes).
func PooledRequest(v RequestMsg) *RequestMsg { return requestPool.box(v) }
func (m *RequestMsg) recycle()               { requestPool.put(m) }
func (m *RequestMsg) retain() Message        { return requestPool.box(*m) }

var grantPool msgPool[GrantMsg]

// PooledGrant returns v as a pooled *GrantMsg (send-only: it arrives as the
// batch of one it encodes).
func PooledGrant(v GrantMsg) *GrantMsg { return grantPool.box(v) }
func (m *GrantMsg) recycle()           { grantPool.put(m) }
func (m *GrantMsg) retain() Message    { return grantPool.box(*m) }

var finalTSPool msgPool[FinalTSMsg]

// PooledFinalTS returns v as a pooled *FinalTSMsg.
func PooledFinalTS(v FinalTSMsg) *FinalTSMsg { return finalTSPool.box(v) }
func (m *FinalTSMsg) recycle()               { finalTSPool.put(m) }
func (m *FinalTSMsg) retain() Message        { return finalTSPool.box(*m) }

var normalGrantPool msgPool[NormalGrantMsg]

// PooledNormalGrant returns v as a pooled *NormalGrantMsg.
func PooledNormalGrant(v NormalGrantMsg) *NormalGrantMsg { return normalGrantPool.box(v) }
func (m *NormalGrantMsg) recycle()                       { normalGrantPool.put(m) }
func (m *NormalGrantMsg) retain() Message                { return normalGrantPool.box(*m) }

var rejectPool msgPool[RejectMsg]

// PooledReject returns v as a pooled *RejectMsg.
func PooledReject(v RejectMsg) *RejectMsg { return rejectPool.box(v) }
func (m *RejectMsg) recycle()             { rejectPool.put(m) }
func (m *RejectMsg) retain() Message      { return rejectPool.box(*m) }

var backoffPool msgPool[BackoffMsg]

// PooledBackoff returns v as a pooled *BackoffMsg.
func PooledBackoff(v BackoffMsg) *BackoffMsg { return backoffPool.box(v) }
func (m *BackoffMsg) recycle()               { backoffPool.put(m) }
func (m *BackoffMsg) retain() Message        { return backoffPool.box(*m) }

var busyPool msgPool[BusyMsg]

// PooledBusy returns v as a pooled *BusyMsg.
func PooledBusy(v BusyMsg) *BusyMsg { return busyPool.box(v) }
func (m *BusyMsg) recycle()         { busyPool.put(m) }
func (m *BusyMsg) retain() Message  { return busyPool.box(*m) }

var probeWFGPool msgPool[ProbeWFGMsg]

// PooledProbeWFG returns v as a pooled *ProbeWFGMsg.
func PooledProbeWFG(v ProbeWFGMsg) *ProbeWFGMsg { return probeWFGPool.box(v) }
func (m *ProbeWFGMsg) recycle()                 { probeWFGPool.put(m) }
func (m *ProbeWFGMsg) retain() Message          { return probeWFGPool.box(*m) }

var computeDonePool msgPool[ComputeDoneMsg]

// PooledComputeDone returns v as a pooled *ComputeDoneMsg.
func PooledComputeDone(v ComputeDoneMsg) *ComputeDoneMsg { return computeDonePool.box(v) }
func (m *ComputeDoneMsg) recycle()                       { computeDonePool.put(m) }
func (m *ComputeDoneMsg) retain() Message                { return computeDonePool.box(*m) }

var restartPool msgPool[RestartMsg]

// PooledRestart returns v as a pooled *RestartMsg.
func PooledRestart(v RestartMsg) *RestartMsg { return restartPool.box(v) }
func (m *RestartMsg) recycle()               { restartPool.put(m) }
func (m *RestartMsg) retain() Message        { return restartPool.box(*m) }

var requestBatchPool msgPool[RequestBatchMsg]

// PooledRequestBatch returns v as a pooled *RequestBatchMsg; the members are
// copied into the pooled message's own array, so v.Members stays the
// caller's.
func PooledRequestBatch(v RequestBatchMsg) *RequestBatchMsg {
	p := requestBatchPool.get()
	v.Members = append(p.Members[:0], v.Members...)
	*p = v
	return p
}

func (m *RequestBatchMsg) recycle() {
	*m = RequestBatchMsg{Members: keptMembers(m.Members)}
	requestBatchPool.Put(m)
}

func (m *RequestBatchMsg) retain() Message { return PooledRequestBatch(*m) }

var releaseBatchPool msgPool[ReleaseBatchMsg]

// PooledReleaseBatch returns v as a pooled *ReleaseBatchMsg (members copied,
// see PooledRequestBatch).
func PooledReleaseBatch(v ReleaseBatchMsg) *ReleaseBatchMsg {
	p := releaseBatchPool.get()
	v.Members = append(p.Members[:0], v.Members...)
	*p = v
	return p
}

func (m *ReleaseBatchMsg) recycle() {
	*m = ReleaseBatchMsg{Members: keptMembers(m.Members)}
	releaseBatchPool.Put(m)
}

func (m *ReleaseBatchMsg) retain() Message { return PooledReleaseBatch(*m) }

var grantBatchPool msgPool[GrantBatchMsg]

// PooledGrantBatch returns v as a pooled *GrantBatchMsg (members copied, see
// PooledRequestBatch).
func PooledGrantBatch(v GrantBatchMsg) *GrantBatchMsg {
	p := grantBatchPool.get()
	v.Members = append(p.Members[:0], v.Members...)
	*p = v
	return p
}

func (m *GrantBatchMsg) recycle() {
	*m = GrantBatchMsg{Members: keptMembers(m.Members)}
	grantBatchPool.Put(m)
}

func (m *GrantBatchMsg) retain() Message { return PooledGrantBatch(*m) }

var snapReadBatchPool msgPool[SnapReadBatchMsg]

// PooledSnapReadBatch returns v as a pooled *SnapReadBatchMsg (members
// copied, see PooledRequestBatch).
func PooledSnapReadBatch(v SnapReadBatchMsg) *SnapReadBatchMsg {
	p := snapReadBatchPool.get()
	v.Members = append(p.Members[:0], v.Members...)
	*p = v
	return p
}

func (m *SnapReadBatchMsg) recycle() {
	*m = SnapReadBatchMsg{Members: keptMembers(m.Members)}
	snapReadBatchPool.Put(m)
}

func (m *SnapReadBatchMsg) retain() Message { return PooledSnapReadBatch(*m) }

var snapReadReplyBatchPool msgPool[SnapReadReplyBatchMsg]

// PooledSnapReadReplyBatch returns v as a pooled *SnapReadReplyBatchMsg
// (members copied, see PooledRequestBatch).
func PooledSnapReadReplyBatch(v SnapReadReplyBatchMsg) *SnapReadReplyBatchMsg {
	p := snapReadReplyBatchPool.get()
	v.Members = append(p.Members[:0], v.Members...)
	*p = v
	return p
}

func (m *SnapReadReplyBatchMsg) recycle() {
	*m = SnapReadReplyBatchMsg{Members: keptMembers(m.Members)}
	snapReadReplyBatchPool.Put(m)
}

func (m *SnapReadReplyBatchMsg) retain() Message { return PooledSnapReadReplyBatch(*m) }

var abortBatchPool msgPool[AbortBatchMsg]

// PooledAbortBatch returns v as a pooled *AbortBatchMsg (members copied, see
// PooledRequestBatch).
func PooledAbortBatch(v AbortBatchMsg) *AbortBatchMsg {
	p := abortBatchPool.get()
	v.Members = append(p.Members[:0], v.Members...)
	*p = v
	return p
}

func (m *AbortBatchMsg) recycle() {
	*m = AbortBatchMsg{Members: keptMembers(m.Members)}
	abortBatchPool.Put(m)
}

func (m *AbortBatchMsg) retain() Message { return PooledAbortBatch(*m) }

// maxPooledBytes caps the byte array a recycled pull or reply keeps: room
// for a snapshot reset image of a few thousand copies, and no more. It caps
// a recycled stats report's entries too, one per copy a site holds.
const maxPooledBytes = 1 << 16

// maxPooledEdges caps the edge array a recycled wait-for report keeps.
const maxPooledEdges = 1 << 10

// keptArray is the array a recycled message keeps: s emptied, or nothing
// when it grew past max.
func keptArray[E any](s []E, max int) []E {
	if cap(s) > max {
		return nil
	}
	return s[:0]
}

// ownArray copies src into buf's array and returns the copy and the array
// to keep, the copy's own when src outgrew buf. An empty src is returned as
// it is, and buf kept.
func ownArray[E any](buf, src []E) (s, kept []E) {
	if len(src) == 0 {
		return src, buf
	}
	s = append(buf[:0], src...)
	return s, s
}

// decodedArray is the array to keep after a decode into buf produced s:
// s's own when the decode filled one (it may have outgrown buf), else buf.
func decodedArray[E any](buf, s []E) []E {
	if s != nil {
		return s
	}
	return buf
}

// cloneArray copies s into an array of its own; empty is nil, as a decode
// makes it.
func cloneArray[E any](s []E) []E {
	if len(s) == 0 {
		return nil
	}
	return slices.Clone(s)
}

var replPullPool msgPool[ReplPullMsg]

// PooledReplPull returns v as a pooled *ReplPullMsg; Have is copied into the
// pooled message's own array, so v.Have stays the caller's. A fill's Scope
// is copied into an array of its own, which the pool does not keep.
func PooledReplPull(v ReplPullMsg) *ReplPullMsg {
	p := replPullPool.get()
	v.Have, v.buf = ownArray(p.buf, v.Have)
	v.Scope = cloneArray(v.Scope)
	*p = v
	return p
}

// decodeReplPullPooled is tag 27's pooled decode: Have lands in the array
// the pooled pull kept.
func decodeReplPullPooled(r *WireReader) Message {
	p := replPullPool.get()
	buf := p.buf
	*p = decodeReplPull(r, buf)
	p.buf = decodedArray(buf, p.Have)
	return p
}

func (m *ReplPullMsg) recycle() {
	*m = ReplPullMsg{buf: keptArray(m.buf, maxPooledBytes)}
	replPullPool.Put(m)
}

func (m *ReplPullMsg) retain() Message { return PooledReplPull(*m) }

var replRecordsPool msgPool[ReplRecordsMsg]

// PooledReplRecords returns v as a pooled *ReplRecordsMsg; Frames is copied
// into the pooled message's own array, so v.Frames stays the caller's.
func PooledReplRecords(v ReplRecordsMsg) *ReplRecordsMsg {
	p := replRecordsPool.get()
	v.Frames, v.buf = ownArray(p.buf, v.Frames)
	*p = v
	return p
}

// decodeReplRecordsPooled is tag 28's pooled decode: Frames lands in the
// array the pooled reply kept.
func decodeReplRecordsPooled(r *WireReader) Message {
	p := replRecordsPool.get()
	buf := p.buf
	*p = decodeReplRecords(r, buf)
	p.buf = decodedArray(buf, p.Frames)
	return p
}

func (m *ReplRecordsMsg) recycle() {
	*m = ReplRecordsMsg{buf: keptArray(m.buf, maxPooledBytes)}
	replRecordsPool.Put(m)
}

func (m *ReplRecordsMsg) retain() Message { return PooledReplRecords(*m) }

var wfgReportPool msgPool[WFGReportMsg]

// PooledWFGReport returns v as a pooled *WFGReportMsg; the edges are copied
// into the pooled report's own array, so v.Edges stays the caller's.
func PooledWFGReport(v WFGReportMsg) *WFGReportMsg {
	p := wfgReportPool.get()
	v.Edges, v.buf = ownArray(p.buf, v.Edges)
	*p = v
	return p
}

// decodeWFGReportPooled is tag 13's pooled decode: the edges land in the
// array the pooled report kept.
func decodeWFGReportPooled(r *WireReader) Message {
	p := wfgReportPool.get()
	buf := p.buf
	*p = decodeWFGReport(r, buf)
	p.buf = decodedArray(buf, p.Edges)
	return p
}

func (m *WFGReportMsg) recycle() {
	*m = WFGReportMsg{buf: keptArray(m.buf, maxPooledEdges)}
	wfgReportPool.Put(m)
}

func (m *WFGReportMsg) retain() Message { return PooledWFGReport(*m) }

var queueStatsPool msgPool[QueueStatsMsg]

// PooledQueueStats returns v as a pooled *QueueStatsMsg; the entries are
// copied into the pooled report's own array, so v.Grants stays the
// caller's.
func PooledQueueStats(v QueueStatsMsg) *QueueStatsMsg {
	p := queueStatsPool.get()
	v.Grants, v.buf = ownArray(p.buf, v.Grants)
	*p = v
	return p
}

// decodeQueueStatsPooled is tag 17's pooled decode: the entries land in the
// array the pooled report kept.
func decodeQueueStatsPooled(r *WireReader) Message {
	p := queueStatsPool.get()
	buf := p.buf
	*p = decodeQueueStats(r, buf)
	p.buf = decodedArray(buf, p.Grants)
	return p
}

func (m *QueueStatsMsg) recycle() {
	*m = QueueStatsMsg{buf: keptArray(m.buf, maxPooledBytes)}
	queueStatsPool.Put(m)
}

func (m *QueueStatsMsg) retain() Message { return PooledQueueStats(*m) }

// The decode-only pool (see the package comment above): the submitted Txn.

var txnPool msgPool[Txn]

// decodeSubmitTxnPooled is tag 15's pooled decode: the Txn comes from
// txnPool, marked as the pool's, and decodes into the arrays it kept.
func decodeSubmitTxnPooled(r *WireReader) Message {
	if !r.Bool() || r.err != nil {
		return SubmitTxnMsg{}
	}
	t := txnPool.get()
	t.pooled = true
	t.items, t.specs = r.txn(t, t.items, t.specs)
	return SubmitTxnMsg{Txn: t}
}

// recycle returns a pooled Txn to txnPool with its arrays, and leaves any
// other Txn alone.
func (m SubmitTxnMsg) recycle() {
	t := m.Txn
	if t == nil || !t.pooled {
		return
	}
	*t = Txn{items: keptMembers(t.items), specs: keptMembers(t.specs)}
	txnPool.Put(t)
}

// retain returns a pooled Txn's message with a copy of the Txn that shares
// no array with it and is the caller's (RecycleMessage leaves it alone), and
// any other message as it is.
func (m SubmitTxnMsg) retain() Message {
	if m.Txn == nil || !m.Txn.pooled {
		return m
	}
	c := new(Txn)
	m.Txn.CopyInto(c, nil)
	return SubmitTxnMsg{Txn: c}
}

// Send-only pools (see the package comment above).

var txnDonePool msgPool[TxnDoneMsg]

// PooledTxnDone returns v as a pooled *TxnDoneMsg (send-only).
func PooledTxnDone(v TxnDoneMsg) *TxnDoneMsg { return txnDonePool.box(v) }
func (m *TxnDoneMsg) recycle()               { txnDonePool.put(m) }
func (m *TxnDoneMsg) retain() Message        { return txnDonePool.box(*m) }

var txnFinishedPool msgPool[TxnFinishedMsg]

// PooledTxnFinished returns v as a pooled *TxnFinishedMsg (send-only).
func PooledTxnFinished(v TxnFinishedMsg) *TxnFinishedMsg { return txnFinishedPool.box(v) }
func (m *TxnFinishedMsg) recycle()                       { txnFinishedPool.put(m) }
func (m *TxnFinishedMsg) retain() Message                { return txnFinishedPool.box(*m) }
