package model

import (
	"slices"
	"sync"
)

// Message struct pooling (opt-in).
//
// DecodeMessage returns value-typed messages; storing one in the Message
// interface boxes it — one small heap allocation per message, the last
// steady-state allocation on both the wire decode path and the in-process
// send path. The seventeen hot protocol types — eleven fixed-size messages
// and the six batches (RequestBatch, ReleaseBatch, AbortBatch, GrantBatch,
// SnapReadBatch, SnapReadReplyBatch) — therefore pool in both directions:
// DecodeMessagePooled decodes into pooled structs returned as pointers (the
// decode table's decodePooled rows), the
// PooledRequest/PooledGrant/... constructors wrap a value into a pooled
// pointer for sending, and RecycleMessage puts either back.
//
// Four more fixed-size types pool on the send side only: the issuer's two
// timers (ComputeDone, Restart) and its two completion reports (TxnDone to
// the collector, TxnFinished to the workload driver); every committed
// transaction sends all but Restart once. PooledComputeDone,
// PooledRestart, PooledTxnDone and PooledTxnFinished box them, and
// RecycleMessage and UnpoolMessage accept the pointers, but
// DecodeMessagePooled returns them as values. The rule
// holds because of who receives them. The timers are the issuer's to
// itself and never leave its process, so it matches only the pointer
// forms. The completion reports go to metrics.Collector and
// workload.Driver, which match both forms: in-process they get the
// pointers, and a client process hands them wire-decoded values. A client
// may match only the value forms (the benchmark's load generator does), so
// the decode side must keep handing it values.
//
// QueueStats pools on the send side only too, and is the one variable-size
// message that does: a queue manager sends one per stats period, with an
// entry per copy its site holds. PooledQueueStats copies the entries into
// the pooled message's own Grants array, kept across recycles, so a
// steady-state report allocates nothing. The array is bounded by the copies
// a site holds, not by anything read off the wire: decoding returns values,
// like the other send-only types.
//
// The catch-up plane's pull and reply (ReplPull, ReplRecords) and the
// deadlock detector's wait-for report (WFGReport) pool in both directions
// like the batches, but carry a byte string — the pull digest, the shipped
// records — or a site's wait-for edges, often none, where a batch carries at
// least one member. The pooled message keeps that array, up to
// maxPooledBytes or maxPooledEdges, in a field of its own, so an empty
// string or edge list still decodes to nil; PooledReplPull,
// PooledReplRecords and PooledWFGReport copy the caller's into it. The
// detector's probe (ProbeWFG) pools on the send side only, like the
// completion reports: the queue manager matches both forms.
//
// SubmitTxn pools on the decode side only, and not its struct: it is one
// pointer, which boxes without allocating, so DecodeMessagePooled takes the
// Txn it points to from a pool instead and returns the message as a value.
// That Txn keeps its item array and its specs array across recycles, and it
// is marked as the pool's: RecycleMessage returns it and leaves a caller's
// Txn alone, and UnpoolMessage copies it out. The issuer copies every
// submitted transaction into its own state before OnMessage returns (see
// package ri), so a wire-decoded submit needs nothing more.
//
// The contract is strict and deliberately opt-in:
//
//   - A pooled message is valid only until RecycleMessage. Ownership
//     transfers at Send: the delivery layer (engine.Runtime's mailbox loop,
//     sim.Engine.Step, bench harnesses draining captured envelopes) recycles
//     after the receiving actor's OnMessage returns. Handlers that must
//     retain a message past OnMessage copy it out first — UnpoolMessage
//     returns a value-typed copy safe to hold forever. A send that leaves
//     the process hands the same pointer on once more: engine.Runtime
//     passes it to its uplink untouched, and the transport — the owner
//     from then on — recycles it when the envelope leaves the peer's
//     outbox for good (flushed, or dropped and NAK'd). The transport's
//     read loop decodes with DecodeMessagePooled, so on the receiving
//     node the message is pooled again, and recycled by the mailbox loop.
//   - Actor type switches match both forms: the qm, ri and deadlock
//     dispatch switches (and the collector's and the workload driver's, for
//     the send-only reports) carry pointer cases that deref to the existing
//     value handlers, so a pooled send costs nothing at the receiver. The
//     issuer's own timers are the exception: they only ever arrive pooled.
//   - RecycleMessage accepts any Message and ignores everything that is not
//     a pooled pointer type, so a mixed stream can be recycled blindly.
//   - Variable-size messages (slices, maps, strings: VictimMsg, Estimate,
//     MapInstall, ...) are NOT pooled — their backing arrays would pin
//     arbitrary memory in the pool. They fall back to the plain decoder
//     and plain value sends. The batches, the submitted Txn and the three
//     array-carrying messages above are the bounded exceptions: a pooled
//     batch keeps its members array across recycles (that reuse is what
//     makes it allocation-free), and a pooled Txn its two arrays, but only
//     up to maxPooledMembers (maxPooledBytes, maxPooledEdges) — a larger
//     array is dropped at recycle, so one pathological message cannot pin
//     its size in the pool. The PooledX constructors copy the members into
//     the pooled message's own array, so the caller keeps the slice it
//     built them in; UnpoolMessage copies them out again. QueueStats, sent
//     only by a queue manager, keeps its array at any size (see above).
//
// A pooled pointer is a Message through its method set, and encodes
// byte-for-byte like the value it holds, so round-trip paths — decode
// pooled, re-encode, recycle — need no copies, and pooled sends cross the
// transport unchanged.
//
// Each pooled type declares, beside its pool, its PooledX constructor and the
// two pooledMsg methods RecycleMessage and UnpoolMessage dispatch through.

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
	// unpool returns the message as a value that is safe to retain.
	unpool() Message
}

// maxPooledMembers caps the members array a recycled batch keeps, and each
// array a recycled Txn keeps: far above any transaction's copies at one
// mailbox, far below a size worth pinning.
const maxPooledMembers = 64

// keptMembers is the array a recycled batch or Txn keeps: s emptied, or
// nothing when s grew past maxPooledMembers.
func keptMembers[M any](s []M) []M { return keptArray(s, maxPooledMembers) }

// DecodeMessagePooled decodes the body for tag from r like DecodeMessage,
// but returns the hot protocol messages as pooled pointers (*RequestMsg,
// *GrantMsg, *RequestBatchMsg, ...) and a SubmitTxnMsg with a pooled Txn.
// Pass every decoded message to RecycleMessage when done with it; see the
// package comment above for the lifetime contract. Tags outside the pooled
// set defer to DecodeMessage, and so do the four send-only types, which come
// back as values.
func DecodeMessagePooled(tag WireTag, r *WireReader) (Message, error) {
	if tag > TagLast || codecs[tag].decodePooled == nil {
		return DecodeMessage(tag, r)
	}
	m := codecs[tag].decodePooled(r)
	if err := r.Err(); err != nil {
		// A failed decode still recycles its struct: the caller gets no
		// message to return.
		RecycleMessage(m)
		return nil, err
	}
	return m, nil
}

// UnpoolMessage returns a retention-safe form of m: pooled pointer types are
// copied out to their value form — a batch with its own copy of the members,
// since the pooled array is reused — a submit with a pooled Txn gets a copy
// of the Txn, and everything else passes through unchanged.
// It does NOT recycle m — at the points that need this (a handler deferring
// a message past its own return), the delivery layer still owns the pointer
// and recycles it when OnMessage returns; recycling here too would double-Put.
func UnpoolMessage(m Message) Message {
	if p, ok := m.(pooledMsg); ok {
		return p.unpool()
	}
	return m
}

// RecycleMessage returns a pooled message (from DecodeMessagePooled or a
// PooledX constructor) to its pool, and a decoded submit's pooled Txn to
// its. Non-pooled messages (value types, variable-size types, a submit of a
// caller's Txn, nil) are ignored, so callers can recycle a mixed stream
// unconditionally. The caller must not touch the message afterwards.
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

// PooledRequest returns v as a pooled *RequestMsg.
func PooledRequest(v RequestMsg) *RequestMsg { return requestPool.box(v) }
func (m *RequestMsg) recycle()               { requestPool.put(m) }
func (m *RequestMsg) unpool() Message        { return *m }

var finalTSPool msgPool[FinalTSMsg]

// PooledFinalTS returns v as a pooled *FinalTSMsg.
func PooledFinalTS(v FinalTSMsg) *FinalTSMsg { return finalTSPool.box(v) }
func (m *FinalTSMsg) recycle()               { finalTSPool.put(m) }
func (m *FinalTSMsg) unpool() Message        { return *m }

var releasePool msgPool[ReleaseMsg]

// PooledRelease returns v as a pooled *ReleaseMsg.
func PooledRelease(v ReleaseMsg) *ReleaseMsg { return releasePool.box(v) }
func (m *ReleaseMsg) recycle()               { releasePool.put(m) }
func (m *ReleaseMsg) unpool() Message        { return *m }

var abortPool msgPool[AbortMsg]

// PooledAbort returns v as a pooled *AbortMsg.
func PooledAbort(v AbortMsg) *AbortMsg { return abortPool.box(v) }
func (m *AbortMsg) recycle()           { abortPool.put(m) }
func (m *AbortMsg) unpool() Message    { return *m }

var grantPool msgPool[GrantMsg]

// PooledGrant returns v as a pooled *GrantMsg.
func PooledGrant(v GrantMsg) *GrantMsg { return grantPool.box(v) }
func (m *GrantMsg) recycle()           { grantPool.put(m) }
func (m *GrantMsg) unpool() Message    { return *m }

var normalGrantPool msgPool[NormalGrantMsg]

// PooledNormalGrant returns v as a pooled *NormalGrantMsg.
func PooledNormalGrant(v NormalGrantMsg) *NormalGrantMsg { return normalGrantPool.box(v) }
func (m *NormalGrantMsg) recycle()                       { normalGrantPool.put(m) }
func (m *NormalGrantMsg) unpool() Message                { return *m }

var rejectPool msgPool[RejectMsg]

// PooledReject returns v as a pooled *RejectMsg.
func PooledReject(v RejectMsg) *RejectMsg { return rejectPool.box(v) }
func (m *RejectMsg) recycle()             { rejectPool.put(m) }
func (m *RejectMsg) unpool() Message      { return *m }

var backoffPool msgPool[BackoffMsg]

// PooledBackoff returns v as a pooled *BackoffMsg.
func PooledBackoff(v BackoffMsg) *BackoffMsg { return backoffPool.box(v) }
func (m *BackoffMsg) recycle()               { backoffPool.put(m) }
func (m *BackoffMsg) unpool() Message        { return *m }

var busyPool msgPool[BusyMsg]

// PooledBusy returns v as a pooled *BusyMsg.
func PooledBusy(v BusyMsg) *BusyMsg { return busyPool.box(v) }
func (m *BusyMsg) recycle()         { busyPool.put(m) }
func (m *BusyMsg) unpool() Message  { return *m }

var snapReadPool msgPool[SnapReadMsg]

// PooledSnapRead returns v as a pooled *SnapReadMsg.
func PooledSnapRead(v SnapReadMsg) *SnapReadMsg { return snapReadPool.box(v) }
func (m *SnapReadMsg) recycle()                 { snapReadPool.put(m) }
func (m *SnapReadMsg) unpool() Message          { return *m }

var snapReadReplyPool msgPool[SnapReadReplyMsg]

// PooledSnapReadReply returns v as a pooled *SnapReadReplyMsg.
func PooledSnapReadReply(v SnapReadReplyMsg) *SnapReadReplyMsg { return snapReadReplyPool.box(v) }
func (m *SnapReadReplyMsg) recycle()                           { snapReadReplyPool.put(m) }
func (m *SnapReadReplyMsg) unpool() Message                    { return *m }

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

func (m *RequestBatchMsg) unpool() Message {
	c := *m
	c.Members = slices.Clone(m.Members)
	return c
}

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

func (m *ReleaseBatchMsg) unpool() Message {
	c := *m
	c.Members = slices.Clone(m.Members)
	return c
}

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

func (m *GrantBatchMsg) unpool() Message {
	c := *m
	c.Members = slices.Clone(m.Members)
	return c
}

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

func (m *SnapReadBatchMsg) unpool() Message {
	c := *m
	c.Members = slices.Clone(m.Members)
	return c
}

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

func (m *SnapReadReplyBatchMsg) unpool() Message {
	c := *m
	c.Members = slices.Clone(m.Members)
	return c
}

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

func (m *AbortBatchMsg) unpool() Message {
	c := *m
	c.Members = slices.Clone(m.Members)
	return c
}

// maxPooledBytes caps the byte array a recycled pull or reply keeps: room
// for a snapshot reset image of a few thousand copies, and no more.
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
// pooled message's own array, so v.Have stays the caller's.
func PooledReplPull(v ReplPullMsg) *ReplPullMsg {
	p := replPullPool.get()
	v.Have, v.buf = ownArray(p.buf, v.Have)
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

func (m *ReplPullMsg) unpool() Message {
	c := *m
	c.Have, c.buf = cloneArray(m.Have), nil
	return c
}

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

func (m *ReplRecordsMsg) unpool() Message {
	c := *m
	c.Frames, c.buf = cloneArray(m.Frames), nil
	return c
}

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

func (m *WFGReportMsg) unpool() Message {
	c := *m
	c.Edges, c.buf = cloneArray(m.Edges), nil
	return c
}

var probeWFGPool msgPool[ProbeWFGMsg]

// PooledProbeWFG returns v as a pooled *ProbeWFGMsg (send-only).
func PooledProbeWFG(v ProbeWFGMsg) *ProbeWFGMsg { return probeWFGPool.box(v) }
func (m *ProbeWFGMsg) recycle()                 { probeWFGPool.put(m) }
func (m *ProbeWFGMsg) unpool() Message          { return *m }

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

// unpool returns a pooled Txn's message with a copy of the Txn that shares
// no array with it, and any other message as it is.
func (m SubmitTxnMsg) unpool() Message {
	if m.Txn == nil || !m.Txn.pooled {
		return m
	}
	c := new(Txn)
	m.Txn.CopyInto(c, nil)
	return SubmitTxnMsg{Txn: c}
}

// Send-only pools (see the package comment above).

var computeDonePool msgPool[ComputeDoneMsg]

// PooledComputeDone returns v as a pooled *ComputeDoneMsg (send-only).
func PooledComputeDone(v ComputeDoneMsg) *ComputeDoneMsg { return computeDonePool.box(v) }
func (m *ComputeDoneMsg) recycle()                       { computeDonePool.put(m) }
func (m *ComputeDoneMsg) unpool() Message                { return *m }

var restartPool msgPool[RestartMsg]

// PooledRestart returns v as a pooled *RestartMsg (send-only).
func PooledRestart(v RestartMsg) *RestartMsg { return restartPool.box(v) }
func (m *RestartMsg) recycle()               { restartPool.put(m) }
func (m *RestartMsg) unpool() Message        { return *m }

var txnDonePool msgPool[TxnDoneMsg]

// PooledTxnDone returns v as a pooled *TxnDoneMsg (send-only).
func PooledTxnDone(v TxnDoneMsg) *TxnDoneMsg { return txnDonePool.box(v) }
func (m *TxnDoneMsg) recycle()               { txnDonePool.put(m) }
func (m *TxnDoneMsg) unpool() Message        { return *m }

var txnFinishedPool msgPool[TxnFinishedMsg]

// PooledTxnFinished returns v as a pooled *TxnFinishedMsg (send-only).
func PooledTxnFinished(v TxnFinishedMsg) *TxnFinishedMsg { return txnFinishedPool.box(v) }
func (m *TxnFinishedMsg) recycle()                       { txnFinishedPool.put(m) }
func (m *TxnFinishedMsg) unpool() Message                { return *m }

var queueStatsPool msgPool[QueueStatsMsg]

// PooledQueueStats returns v as a pooled *QueueStatsMsg (send-only; grants
// copied, see PooledRequestBatch).
func PooledQueueStats(v QueueStatsMsg) *QueueStatsMsg {
	p := queueStatsPool.get()
	v.Grants = append(p.Grants[:0], v.Grants...)
	*p = v
	return p
}

func (m *QueueStatsMsg) recycle() {
	*m = QueueStatsMsg{Grants: m.Grants[:0]}
	queueStatsPool.Put(m)
}

func (m *QueueStatsMsg) unpool() Message {
	c := *m
	c.Grants = slices.Clone(m.Grants)
	return c
}
