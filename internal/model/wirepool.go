package model

import (
	"slices"
	"sync"
)

// Message struct pooling (opt-in).
//
// DecodeMessage returns value-typed messages; storing one in the Message
// interface boxes it — one small heap allocation per message, the last
// steady-state allocation on both the wire-v3 decode path and the in-process
// send path. The fourteen hot protocol types — eleven fixed-size messages
// and the three batches (RequestBatch, ReleaseBatch, GrantBatch) — therefore
// pool in both directions: DecodeMessagePooled decodes into pooled structs
// returned as pointers, the PooledRequest/PooledGrant/... constructors wrap a
// value into a pooled pointer for sending, and RecycleMessage puts either
// back.
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
//   - Actor type switches match both forms: the qm and ri dispatch switches
//     (and the collector's and the workload driver's, for the send-only
//     completion reports) carry pointer cases that deref to the existing
//     value handlers, so a pooled send costs nothing at the receiver. The
//     issuer's own timers are the exception: they only ever arrive pooled.
//   - RecycleMessage accepts any Message and ignores everything that is not
//     a pooled pointer type, so a mixed stream can be recycled blindly.
//   - Variable-size messages (slices, maps, strings: VictimMsg, WFGReport,
//     QueueStats, Estimate, ...) are NOT pooled — their backing arrays would
//     pin arbitrary memory in the pool. They fall back to the plain decoder
//     and plain value sends. SubmitTxn needs no pool: it is one pointer, and
//     a pointer-shaped struct boxes without allocating. The batches are the
//     bounded exception: a pooled batch keeps its members array across
//     recycles (that reuse is what makes it allocation-free), but only up to
//     maxPooledMembers — a larger array is dropped at recycle, so one
//     pathological batch cannot pin its size in the pool. The PooledX batch
//     constructors copy the members into the pooled message's own array, so
//     the caller keeps the slice it built them in; UnpoolMessage copies them
//     out again.
//
// AppendMessage accepts both forms of all eighteen (a pooled *RequestMsg
// encodes byte-for-byte identically to the RequestMsg it holds), so
// round-trip paths — decode pooled, re-encode, recycle — need no copies, and
// pooled sends cross the transport unchanged.

var (
	requestPool       = sync.Pool{New: func() any { return new(RequestMsg) }}
	finalTSPool       = sync.Pool{New: func() any { return new(FinalTSMsg) }}
	releasePool       = sync.Pool{New: func() any { return new(ReleaseMsg) }}
	abortPool         = sync.Pool{New: func() any { return new(AbortMsg) }}
	grantPool         = sync.Pool{New: func() any { return new(GrantMsg) }}
	normalGrantPool   = sync.Pool{New: func() any { return new(NormalGrantMsg) }}
	rejectPool        = sync.Pool{New: func() any { return new(RejectMsg) }}
	backoffPool       = sync.Pool{New: func() any { return new(BackoffMsg) }}
	busyPool          = sync.Pool{New: func() any { return new(BusyMsg) }}
	snapReadPool      = sync.Pool{New: func() any { return new(SnapReadMsg) }}
	snapReadReplyPool = sync.Pool{New: func() any { return new(SnapReadReplyMsg) }}
	requestBatchPool  = sync.Pool{New: func() any { return new(RequestBatchMsg) }}
	releaseBatchPool  = sync.Pool{New: func() any { return new(ReleaseBatchMsg) }}
	grantBatchPool    = sync.Pool{New: func() any { return new(GrantBatchMsg) }}

	// Send-only pools (see the package comment above).
	computeDonePool = sync.Pool{New: func() any { return new(ComputeDoneMsg) }}
	restartPool     = sync.Pool{New: func() any { return new(RestartMsg) }}
	txnDonePool     = sync.Pool{New: func() any { return new(TxnDoneMsg) }}
	txnFinishedPool = sync.Pool{New: func() any { return new(TxnFinishedMsg) }}
)

// maxPooledMembers caps the members array a recycled batch keeps: far above
// any transaction's copies at one mailbox, far below a size worth pinning.
const maxPooledMembers = 64

// keptMembers is the members array a recycled batch keeps: s emptied, or
// nothing when s grew past maxPooledMembers.
func keptMembers[M any](s []M) []M {
	if cap(s) > maxPooledMembers {
		return nil
	}
	return s[:0]
}

// DecodeMessagePooled decodes the body for tag from r like DecodeMessage,
// but returns the hot protocol messages as pooled pointers (*RequestMsg,
// *GrantMsg, *RequestBatchMsg, ...). Pass every decoded message to
// RecycleMessage when done with it; see the package comment above for the
// lifetime contract. Tags outside the pooled set defer to DecodeMessage, and
// so do the four send-only types, which come back as values.
func DecodeMessagePooled(tag WireTag, r *WireReader) (Message, error) {
	var m Message
	switch tag {
	case TagRequest:
		v := requestPool.Get().(*RequestMsg)
		*v = decodeRequest(r)
		m = v
	case TagFinalTS:
		v := finalTSPool.Get().(*FinalTSMsg)
		*v = decodeFinalTS(r)
		m = v
	case TagRelease:
		v := releasePool.Get().(*ReleaseMsg)
		*v = decodeRelease(r)
		m = v
	case TagAbort:
		v := abortPool.Get().(*AbortMsg)
		*v = decodeAbort(r)
		m = v
	case TagGrant:
		v := grantPool.Get().(*GrantMsg)
		*v = decodeGrant(r)
		m = v
	case TagNormalGrant:
		v := normalGrantPool.Get().(*NormalGrantMsg)
		*v = decodeNormalGrant(r)
		m = v
	case TagReject:
		v := rejectPool.Get().(*RejectMsg)
		*v = decodeReject(r)
		m = v
	case TagBackoff:
		v := backoffPool.Get().(*BackoffMsg)
		*v = decodeBackoff(r)
		m = v
	case TagBusy:
		v := busyPool.Get().(*BusyMsg)
		*v = decodeBusy(r)
		m = v
	case TagSnapRead:
		v := snapReadPool.Get().(*SnapReadMsg)
		*v = decodeSnapRead(r)
		m = v
	case TagSnapReadReply:
		v := snapReadReplyPool.Get().(*SnapReadReplyMsg)
		*v = decodeSnapReadReply(r)
		m = v
	case TagRequestBatch:
		v := requestBatchPool.Get().(*RequestBatchMsg)
		*v = decodeRequestBatch(r, v.Members)
		m = v
	case TagReleaseBatch:
		v := releaseBatchPool.Get().(*ReleaseBatchMsg)
		*v = decodeReleaseBatch(r, v.Members)
		m = v
	case TagGrantBatch:
		v := grantBatchPool.Get().(*GrantBatchMsg)
		*v = decodeGrantBatch(r, v.Members)
		m = v
	default:
		return DecodeMessage(tag, r)
	}
	if err := r.Err(); err != nil {
		// A failed decode still recycles its struct: the caller gets no
		// message to return.
		RecycleMessage(m)
		return nil, err
	}
	return m, nil
}

// Send-side pooled constructors: each wraps a value into a pooled pointer so
// storing it in the Message interface costs no allocation. The result obeys
// the same lifetime contract as DecodeMessagePooled output — ownership
// transfers to the delivery layer at Send, which recycles it after the
// receiving actor returns.

// PooledRequest returns v as a pooled *RequestMsg.
func PooledRequest(v RequestMsg) *RequestMsg {
	p := requestPool.Get().(*RequestMsg)
	*p = v
	return p
}

// PooledFinalTS returns v as a pooled *FinalTSMsg.
func PooledFinalTS(v FinalTSMsg) *FinalTSMsg {
	p := finalTSPool.Get().(*FinalTSMsg)
	*p = v
	return p
}

// PooledRelease returns v as a pooled *ReleaseMsg.
func PooledRelease(v ReleaseMsg) *ReleaseMsg {
	p := releasePool.Get().(*ReleaseMsg)
	*p = v
	return p
}

// PooledAbort returns v as a pooled *AbortMsg.
func PooledAbort(v AbortMsg) *AbortMsg {
	p := abortPool.Get().(*AbortMsg)
	*p = v
	return p
}

// PooledGrant returns v as a pooled *GrantMsg.
func PooledGrant(v GrantMsg) *GrantMsg {
	p := grantPool.Get().(*GrantMsg)
	*p = v
	return p
}

// PooledNormalGrant returns v as a pooled *NormalGrantMsg.
func PooledNormalGrant(v NormalGrantMsg) *NormalGrantMsg {
	p := normalGrantPool.Get().(*NormalGrantMsg)
	*p = v
	return p
}

// PooledReject returns v as a pooled *RejectMsg.
func PooledReject(v RejectMsg) *RejectMsg {
	p := rejectPool.Get().(*RejectMsg)
	*p = v
	return p
}

// PooledBackoff returns v as a pooled *BackoffMsg.
func PooledBackoff(v BackoffMsg) *BackoffMsg {
	p := backoffPool.Get().(*BackoffMsg)
	*p = v
	return p
}

// PooledBusy returns v as a pooled *BusyMsg.
func PooledBusy(v BusyMsg) *BusyMsg {
	p := busyPool.Get().(*BusyMsg)
	*p = v
	return p
}

// PooledSnapRead returns v as a pooled *SnapReadMsg.
func PooledSnapRead(v SnapReadMsg) *SnapReadMsg {
	p := snapReadPool.Get().(*SnapReadMsg)
	*p = v
	return p
}

// PooledSnapReadReply returns v as a pooled *SnapReadReplyMsg.
func PooledSnapReadReply(v SnapReadReplyMsg) *SnapReadReplyMsg {
	p := snapReadReplyPool.Get().(*SnapReadReplyMsg)
	*p = v
	return p
}

// PooledRequestBatch returns v as a pooled *RequestBatchMsg; the members are
// copied into the pooled message's own array, so v.Members stays the
// caller's.
func PooledRequestBatch(v RequestBatchMsg) *RequestBatchMsg {
	p := requestBatchPool.Get().(*RequestBatchMsg)
	members := append(p.Members[:0], v.Members...)
	*p = v
	p.Members = members
	return p
}

// PooledReleaseBatch returns v as a pooled *ReleaseBatchMsg (members copied,
// see PooledRequestBatch).
func PooledReleaseBatch(v ReleaseBatchMsg) *ReleaseBatchMsg {
	p := releaseBatchPool.Get().(*ReleaseBatchMsg)
	members := append(p.Members[:0], v.Members...)
	*p = v
	p.Members = members
	return p
}

// PooledGrantBatch returns v as a pooled *GrantBatchMsg (members copied, see
// PooledRequestBatch).
func PooledGrantBatch(v GrantBatchMsg) *GrantBatchMsg {
	p := grantBatchPool.Get().(*GrantBatchMsg)
	members := append(p.Members[:0], v.Members...)
	*p = v
	p.Members = members
	return p
}

// PooledComputeDone returns v as a pooled *ComputeDoneMsg (send-only).
func PooledComputeDone(v ComputeDoneMsg) *ComputeDoneMsg {
	p := computeDonePool.Get().(*ComputeDoneMsg)
	*p = v
	return p
}

// PooledRestart returns v as a pooled *RestartMsg (send-only).
func PooledRestart(v RestartMsg) *RestartMsg {
	p := restartPool.Get().(*RestartMsg)
	*p = v
	return p
}

// PooledTxnDone returns v as a pooled *TxnDoneMsg (send-only).
func PooledTxnDone(v TxnDoneMsg) *TxnDoneMsg {
	p := txnDonePool.Get().(*TxnDoneMsg)
	*p = v
	return p
}

// PooledTxnFinished returns v as a pooled *TxnFinishedMsg (send-only).
func PooledTxnFinished(v TxnFinishedMsg) *TxnFinishedMsg {
	p := txnFinishedPool.Get().(*TxnFinishedMsg)
	*p = v
	return p
}

// UnpoolMessage returns a retention-safe form of m: pooled pointer types are
// copied out to their value form — a batch with its own copy of the members,
// since the pooled array is reused — and everything else passes through
// unchanged.
// It does NOT recycle m — at the points that need this (a handler deferring
// a message past its own return), the delivery layer still owns the pointer
// and recycles it when OnMessage returns; recycling here too would double-Put.
func UnpoolMessage(m Message) Message {
	switch v := m.(type) {
	case *RequestMsg:
		return *v
	case *FinalTSMsg:
		return *v
	case *ReleaseMsg:
		return *v
	case *AbortMsg:
		return *v
	case *GrantMsg:
		return *v
	case *NormalGrantMsg:
		return *v
	case *RejectMsg:
		return *v
	case *BackoffMsg:
		return *v
	case *BusyMsg:
		return *v
	case *SnapReadMsg:
		return *v
	case *SnapReadReplyMsg:
		return *v
	case *RequestBatchMsg:
		c := *v
		c.Members = slices.Clone(v.Members)
		return c
	case *ReleaseBatchMsg:
		c := *v
		c.Members = slices.Clone(v.Members)
		return c
	case *GrantBatchMsg:
		c := *v
		c.Members = slices.Clone(v.Members)
		return c
	case *ComputeDoneMsg:
		return *v
	case *RestartMsg:
		return *v
	case *TxnDoneMsg:
		return *v
	case *TxnFinishedMsg:
		return *v
	}
	return m
}

// RecycleMessage returns a pooled message (from DecodeMessagePooled or a
// PooledX constructor) to its pool. Non-pooled messages (value types,
// variable-size types, nil) are ignored, so callers can recycle a mixed
// stream unconditionally. The caller must not touch the message afterwards.
func RecycleMessage(m Message) {
	switch v := m.(type) {
	case *RequestMsg:
		*v = RequestMsg{}
		requestPool.Put(v)
	case *FinalTSMsg:
		*v = FinalTSMsg{}
		finalTSPool.Put(v)
	case *ReleaseMsg:
		*v = ReleaseMsg{}
		releasePool.Put(v)
	case *AbortMsg:
		*v = AbortMsg{}
		abortPool.Put(v)
	case *GrantMsg:
		*v = GrantMsg{}
		grantPool.Put(v)
	case *NormalGrantMsg:
		*v = NormalGrantMsg{}
		normalGrantPool.Put(v)
	case *RejectMsg:
		*v = RejectMsg{}
		rejectPool.Put(v)
	case *BackoffMsg:
		*v = BackoffMsg{}
		backoffPool.Put(v)
	case *BusyMsg:
		*v = BusyMsg{}
		busyPool.Put(v)
	case *SnapReadMsg:
		*v = SnapReadMsg{}
		snapReadPool.Put(v)
	case *SnapReadReplyMsg:
		*v = SnapReadReplyMsg{}
		snapReadReplyPool.Put(v)
	case *RequestBatchMsg:
		*v = RequestBatchMsg{Members: keptMembers(v.Members)}
		requestBatchPool.Put(v)
	case *ReleaseBatchMsg:
		*v = ReleaseBatchMsg{Members: keptMembers(v.Members)}
		releaseBatchPool.Put(v)
	case *GrantBatchMsg:
		*v = GrantBatchMsg{Members: keptMembers(v.Members)}
		grantBatchPool.Put(v)
	case *ComputeDoneMsg:
		*v = ComputeDoneMsg{}
		computeDonePool.Put(v)
	case *RestartMsg:
		*v = RestartMsg{}
		restartPool.Put(v)
	case *TxnDoneMsg:
		*v = TxnDoneMsg{}
		txnDonePool.Put(v)
	case *TxnFinishedMsg:
		*v = TxnFinishedMsg{}
		txnFinishedPool.Put(v)
	}
}
