// Package model is a miniature stand-in for ucc/internal/model's pooled
// decode surface; the analyzer recognises it by import-path suffix.
package model

// Message mirrors the real sealed message interface.
type Message interface{ isMessage() }

// WireTag identifies a message type on the wire.
type WireTag byte

// RequestMsg is a pooled hot type.
type RequestMsg struct{ Item string }

func (*RequestMsg) isMessage() {}

// GrantMsg is a second pooled hot type (the send side's reply shape).
type GrantMsg struct{ Item string }

func (*GrantMsg) isMessage() {}

// GrantBatchMsg is a pooled batch: its members array is reused across
// recycles, so a retained batch is rewritten like any pooled message.
type GrantBatchMsg struct{ Members []GrantMsg }

func (*GrantBatchMsg) isMessage() {}

// DecodeMessagePooled mirrors the real pool-backed decoder.
func DecodeMessagePooled(tag WireTag) (Message, error) {
	return &RequestMsg{}, nil
}

// PooledRequest mirrors the real send-side boxing constructor.
func PooledRequest(v RequestMsg) *RequestMsg { return &v }

// PooledGrant mirrors the real send-side boxing constructor.
func PooledGrant(v GrantMsg) *GrantMsg { return &v }

// PooledGrantBatch mirrors the real batch constructor (members copied in).
func PooledGrantBatch(v GrantBatchMsg) *GrantBatchMsg { return &v }

// RecycleMessage mirrors the real pool return.
func RecycleMessage(m Message) {}

// TxnDoneMsg is a send-only pooled type: pooled when an issuer sends it,
// decoded as a value.
type TxnDoneMsg struct{ Outcome int }

func (*TxnDoneMsg) isMessage() {}

// PooledTxnDone mirrors the real send-only constructor.
func PooledTxnDone(v TxnDoneMsg) *TxnDoneMsg { return &v }

// FooMsg is a pooled type the analyzer was never told about.
type FooMsg struct{ N int }

func (*FooMsg) isMessage() {}

// PooledFoo is a taint source by its name's shape alone.
func PooledFoo(v FooMsg) *FooMsg { return &v }
