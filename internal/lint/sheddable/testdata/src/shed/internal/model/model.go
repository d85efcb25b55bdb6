// Package model is a miniature stand-in for ucc/internal/model: the
// sheddable analyzer recognises it by import-path suffix.
package model

// Message mirrors the real sealed message interface.
type Message interface{ isMessage() }

// Sheddable mirrors the real opt-in shedding interface: one NAK per copy.
type Sheddable interface {
	Message
	Copies() int
	Busy(i int) Message
}

// BusyMsg is the NAK completers are converted into; it is itself
// completion traffic.
type BusyMsg struct{}

func (BusyMsg) isMessage() {}

// RequestMsg is a grandfathered opener.
type RequestMsg struct{}

func (RequestMsg) isMessage() {}

// Busy converts the request into a busy NAK.
func (m RequestMsg) Copies() int { return 1 }

func (m RequestMsg) Busy(int) Message { return BusyMsg{} }

// SnapReadMsg is the other grandfathered opener.
type SnapReadMsg struct{}

func (SnapReadMsg) isMessage() {}

// Busy converts the snapshot read into a busy NAK.
func (m SnapReadMsg) Copies() int { return 1 }

func (m SnapReadMsg) Busy(int) Message { return BusyMsg{} }

// ReleaseMsg is completion traffic: shedding it would strand a lock.
type ReleaseMsg struct{}

func (ReleaseMsg) isMessage() {}

func (m ReleaseMsg) Busy(int) Message { return BusyMsg{} } // want `completion traffic`

// WithdrawMsg is also completion traffic, even with a marker: the
// completer rule is not overridable.
type WithdrawMsg struct{}

func (WithdrawMsg) isMessage() {}

//ucclint:sheddable -- markers do not override the completer rule
func (m WithdrawMsg) Busy(int) Message { return BusyMsg{} } // want `completion traffic`

// ProbeMsg is a new opener with no marker: flagged until someone writes
// down the shed-safety argument.
type ProbeMsg struct{}

func (ProbeMsg) isMessage() {}

func (m ProbeMsg) Busy(int) Message { return BusyMsg{} } // want `newly implements model\.Sheddable`

// ScanMsg is a new opener whose author stated the argument.
type ScanMsg struct{}

func (ScanMsg) isMessage() {}

// Busy converts the scan into a busy NAK.
//
//ucclint:sheddable -- scans are idempotent reads; the client retries from scratch
func (m ScanMsg) Busy(int) Message { return BusyMsg{} }

// notAMessage has a Busy method but does not implement Message, so the
// analyzer ignores it.
type notAMessage struct{}

func (n notAMessage) Busy(int) Message { return BusyMsg{} }

// RequestBatchMsg is an opener carrying several copies; it needs (and has)
// the marker like any new opener.
type RequestBatchMsg struct{ Members []RequestMsg }

func (RequestBatchMsg) isMessage() {}

func (m RequestBatchMsg) Copies() int { return len(m.Members) }

// Busy NAKs member i.
//
//ucclint:sheddable -- each member NAKs as its own request would
func (m RequestBatchMsg) Busy(i int) Message { return BusyMsg{} }

// ReleaseBatchMsg is a batch of completers: batching does not make a
// release sheddable.
type ReleaseBatchMsg struct{ Members []ReleaseMsg }

func (ReleaseBatchMsg) isMessage() {}

func (m ReleaseBatchMsg) Busy(i int) Message { return BusyMsg{} } // want `completion traffic`
