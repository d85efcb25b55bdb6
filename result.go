package ucc

import (
	"time"

	"ucc/internal/cluster"
	"ucc/internal/metrics"
	"ucc/internal/model"
	"ucc/internal/selector"
)

// Result exposes everything measured in one run.
type Result struct {
	inner cluster.Result
	cl    *cluster.Cluster
	dyn   *selector.Dynamic
	// allocs is the process-wide heap-allocation count (MemStats.Mallocs
	// delta) across Run, captured by the facade for AllocsPerCommittedTxn.
	allocs uint64
}

// AllocsPerCommittedTxn returns the heap allocations per committed
// transaction across the whole Run — every protocol message, queue entry, and
// bookkeeping object the run heap-allocated, divided by commits. The pooled
// hot path keeps this flat as load grows; a rising value is the first sign a
// pooled object started escaping. Returns 0 when nothing committed.
func (r Result) AllocsPerCommittedTxn() float64 {
	c := r.Committed()
	if c == 0 {
		return 0
	}
	return float64(r.allocs) / float64(c)
}

// Serializable reports whether the recorded execution passed the conflict
// graph check (Theorem 1/2). Always available: clusters record history.
func (r Result) Serializable() bool {
	return r.inner.Serializability != nil && r.inner.Serializability.Serializable
}

// SerializationOrder returns a witness serial order over committed
// transactions (empty if the execution was not serializable).
func (r Result) SerializationOrder() []TxnID {
	if r.inner.Serializability == nil {
		return nil
	}
	return r.inner.Serializability.Order
}

// ConflictCycle returns a witness cycle when the execution is not
// serializable (nil otherwise). A non-nil result indicates a protocol bug.
func (r Result) ConflictCycle() []TxnID {
	if r.inner.Serializability == nil {
		return nil
	}
	return r.inner.Serializability.Cycle
}

// Committed returns the number of committed transactions.
func (r Result) Committed() uint64 { return r.inner.Summary.TotalCommitted() }

// Unfinished returns transactions still live after the drain (should be 0).
func (r Result) Unfinished() int { return r.inner.Unfinished }

// MeanSystemTime is S averaged over every committed transaction.
func (r Result) MeanSystemTime() time.Duration {
	return time.Duration(r.inner.Summary.MeanSystemTimeMicros()) * time.Microsecond
}

// Throughput is committed transactions per second of simulated time.
func (r Result) Throughput() float64 { return r.inner.Summary.Throughput() }

// ProtocolStats summarizes one protocol's outcomes in a run.
type ProtocolStats struct {
	Protocol       Protocol
	Committed      uint64
	Restarts       uint64 // T/O rejections
	DeadlockAborts uint64 // 2PL victim events
	Backoffs       uint64 // PA backed-off requests
	MeanSystemTime time.Duration
	P95SystemTime  time.Duration
	MeanMessages   float64
}

// Stats returns per-protocol summaries. The ROSnapshot read-only class is
// reported like a protocol: Stats(ucc.ROSnapshot).
func (r Result) Stats(p Protocol) ProtocolStats {
	ps := r.inner.Summary.Protocols[p]
	return ProtocolStats{
		Protocol:       p,
		Committed:      ps.Committed,
		Restarts:       ps.Rejected,
		DeadlockAborts: ps.Victims,
		Backoffs:       ps.BackoffReads + ps.BackoffWrites,
		MeanSystemTime: time.Duration(ps.SystemTime.Mean()) * time.Microsecond,
		P95SystemTime:  time.Duration(ps.SystemTimeH.Quantile(0.95)) * time.Microsecond,
		MeanMessages:   ps.Messages.Mean(),
	}
}

// ClassStats summarizes one transaction class — read-only (the ROSnapshot
// fast path) or read-write (the three member protocols combined).
type ClassStats struct {
	Committed      uint64
	MeanSystemTime time.Duration
	P95SystemTime  time.Duration
}

// ReadOnly returns the latency of the read-only snapshot class.
func (r Result) ReadOnly() ClassStats {
	ps := r.inner.Summary.Protocols[model.ROSnapshot]
	return ClassStats{
		Committed:      ps.Committed,
		MeanSystemTime: time.Duration(ps.SystemTime.Mean()) * time.Microsecond,
		P95SystemTime:  time.Duration(ps.SystemTimeH.Quantile(0.95)) * time.Microsecond,
	}
}

// ReadWrite returns the combined latency of the read-write classes (2PL,
// T/O, and PA together): commit-weighted mean, and the p95 of the merged
// latency distribution.
func (r Result) ReadWrite() ClassStats {
	var out ClassStats
	var sum float64
	var merged metrics.Histogram
	for _, p := range model.Protocols {
		ps := r.inner.Summary.Protocols[p]
		out.Committed += ps.Committed
		sum += ps.SystemTime.Mean() * float64(ps.Committed)
		merged.Merge(ps.SystemTimeH)
	}
	if out.Committed > 0 {
		out.MeanSystemTime = time.Duration(sum/float64(out.Committed)) * time.Microsecond
		out.P95SystemTime = time.Duration(merged.Quantile(0.95)) * time.Microsecond
	}
	return out
}

// SnapshotReads reports how many reads the queue-bypassing fast path served
// and how many of those were inexact (version chain GC'd past the snapshot
// timestamp — should be zero under a sane ChainPolicy).
func (r Result) SnapshotReads() (served, inexact uint64) {
	qt := r.cl.QMTotals()
	return qt.SnapReads, qt.SnapStale
}

// OverloadStats reports what the backpressure machinery did in one run.
type OverloadStats struct {
	// Shed counts arrivals the admission controllers refused at submission
	// (never launched, no messages sent).
	Shed uint64
	// BusyNAKs counts BusyMsg congestion NAKs the issuers received from
	// saturated queue managers (each aborted one attempt).
	BusyNAKs uint64
	// BusySent counts requests the queue managers refused at a full data
	// queue (≥ BusyNAKs delivered; the difference is NAKs for already-stale
	// attempts).
	BusySent uint64
	// ROBusyShed counts read-only snapshot transactions terminated outright
	// after a saturated queue manager NAK'd their snapshot read (the fast
	// path has no lock state to retry under backoff, so a busy NAK sheds the
	// whole transaction).
	ROBusyShed uint64
	// Dropped counts transactions dropped at the Config.MaxAttempts restart
	// cap (0 without a cap: past-cap transactions retry forever).
	Dropped uint64
	// MaxQueueDepth is the deepest per-item data queue observed anywhere;
	// with Config.MaxQueueDepth configured it never exceeds that bound.
	MaxQueueDepth int
}

// Overload returns the run's backpressure/admission-control statistics (all
// zero when the knobs are off and the run never saturated).
func (r Result) Overload() OverloadStats {
	qt := r.cl.QMTotals()
	rt := r.cl.RITotals()
	return OverloadStats{
		Shed:          rt.Shed,
		BusyNAKs:      rt.BusyNAKs,
		BusySent:      qt.Busy,
		ROBusyShed:    rt.ROBusyShed,
		Dropped:       rt.Dropped,
		MaxQueueDepth: r.cl.DepthHighWater(),
	}
}

// PlacementStats reports what the versioned-placement machinery did in one
// run (all zero when the placement never changed).
type PlacementStats struct {
	// EpochsPublished counts partition-map epochs broadcast by the
	// controller (each AddSite/DrainSite/MoveItems publishes one).
	EpochsPublished uint64
	// ItemsMoved counts items whose primary owner changed across those
	// epochs.
	ItemsMoved uint64
	// WrongEpochNAKs counts requests that raced a placement change into a
	// queue manager that no longer owned the copy; each NAK carried the new
	// map back to the stale issuer and the attempt restarted correctly.
	WrongEpochNAKs uint64
	// MapUpdates counts newer partition maps installed at issuers (pushes
	// plus NAK piggybacks).
	MapUpdates uint64
	// TransferPulls / TransferApplied / TransferBytes measure the snapshot
	// transfer plane that seeded new owners: pull requests served, records
	// installed, and record-batch bytes shipped.
	TransferPulls   uint64
	TransferApplied uint64
	TransferBytes   uint64
}

// Placement returns the run's versioned-placement statistics.
func (r Result) Placement() PlacementStats {
	qt := r.cl.QMTotals()
	rt := r.cl.RITotals()
	rb := r.cl.Rebalance()
	return PlacementStats{
		EpochsPublished: rb.EpochsPublished,
		ItemsMoved:      rb.ItemsMoved,
		WrongEpochNAKs:  rt.WrongEpochNAKs,
		MapUpdates:      rt.MapUpdates,
		TransferPulls:   qt.TransferPulls,
		TransferApplied: qt.TransferApplied,
		TransferBytes:   qt.TransferBytes,
	}
}

// Offered returns the number of transactions submitted to the issuers.
// Every offered transaction ends committed, admission-shed, busy-shed (a
// read-only snapshot NAK'd by a saturated queue manager), dropped at
// MaxAttempts, or still unfinished at the drain — so offered equals
// committed + shed + unfinished only when the run has no RO share under
// overload and no attempt cap. Goodput is Committed()/time; the gap between
// offered and committed under overload is the load the system shed instead
// of melting.
func (r Result) Offered() uint64 {
	return r.cl.RITotals().Submitted
}

// Decisions returns how many transactions the dynamic selector routed to
// each protocol (zero-valued without DynamicSelection).
func (r Result) Decisions() (twoPL, to, pa uint64) {
	if r.dyn == nil {
		return 0, 0, 0
	}
	return r.dyn.Decisions[model.TwoPL], r.dyn.Decisions[model.TO], r.dyn.Decisions[model.PA]
}

// ReadOnlyDecisions returns how many transactions the dynamic selector
// routed to the ROSnapshot fast path.
func (r Result) ReadOnlyDecisions() uint64 {
	if r.dyn == nil {
		return 0
	}
	return r.dyn.Decisions[model.ROSnapshot]
}

// DeadlockCycles reports how many persistent deadlock cycles the coordinator
// broke and how many observed cycles contained no 2PL member (Corollary 2
// says the latter must all have been transient).
func (r Result) DeadlockCycles() (broken, no2PL uint64) {
	s := r.cl.Detector.Snapshot()
	return s.Victims, s.No2PLCycles
}
