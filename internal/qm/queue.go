package qm

import (
	"fmt"
	"sort"
	"sync"

	"ucc/internal/model"
)

// entryState distinguishes PA requests awaiting their agreed timestamp from
// everything else.
type entryState uint8

const (
	// stateAccepted entries participate in HD(j) selection.
	stateAccepted entryState = iota
	// stateBlocked entries (PA, backed off) stall HD(j) until the final
	// timestamp arrives (§3.4 step 2(e)ii.A).
	stateBlocked
)

// entry is one request resident in a data queue.
type entry struct {
	txn      model.TxnID
	attempt  model.Attempt
	protocol model.Protocol
	kind     model.OpKind
	prec     model.Precedence
	state    entryState

	granted    bool
	lock       model.LockKind
	preSched   bool
	normalSent bool
	semi       bool
	grantSeq   uint64
	// readRecorded marks T/O reads already logged at grant time (a T/O
	// read's SRL is born semi, so per §4.3 the operation is implemented —
	// and its value taken — at the grant).
	readRecorded bool
}

// entryPool recycles queue-table entries: one entry is acquired per admitted
// request attempt and released when the attempt leaves its queue (release,
// abort, stale-attempt replacement), so steady-state traffic allocates no
// entries at all. The lifetime is queue residency: acquireEntry → insert →
// ... → remove → recycleEntry. The poolsafe analyzer tracks acquireEntry
// results like pooled messages — an entry stored outside the queue tables or
// read after recycleEntry is a lint finding, not a production bug.
var entryPool = sync.Pool{New: func() any { return new(entry) }}

// acquireEntry returns a zeroed entry from the pool.
func acquireEntry() *entry {
	return entryPool.Get().(*entry)
}

// recycleEntry returns e to the pool. The caller must not touch e afterwards
// and must have removed it from every queue index first.
func recycleEntry(e *entry) {
	*e = entry{}
	entryPool.Put(e)
}

func (e *entry) String() string {
	g := " "
	if e.granted {
		g = fmt.Sprintf("%v", e.lock)
		if e.preSched && !e.normalSent {
			g += "*"
		}
	}
	return fmt.Sprintf("{%v %v %v prec=%v %s}", e.txn, e.protocol, e.kind, e.prec, g)
}

// prospectiveLock returns the lock kind the entry will hold once granted,
// per §4.2 rule 2.
func (e *entry) prospectiveLock() model.LockKind {
	if e.kind == model.OpWrite {
		return model.WL
	}
	if e.protocol == model.TO {
		return model.SRL
	}
	return model.RL
}

// grantDecision is what the queue decided for a candidate HD entry.
type grantDecision struct {
	ok       bool
	lock     model.LockKind
	preSched bool
}

// dataQueue is the per-copy queue + lock state (QUEUE(j), R-TS(j), W-TS(j)).
type dataQueue struct {
	copyID model.CopyID
	// entries sorted ascending by unified precedence.
	entries []*entry
	// byTxn indexes entries by transaction (one request per txn per copy).
	byTxn map[model.TxnID]*entry
	// granted lists live granted entries in grant order; lockCounts tracks
	// live granted locks by kind. Both exist so the semi-lock grant rules
	// are O(1) instead of O(queue depth) per decision.
	granted    []*entry
	lockCounts [4]int
	// rTS/wTS are the biggest timestamps of granted read/write requests
	// (§3.4 step 2(a)); in the unified queue every protocol's grant raises
	// them, which is what rejects late out-of-order T/O arrivals.
	rTS, wTS model.Timestamp
	// maxSeenTS is the biggest timestamp that has ever appeared in this
	// queue; 2PL precedences are assigned from it (§4.1).
	maxSeenTS model.Timestamp
	// arrivalSeq numbers arrivals for the 2PL/2PL tie-break.
	arrivalSeq uint64
	// grantSeq numbers lock grants: "previously granted" in the semi-lock
	// rules means smaller grantSeq.
	grantSeq uint64
	// semiLocksEnabled selects the §4.2 semi-lock protocol; when false the
	// queue uses the paper's simpler "lock everything" unified enforcement
	// (every grant is full and conversions are ignored) — ablation ABL-1.
	semiLocksEnabled bool
	// parked is set while the item holds a journaled write no WAL sync has
	// covered yet: messages keep updating the queue, but the shard's dispatch
	// sends nothing from it until the sync that un-parks it (shard.unpark).
	// parkGen is the shard's sync generation its newest write waits for: a
	// write during an in-flight sync moves it past that sync, so the queue
	// stays parked for the next one.
	parked  bool
	parkGen uint64

	// Cumulative grant counters (inputs to λr(j)/λw(j) estimation), and
	// their values at the last stats report, which sent the difference.
	readGrants, writeGrants       uint64
	reportedReads, reportedWrites uint64

	// promo is promotable's reused scratch: dispatch calls it after every
	// handled message, and the common empty result must not allocate.
	promo []*entry
}

func newDataQueue(c model.CopyID, semiLocks bool) *dataQueue {
	return &dataQueue{
		copyID: c, rTS: -1, wTS: -1,
		semiLocksEnabled: semiLocks,
		byTxn:            map[model.TxnID]*entry{},
	}
}

// find returns the entry for txn, or nil.
func (q *dataQueue) find(txn model.TxnID) *entry {
	return q.byTxn[txn]
}

// insert places e into precedence order.
func (q *dataQueue) insert(e *entry) {
	i := sort.Search(len(q.entries), func(i int) bool {
		return e.prec.Less(q.entries[i].prec)
	})
	q.entries = append(q.entries, nil)
	copy(q.entries[i+1:], q.entries[i:])
	q.entries[i] = e
	q.byTxn[e.txn] = e
	if e.prec.TS > q.maxSeenTS {
		q.maxSeenTS = e.prec.TS
	}
}

// remove deletes e from the queue and, if granted, drops its lock.
func (q *dataQueue) remove(e *entry) {
	for i, x := range q.entries {
		if x == e {
			q.entries = append(q.entries[:i], q.entries[i+1:]...)
			break
		}
	}
	delete(q.byTxn, e.txn)
	if e.granted {
		q.dropLock(e)
	}
}

// dropLock removes e from the live-grant bookkeeping.
func (q *dataQueue) dropLock(e *entry) {
	q.lockCounts[e.lock]--
	for i, g := range q.granted {
		if g == e {
			q.granted = append(q.granted[:i], q.granted[i+1:]...)
			break
		}
	}
}

// resort repositions e after its precedence changed (PA final timestamp).
func (q *dataQueue) resort(e *entry) {
	for i, x := range q.entries {
		if x == e {
			q.entries = append(q.entries[:i], q.entries[i+1:]...)
			break
		}
	}
	i := sort.Search(len(q.entries), func(i int) bool {
		return e.prec.Less(q.entries[i].prec)
	})
	q.entries = append(q.entries, nil)
	copy(q.entries[i+1:], q.entries[i:])
	q.entries[i] = e
	if e.prec.TS > q.maxSeenTS {
		q.maxSeenTS = e.prec.TS
	}
}

// arrivalOutcome describes how the queue disposed of a new request.
type arrivalOutcome struct {
	// rejected is set for out-of-order T/O requests (threshold carries the
	// value the request failed against).
	rejected  bool
	threshold model.Timestamp
	// backedOff is set for PA requests that could not be accepted; newTS is
	// TS' = TS + k·INT (§3.4 step 2(c)).
	backedOff bool
	newTS     model.Timestamp
}

// admit implements §3.4 step 2(b)–(c) generalized to the unified queue: it
// assigns the request's unified precedence and either accepts, rejects
// (T/O), or backs off (PA) the request. The entry is inserted except on
// rejection.
func (q *dataQueue) admit(e *entry, ts, interval model.Timestamp) arrivalOutcome {
	q.arrivalSeq++
	e.prec.Arrival = q.arrivalSeq

	switch e.protocol {
	case model.TwoPL:
		// §4.1: the biggest timestamp ever seen before arrival, 2PL flag set
		// so the request lands at the FCFS tail among equal timestamps.
		e.prec.TS = q.maxSeenTS
		e.prec.Is2PL = true
		q.insert(e)
		return arrivalOutcome{}

	case model.TO:
		if !q.acceptable(e.kind, ts) {
			return arrivalOutcome{rejected: true, threshold: q.threshold(e.kind)}
		}
		e.prec.TS = ts
		q.insert(e)
		return arrivalOutcome{}

	case model.PA:
		if q.acceptable(e.kind, ts) {
			e.prec.TS = ts
			e.state = stateAccepted
			q.insert(e)
			return arrivalOutcome{}
		}
		if interval <= 0 {
			interval = 1
		}
		th := q.threshold(e.kind)
		// Minimal TS' = ts + k·interval with TS' > th, k ∈ N.
		k := (th-ts)/interval + 1
		if k < 1 {
			k = 1
		}
		newTS := ts + k*interval
		e.prec.TS = newTS
		e.state = stateBlocked
		q.insert(e)
		return arrivalOutcome{backedOff: true, newTS: newTS}

	default:
		panic(fmt.Sprintf("qm: unknown protocol %v", e.protocol))
	}
}

// threshold returns the acceptance threshold for a request kind: W-TS for
// reads, max(W-TS, R-TS) for writes.
func (q *dataQueue) threshold(kind model.OpKind) model.Timestamp {
	if kind == model.OpRead {
		return q.wTS
	}
	if q.rTS > q.wTS {
		return q.rTS
	}
	return q.wTS
}

// acceptable reports whether a timestamped request passes the T/O test.
func (q *dataQueue) acceptable(kind model.OpKind, ts model.Timestamp) bool {
	return ts > q.threshold(kind)
}

// applyFinalTS implements §3.4 step 2(d): the transaction's agreed timestamp
// arrives; the request is re-stamped, marked accepted, and re-inserted into
// its proper position.
//
// If the request had already been granted against its pre-agreement
// timestamp, the grant is revoked: the entry returns to the ungranted
// accepted state and the thresholds are not raised. Revocation is what makes
// PA deadlock-free (Corollary 1): without it, two PA transactions whose
// provisional grants cross (each holding one item the other needs) would
// block forever. Revocation is safe because a transaction that receives any
// back-off never executes against its provisional grants — its issuer
// discards grants stamped with the superseded timestamp and waits for fresh
// ones.
//
// Returns true if a provisional grant was revoked.
func (q *dataQueue) applyFinalTS(e *entry, ts model.Timestamp) (revoked bool) {
	if ts > e.prec.TS {
		e.prec.TS = ts
	}
	e.state = stateAccepted
	if e.granted {
		q.dropLock(e)
		e.granted = false
		e.preSched = false
		e.normalSent = false
		e.grantSeq = 0
		if e.kind == model.OpRead {
			q.readGrants--
		} else {
			q.writeGrants--
		}
		revoked = true
	}
	q.resort(e)
	return revoked
}

// noteGrantTS raises R-TS/W-TS for a grant of the given kind.
func (q *dataQueue) noteGrantTS(kind model.OpKind, ts model.Timestamp) {
	if kind == model.OpRead {
		if ts > q.rTS {
			q.rTS = ts
		}
	} else if ts > q.wTS {
		q.wTS = ts
	}
}

// head returns HD(j): the first ungranted entry (every entry with smaller
// precedence is granted), or nil.
func (q *dataQueue) head() *entry {
	for _, e := range q.entries {
		if !e.granted {
			return e
		}
	}
	return nil
}

// decide evaluates the semi-lock grant rules (§4.2 rule 2) for HD(j).
func (q *dataQueue) decide(hd *entry) grantDecision {
	if hd.state == stateBlocked {
		return grantDecision{} // rule A: wait for the agreed timestamp
	}
	nRL := q.lockCounts[model.RL]
	nWL := q.lockCounts[model.WL]
	nSRL := q.lockCounts[model.SRL]
	nSWL := q.lockCounts[model.SWL]

	if !q.semiLocksEnabled {
		// ABL-1 "lock everything" enforcement: every request needs all
		// previously granted conflicting locks released; no pre-scheduling.
		if hd.kind == model.OpRead {
			if nWL+nSWL > 0 {
				return grantDecision{}
			}
			return grantDecision{ok: true, lock: model.RL}
		}
		if nRL+nWL+nSRL+nSWL > 0 {
			return grantDecision{}
		}
		return grantDecision{ok: true, lock: model.WL}
	}

	isTO := hd.protocol == model.TO
	switch {
	case hd.kind == model.OpRead && !isTO:
		// RL if all previously granted WL's and SWL's have been released.
		if nWL+nSWL > 0 {
			return grantDecision{}
		}
		return grantDecision{ok: true, lock: model.RL}

	case hd.kind == model.OpWrite && !isTO:
		// WL if all previously granted locks have been released.
		if nRL+nWL+nSRL+nSWL > 0 {
			return grantDecision{}
		}
		return grantDecision{ok: true, lock: model.WL}

	case hd.kind == model.OpRead && isTO:
		// SRL if all previously granted WL's have been released; an
		// outstanding SWL makes the grant pre-scheduled.
		if nWL > 0 {
			return grantDecision{}
		}
		return grantDecision{ok: true, lock: model.SRL, preSched: nSWL > 0}

	default: // T/O write
		// WL if all previously granted RL's and WL's have been released;
		// outstanding semi-locks make the grant pre-scheduled.
		if nRL+nWL > 0 {
			return grantDecision{}
		}
		return grantDecision{ok: true, lock: model.WL, preSched: nSRL+nSWL > 0}
	}
}

// grant marks hd granted per decision and updates thresholds/counters.
func (q *dataQueue) grant(hd *entry, d grantDecision) {
	q.grantSeq++
	hd.granted = true
	hd.lock = d.lock
	hd.preSched = d.preSched
	hd.normalSent = !d.preSched
	hd.grantSeq = q.grantSeq
	q.granted = append(q.granted, hd)
	q.lockCounts[d.lock]++
	q.noteGrantTS(hd.kind, hd.prec.TS)
	if hd.kind == model.OpRead {
		q.readGrants++
	} else {
		q.writeGrants++
	}
}

// promotable returns granted pre-scheduled entries whose conflicting earlier
// grants have all been released (§4.2 rule 2 case 5): they become normal.
// The returned slice is q's scratch, valid until the next promotable call.
func (q *dataQueue) promotable() []*entry {
	out := q.promo[:0]
	for _, e := range q.granted {
		if e.normalSent {
			continue
		}
		conflict := false
		for _, o := range q.granted {
			if o == e || o.grantSeq >= e.grantSeq {
				continue
			}
			if model.LocksConflict(e.lock, o.lock) {
				conflict = true
				break
			}
		}
		if !conflict {
			out = append(out, e)
		}
	}
	q.promo = out
	return out
}

// toSemi converts e's lock to its semi form (§4.2 rule 4).
func (q *dataQueue) toSemi(e *entry) {
	e.semi = true
	q.lockCounts[e.lock]--
	switch e.lock {
	case model.RL:
		e.lock = model.SRL
	case model.WL:
		e.lock = model.SWL
	}
	q.lockCounts[e.lock]++
}

// blocksUnderRule reports whether granted lock holder o blocks waiter e
// under e's grant rule (§4.2 rule 2).
func blocksUnderRule(e, o *entry) bool {
	isTO := e.protocol == model.TO
	switch {
	case e.kind == model.OpRead && !isTO:
		return o.lock.IsWrite()
	case e.kind == model.OpWrite && !isTO:
		return true
	case e.kind == model.OpRead && isTO:
		return o.lock == model.WL
	default:
		return o.lock == model.RL || o.lock == model.WL
	}
}

// waitEdges appends, for each ungranted entry, its wait-for edges: every
// live granted lock that blocks it under its grant rule, plus its nearest
// preceding ungranted entry (HD gating chains transitively, so the nearest
// predecessor suffices for cycle detection and keeps the edge count linear
// in queue depth).
//
// It also emits edges for granted pre-scheduled locks that have not become
// normal yet: their owner (a semi-converted T/O transaction, §4.2 rule 4)
// cannot release until every conflicting earlier grant releases, so those
// waits are part of the blocking structure Theorem 2's induction reasons
// about — omitting them hides deadlock cycles that thread through an
// await-normal transaction (e.g. T/O-awaiting-normal → T/O reader → 2PL →
// back).
func (q *dataQueue) waitEdges(emit func(waiter, holder *entry)) {
	var prevUngranted *entry
	for _, e := range q.entries {
		if e.granted {
			continue
		}
		for _, g := range q.granted {
			if g.txn != e.txn && blocksUnderRule(e, g) {
				emit(e, g)
			}
		}
		if prevUngranted != nil && prevUngranted.txn != e.txn {
			emit(e, prevUngranted)
		}
		prevUngranted = e
	}
	for _, e := range q.granted {
		if e.normalSent {
			continue
		}
		for _, o := range q.granted {
			if o.txn != e.txn && o.grantSeq < e.grantSeq && model.LocksConflict(e.lock, o.lock) {
				emit(e, o)
			}
		}
	}
}
