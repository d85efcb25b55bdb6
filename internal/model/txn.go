package model

import (
	"fmt"
	"sort"
	"strings"
)

// Op is one logical operation of a transaction: a read or write of a logical
// item. Writes carry the value the transaction will install during its write
// phase; in the read-modify-write case the value is computed during the local
// computing phase and attached to the release message instead.
type Op struct {
	Kind OpKind
	Item ItemID
}

func (o Op) String() string { return fmt.Sprintf("%s(%v)", o.Kind, o.Item) }

// Txn describes a legal transaction (§2): a predeclared read set and write
// set, executed as read phase → local computing phase → write phase. Items
// appearing in both sets are treated as write requests (a WL subsumes the
// read), mirroring static locking practice.
type Txn struct {
	ID TxnID
	// Protocol chosen for this transaction (statically or by the dynamic
	// selector).
	Protocol Protocol
	// ReadSet and WriteSet are the logical items accessed. They are disjoint:
	// the constructor moves read∩write items into WriteSet.
	ReadSet  []ItemID
	WriteSet []ItemID
	// ComputeMicros is the local computing phase duration in microseconds of
	// simulated (or real) time.
	ComputeMicros int64
	// Class is an optional workload class label used by the per-class STL
	// cache (§5.2's "transactions may be categorized into different classes").
	Class string
	// Specs optionally describe the values the write phase installs; items
	// without a spec default to pre-image+1 (a counter increment). Specs are
	// plain data so transactions serialize over the TCP transport.
	Specs []WriteSpec

	// pooled marks a Txn DecodeMessagePooled drew from its pool, and items
	// and specs are the arrays it keeps across recycles (ReadSet and
	// WriteSet share items). All three are zero on every other Txn, so
	// RecycleMessage never touches a caller's (wirepool.go).
	pooled bool
	items  []ItemID
	specs  []WriteSpec
}

// CopyInto copies t into dst so that dst shares no memory with t: the read
// and write sets go into items, emptied and grown as needed, and the specs
// into dst's own Specs array. It returns the item array, which the caller
// keeps and passes again, so copying into a reused dst allocates nothing
// once the arrays have grown. An empty set copies as nil, and so do empty
// specs when dst has no array yet.
func (t *Txn) CopyInto(dst *Txn, items []ItemID) []ItemID {
	nr, n := len(t.ReadSet), t.Size()
	items = append(append(items[:0], t.ReadSet...), t.WriteSet...)
	specs := append(dst.Specs[:0], t.Specs...)
	*dst = Txn{
		ID:            t.ID,
		Protocol:      t.Protocol,
		ReadSet:       subSet(items, 0, nr),
		WriteSet:      subSet(items, nr, n),
		ComputeMicros: t.ComputeMicros,
		Class:         t.Class,
		Specs:         specs,
	}
	return items
}

// subSet returns items[lo:hi] capped, so that appending to one set cannot
// write into the next, or nil when it is empty.
func subSet(items []ItemID, lo, hi int) []ItemID {
	if lo == hi {
		return nil
	}
	return items[lo:hi:hi]
}

// WriteSpec describes the value a transaction's write phase installs for one
// item as a plain-data expression: value = read(Source) + AddConst
// when UseSource, else AddConst. Source must be an item the transaction
// reads or writes (lock grants attach pre-images, so a written item's old
// value is available for read-modify-write).
type WriteSpec struct {
	Item      ItemID
	UseSource bool
	Source    ItemID
	AddConst  int64
}

// SpecFor returns the write spec for item, if any.
func (t *Txn) SpecFor(item ItemID) (WriteSpec, bool) {
	for _, s := range t.Specs {
		if s.Item == item {
			return s, true
		}
	}
	return WriteSpec{}, false
}

// NewTxn builds a legal transaction from possibly-overlapping read and write
// item lists, deduplicating and moving overlaps into the write set.
func NewTxn(id TxnID, p Protocol, reads, writes []ItemID, computeMicros int64) *Txn {
	w := map[ItemID]bool{}
	for _, it := range writes {
		w[it] = true
	}
	r := map[ItemID]bool{}
	for _, it := range reads {
		if !w[it] {
			r[it] = true
		}
	}
	t := &Txn{ID: id, Protocol: p, ComputeMicros: computeMicros}
	for it := range r {
		t.ReadSet = append(t.ReadSet, it)
	}
	for it := range w {
		t.WriteSet = append(t.WriteSet, it)
	}
	sort.Slice(t.ReadSet, func(i, j int) bool { return t.ReadSet[i] < t.ReadSet[j] })
	sort.Slice(t.WriteSet, func(i, j int) bool { return t.WriteSet[i] < t.WriteSet[j] })
	return t
}

// Size returns st, the number of logical items accessed.
func (t *Txn) Size() int { return len(t.ReadSet) + len(t.WriteSet) }

// NumReads returns m(t), the number of read requests.
func (t *Txn) NumReads() int { return len(t.ReadSet) }

// NumWrites returns n(t), the number of write requests.
func (t *Txn) NumWrites() int { return len(t.WriteSet) }

// Ops returns the operation list: reads first (read phase order), then
// writes.
func (t *Txn) Ops() []Op {
	ops := make([]Op, 0, t.Size())
	for _, it := range t.ReadSet {
		ops = append(ops, Op{Kind: OpRead, Item: it})
	}
	for _, it := range t.WriteSet {
		ops = append(ops, Op{Kind: OpWrite, Item: it})
	}
	return ops
}

// Writes reports whether the transaction writes item.
func (t *Txn) Writes(item ItemID) bool {
	for _, it := range t.WriteSet {
		if it == item {
			return true
		}
	}
	return false
}

func (t *Txn) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[%s", t.ID, t.Protocol)
	for _, op := range t.Ops() {
		fmt.Fprintf(&b, " %s", op)
	}
	b.WriteString("]")
	return b.String()
}

// TxnOutcome enumerates terminal states of one transaction attempt.
type TxnOutcome uint8

const (
	// OutcomeCommitted: the attempt executed and released its locks.
	OutcomeCommitted TxnOutcome = iota
	// OutcomeRejected: a T/O request arrived out of timestamp order and the
	// attempt restarts with a new timestamp.
	OutcomeRejected
	// OutcomeDeadlockVictim: the 2PL attempt was chosen as a deadlock victim
	// and restarts.
	OutcomeDeadlockVictim
	// OutcomeShed: the admission controller refused the transaction at
	// submission (in-flight window full or token bucket empty). The
	// transaction never issued a request; shedding it is what keeps goodput
	// near peak when offered load exceeds capacity.
	OutcomeShed
	// OutcomeBusy: a saturated queue manager NAK'd one of the attempt's
	// requests with BusyMsg and the attempt aborted (read-write transactions
	// restart under backoff; read-only snapshot transactions are shed).
	OutcomeBusy
)

func (o TxnOutcome) String() string {
	switch o {
	case OutcomeCommitted:
		return "committed"
	case OutcomeRejected:
		return "rejected"
	case OutcomeDeadlockVictim:
		return "deadlock-victim"
	case OutcomeShed:
		return "shed"
	case OutcomeBusy:
		return "busy"
	default:
		return fmt.Sprintf("TxnOutcome(%d)", uint8(o))
	}
}
