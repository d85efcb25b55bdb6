package history

import (
	"fmt"
	"sort"
	"sync"

	"ucc/internal/model"
)

// Entry is one implemented operation in a physical item's log.
type Entry struct {
	Txn  model.TxnID
	Kind model.OpKind
	// Seq is the global implementation sequence number (monotone across all
	// logs), useful for debugging interleavings.
	Seq uint64
}

// Recorder accumulates the logs of an execution. Safe for concurrent use
// (the real-time runtime implements operations from many goroutines).
type Recorder struct {
	mu        sync.Mutex
	seq       uint64
	logs      map[model.CopyID][]Entry
	committed map[model.TxnID]model.Protocol
	// writes counts the write entries in each copy's log, so the common
	// snapshot read — one that observed the newest version — appends in
	// O(1) instead of scanning the log to find its position.
	writes map[model.CopyID]uint64
}

// NewRecorder returns an empty execution record.
func NewRecorder() *Recorder {
	return &Recorder{
		logs:      map[model.CopyID][]Entry{},
		committed: map[model.TxnID]model.Protocol{},
		writes:    map[model.CopyID]uint64{},
	}
}

// Implemented appends an implemented operation to copy's log. Per §4.3,
// 2PL/PA operations are implemented when their locks are released; a T/O
// operation is implemented when its lock is converted to a semi-lock or
// released, whichever is first.
func (r *Recorder) Implemented(c model.CopyID, txn model.TxnID, kind model.OpKind) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	r.logs[c] = append(r.logs[c], Entry{Txn: txn, Kind: kind, Seq: r.seq})
	if kind == model.OpWrite {
		r.writes[c]++
	}
}

// ImplementedReadAt records a snapshot read of copy c positioned by the
// version it observed: the read entry is inserted into the log immediately
// before the (version+1)-th write (i.e. after the write that produced the
// version read, and after any reads already recorded against it), or
// appended when no newer write exists yet. Position is what the conflict
// graph is built from, so a snapshot read of an older version must sit
// before the writes it did not see — appending it at wall-clock order would
// fabricate inverted conflict edges.
//
// The correspondence used here — the k-th write entry in a copy's log is the
// write that produced version k — holds because every implemented write
// increments the copy's version by exactly one and is recorded exactly once
// (aborted attempts never implement writes).
func (r *Recorder) ImplementedReadAt(c model.CopyID, txn model.TxnID, version uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	entry := Entry{Txn: txn, Kind: model.OpRead, Seq: r.seq}
	log := r.logs[c]
	total := r.writes[c]
	if version >= total {
		// The common case — the read observed the newest version — appends
		// in O(1); anything else would scan the ever-growing log and make
		// read-heavy recorded runs quadratic.
		r.logs[c] = append(log, entry)
		return
	}
	// Older version: find the (version+1)-th write — the (total−version)-th
	// counting backward from the tail, so the cost scales with how stale
	// the read is, not with the log length.
	at := len(log)
	var behind uint64
	for i := len(log) - 1; i >= 0; i-- {
		if log[i].Kind == model.OpWrite {
			behind++
			if behind == total-version {
				at = i
				break
			}
		}
	}
	log = append(log, Entry{})
	copy(log[at+1:], log[at:])
	log[at] = entry
	r.logs[c] = log
}

// Discard removes txn's entries from one copy's log: an aborted T/O attempt
// whose read was recorded at grant time (see qm) never took effect, and
// leaving the stale entry would fabricate conflict edges.
func (r *Recorder) Discard(c model.CopyID, txn model.TxnID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	log := r.logs[c]
	out := log[:0]
	for _, e := range log {
		if e.Txn != txn {
			out = append(out, e)
		} else if e.Kind == model.OpWrite {
			r.writes[c]--
		}
	}
	r.logs[c] = out
}

// Committed marks txn as having executed to completion under protocol p.
// Only committed transactions participate in the serializability check;
// aborted attempts never implement operations (their writes are discarded at
// abort), so they cannot affect other transactions.
func (r *Recorder) Committed(txn model.TxnID, p model.Protocol) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.committed[txn] = p
}

// Log returns a copy of one physical item's log.
func (r *Recorder) Log(c model.CopyID) []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Entry, len(r.logs[c]))
	copy(out, r.logs[c])
	return out
}

// Copies returns every copy id with a non-empty log, sorted.
func (r *Recorder) Copies() []model.CopyID {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]model.CopyID, 0, len(r.logs))
	for c := range r.logs {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Item != out[j].Item {
			return out[i].Item < out[j].Item
		}
		return out[i].Site < out[j].Site
	})
	return out
}

// Result is the outcome of a serializability check.
type Result struct {
	// Serializable reports whether the conflict graph is acyclic.
	Serializable bool
	// Order is a witness serialization order over committed transactions
	// (valid only when Serializable).
	Order []model.TxnID
	// Cycle is a witness conflict cycle (valid only when !Serializable).
	Cycle []model.TxnID
	// Txns is the number of committed transactions considered.
	Txns int
	// Edges is the number of distinct conflict-graph edges.
	Edges int
}

// Check builds the conflict graph over committed transactions from the logs
// and verifies it is acyclic (Theorem 1). It returns a topological witness
// order when serializable and a concrete cycle when not.
func (r *Recorder) Check() Result {
	r.mu.Lock()
	defer r.mu.Unlock()

	adj := map[model.TxnID]map[model.TxnID]bool{}
	nodes := map[model.TxnID]bool{}
	for t := range r.committed {
		nodes[t] = true
		adj[t] = map[model.TxnID]bool{}
	}
	edges := 0
	for _, log := range r.logs {
		for i := 0; i < len(log); i++ {
			oi := log[i]
			if !nodes[oi.Txn] {
				continue
			}
			for j := i + 1; j < len(log); j++ {
				oj := log[j]
				if oj.Txn == oi.Txn || !nodes[oj.Txn] {
					continue
				}
				if !oi.Kind.Conflicts(oj.Kind) {
					continue
				}
				if !adj[oi.Txn][oj.Txn] {
					adj[oi.Txn][oj.Txn] = true
					edges++
				}
			}
		}
	}

	order, cycle := topoSort(nodes, adj)
	return Result{
		Serializable: cycle == nil,
		Order:        order,
		Cycle:        cycle,
		Txns:         len(nodes),
		Edges:        edges,
	}
}

// topoSort returns a topological order of nodes, or a witness cycle if one
// exists. Deterministic: ties broken by TxnID order.
func topoSort(nodes map[model.TxnID]bool, adj map[model.TxnID]map[model.TxnID]bool) (order, cycle []model.TxnID) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[model.TxnID]int{}
	var stack []model.TxnID
	var out []model.TxnID

	sorted := make([]model.TxnID, 0, len(nodes))
	for n := range nodes {
		sorted = append(sorted, n)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Compare(sorted[j]) < 0 })

	var visit func(n model.TxnID) []model.TxnID
	visit = func(n model.TxnID) []model.TxnID {
		color[n] = grey
		stack = append(stack, n)
		succs := make([]model.TxnID, 0, len(adj[n]))
		for s := range adj[n] {
			succs = append(succs, s)
		}
		sort.Slice(succs, func(i, j int) bool { return succs[i].Compare(succs[j]) < 0 })
		for _, s := range succs {
			switch color[s] {
			case white:
				if c := visit(s); c != nil {
					return c
				}
			case grey:
				// Found a cycle: slice the stack from s onward.
				for i, v := range stack {
					if v == s {
						c := make([]model.TxnID, len(stack)-i)
						copy(c, stack[i:])
						return c
					}
				}
			}
		}
		color[n] = black
		stack = stack[:len(stack)-1]
		out = append(out, n)
		return nil
	}
	for _, n := range sorted {
		if color[n] == white {
			if c := visit(n); c != nil {
				return nil, c
			}
		}
	}
	// out is reverse topological order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out, nil
}

// VerifyTimestampOrder checks the T/O-specific invariant used in unit tests:
// within each log, operations implemented by T/O transactions appear in
// nondecreasing timestamp order when conflicting. tsOf maps a transaction to
// its final timestamp (or false if not a T/O transaction).
func (r *Recorder) VerifyTimestampOrder(tsOf func(model.TxnID) (model.Timestamp, bool)) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for copyID, log := range r.logs {
		for i := 0; i < len(log); i++ {
			ti, ok := tsOf(log[i].Txn)
			if !ok {
				continue
			}
			for j := i + 1; j < len(log); j++ {
				if log[j].Txn == log[i].Txn || !log[i].Kind.Conflicts(log[j].Kind) {
					continue
				}
				tj, ok := tsOf(log[j].Txn)
				if !ok {
					continue
				}
				if tj < ti {
					return fmt.Errorf("history: log %v implements %v(ts=%d) before %v(ts=%d)",
						copyID, log[i].Txn, ti, log[j].Txn, tj)
				}
			}
		}
	}
	return nil
}
