package ri

import "ucc/internal/model"

// reuse pops a finished transaction's state off a free list, or returns a
// new zero state when the list is empty.
func reuse[S any](free *[]*S) *S {
	n := len(*free)
	if n == 0 {
		return new(S)
	}
	s := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return s
}

// maxKeptCopies caps the copies a recycled state was built for: far above
// any workload transaction's, far below a size worth pinning. Go maps never
// shrink, so a state that held more is left to the garbage collector rather
// than kept on a free list for the life of the issuer.
const maxKeptCopies = 64

// recycleTxn puts the state of a transaction that has left ri.active on the
// free list, zeroed but for its reqs map, its copy slab (fillRequests clears
// and refills both) and its transaction's item slab and specs array (the
// next submit copies into them). The caller must not touch s afterwards: the
// next submit may hand it to another transaction. Stale messages for the
// finished one cannot reach it, because they look their state up by
// transaction id.
func (ri *Issuer) recycleTxn(s *txnState) {
	if cap(s.order) > maxKeptCopies || oversized(&s.txn, s.items) {
		return
	}
	*s = txnState{reqs: s.reqs, order: s.order[:0], txn: model.Txn{Specs: s.txn.Specs[:0]}, items: s.items[:0]}
	ri.freeTxns = append(ri.freeTxns, s)
}

// recycleRO is recycleTxn for a read-only snapshot transaction that has left
// ri.roActive; it keeps the pending map, cleared. The map held one entry
// per item read, as the item slab did.
func (ri *Issuer) recycleRO(s *roState) {
	if oversized(&s.txn, s.items) {
		return
	}
	clear(s.pending)
	*s = roState{pending: s.pending, txn: model.Txn{Specs: s.txn.Specs[:0]}, items: s.items[:0]}
	ri.freeROs = append(ri.freeROs, s)
}

// oversized reports whether a finished transaction's item slab or specs
// array grew past maxKeptCopies.
func oversized(t *model.Txn, items []model.ItemID) bool {
	return cap(items) > maxKeptCopies || cap(t.Specs) > maxKeptCopies
}
