package qm

import (
	"testing"

	"ucc/internal/model"
	"ucc/internal/storage"
)

// boundedManager builds a single-site manager with a data-queue bound.
func boundedManager(items, bound int) *Manager {
	st := storage.NewStore(0)
	for i := 0; i < items; i++ {
		st.Create(model.ItemID(i), 100)
	}
	return owning(New(0, st, nil, Options{MaxQueueDepth: bound}))
}

// TestQueueBoundNAKsBusy: a request landing on a full data queue must be
// refused with BusyMsg (carrying the request's identity) and not admitted;
// the queue never exceeds its bound, and releases reopen it.
func TestQueueBoundNAKsBusy(t *testing.T) {
	const bound = 3
	m := boundedManager(4, bound)
	ctx := newFakeCtx()

	// 2PL writers conflict, so entries 2..bound stay queued behind the first
	// grant and the queue fills to exactly the bound.
	for i := uint64(1); i <= bound; i++ {
		deliver(m, ctx, ctx.self, req(i, model.TwoPL, model.OpWrite, 0, model.NoTimestamp))
	}
	if got := m.QueueDepth(0); got != bound {
		t.Fatalf("depth = %d, want %d", got, bound)
	}
	if busys := take[model.BusyMsg](ctx); len(busys) != 0 {
		t.Fatalf("premature NAKs: %+v", busys)
	}

	// One past the bound: refused, not admitted, counted.
	deliver(m, ctx, ctx.self, req(99, model.TwoPL, model.OpWrite, 0, model.NoTimestamp))
	busys := take[model.BusyMsg](ctx)
	if len(busys) != 1 {
		t.Fatalf("busy NAKs = %d, want 1", len(busys))
	}
	if busys[0].Txn.Seq != 99 || busys[0].Copy.Item != 0 {
		t.Fatalf("NAK identity wrong: %+v", busys[0])
	}
	if got := m.QueueDepth(0); got != bound {
		t.Fatalf("depth after NAK = %d, want %d (refused request must not be admitted)", got, bound)
	}
	if s := m.Snapshot(); s.Busy != 1 {
		t.Fatalf("Busy counter = %d, want 1", s.Busy)
	}
	if high := m.DepthHighWater(); high > bound {
		t.Fatalf("depth high-water %d exceeded bound %d", high, bound)
	}

	// Another item's queue is empty: no NAK there.
	deliver(m, ctx, ctx.self, req(100, model.TwoPL, model.OpWrite, 1, model.NoTimestamp))
	if busys := take[model.BusyMsg](ctx); len(busys) != 0 {
		t.Fatalf("NAK on an empty queue: %+v", busys)
	}

	// Release the head: the queue reopens and the retry is admitted.
	deliver(m, ctx, ctx.self, release(1, 0, true, 7))
	deliver(m, ctx, ctx.self, req(99, model.TwoPL, model.OpWrite, 0, model.NoTimestamp))
	if busys := take[model.BusyMsg](ctx); len(busys) != 0 {
		t.Fatalf("retry after release still NAK'd: %+v", busys)
	}
	if got := m.QueueDepth(0); got != bound {
		t.Fatalf("depth after retry = %d, want %d", got, bound)
	}
}

// TestQueueBoundSparesResidentTxns: a transaction already resident in the
// queue (a PA re-request, an attempt replacement) is never NAK'd by the
// bound — re-admission does not grow the queue, and refusing it would strand
// the negotiation.
func TestQueueBoundSparesResidentTxns(t *testing.T) {
	const bound = 2
	m := boundedManager(2, bound)
	ctx := newFakeCtx()

	deliver(m, ctx, ctx.self, req(1, model.TwoPL, model.OpWrite, 0, model.NoTimestamp))
	deliver(m, ctx, ctx.self, req(2, model.TwoPL, model.OpWrite, 0, model.NoTimestamp))
	take[model.BusyMsg](ctx)

	// Txn 2 re-requests with a higher attempt: resident, so admitted even at
	// the bound.
	r := req(2, model.TwoPL, model.OpWrite, 0, model.NoTimestamp)
	r.Attempt = 1
	deliver(m, ctx, ctx.self, r)
	if busys := take[model.BusyMsg](ctx); len(busys) != 0 {
		t.Fatalf("resident re-request NAK'd: %+v", busys)
	}
	if got := m.QueueDepth(0); got != bound {
		t.Fatalf("depth = %d, want %d", got, bound)
	}
}
