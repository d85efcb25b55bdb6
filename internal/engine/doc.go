// Package engine defines the actor abstraction shared by the deterministic
// virtual-time simulator (internal/sim) and the real-time goroutine runtime
// (this package). Protocol state machines — queue managers, request issuers,
// the deadlock coordinator, workload drivers — are written once against
// Actor/Context and run unchanged on either engine, and across the TCP
// transport.
//
// The package also defines the address space (one Addr per actor role and
// site) and the pluggable network LatencyModel, which the simulator applies
// to every send. Latency jitter is load-bearing for the protocols: without it
// every queue sees requests in timestamp order and T/O never rejects. The
// models are bounded, which is also what the read-only snapshot fast path's
// staleness margin leans on — a release older than the margin has always
// arrived. The real-time runtime applies no model: a send there is a mailbox
// push (or a hand-off to the transport) completed before Send returns.
//
// Backpressure: the real-time runtime's mailboxes can be bounded
// (Runtime.SetMailboxDepth). A sheddable message (model.Sheddable — the
// new-work openers, RequestMsg, RequestBatchMsg and SnapReadMsg) arriving at
// a full mailbox is NAK'd back to its sender instead of enqueued, one
// model.BusyMsg per copy it carried (every member of a batch);
// protocol-completion messages (grants, releases, aborts) always enqueue,
// even past the bound, because dropping one would strand locks forever.
// Nothing ever blocks a sender, which is what makes the bound
// deadlock-free. The virtual-time simulator needs no mailbox bound — its
// equivalent pressure point is the queue manager's MaxQueueDepth.
package engine
