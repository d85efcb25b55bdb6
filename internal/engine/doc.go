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
// Blocking work: an actor never blocks its mailbox loop. Work that must
// block — the queue manager's WAL sync — goes through Offload, which runs
// it elsewhere and answers with a message to the actor itself: on the
// real-time runtime one long-lived worker goroutine per address runs it, in
// call order, and Shutdown joins the workers; the simulator runs it in line
// and delivers the answer before any other event of the same instant, so
// offloading changes no seeded run. A context without the Offloader method
// (a test fake) runs the work in line, and the caller applies its result at
// once.
//
// Timers: Context.SetTimer with a positive delay sends the message to the
// actor itself that much later; with none it goes straight to the mailbox.
// The simulator schedules a timer as one more event. The real-time runtime
// keeps every pending timer of every actor in one heap ordered by due time,
// then by arming order, fired by one time.Timer set to the earliest due: so
// timers fire in due order, equal dues in the order they were armed, arming
// one allocates nothing once the heap has grown, and Shutdown drops every
// timer still pending.
//
// Backpressure: the real-time runtime's mailboxes can be bounded
// (Runtime.SetMailboxDepth). A sheddable message (model.Sheddable — the
// new-work openers, RequestMsg, RequestBatchMsg, SnapReadMsg and
// SnapReadBatchMsg) arriving at a full mailbox is NAK'd back to its sender
// instead of enqueued, one
// model.BusyMsg per copy it carried (every member of a batch);
// protocol-completion messages (grants, releases, aborts) always enqueue,
// even past the bound, because dropping one would strand locks forever.
// Nothing ever blocks a sender, which is what makes the bound
// deadlock-free. The virtual-time simulator needs no mailbox bound — its
// equivalent pressure point is the queue manager's MaxQueueDepth.
package engine
