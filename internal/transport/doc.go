// Package transport carries engine envelopes between processes over TCP,
// turning the in-process actor system into the real distributed deployment
// (cmd/uccnode + cmd/uccclient).
//
// A Node binds one process's runtime to a static Topology (actor address →
// peer name → TCP address); Topology.Assign must be a pure function of the
// address, because a node resolves each destination once, on the first send
// to it, and remembers the answer. Outbound envelopes are enqueued per peer
// and drained by one writer goroutine per peer, which encodes the whole backlog
// into a buffered writer and flushes once per drained batch (plus at a byte
// threshold mid-batch) — one framed write instead of one syscall per
// envelope. Batching is purely load-adaptive: an idle connection flushes
// each lone envelope immediately; a busy one coalesces everything that
// queued during the previous flush.
//
// Wire format (version 11, ack 0xCB, 0xC0 | the version): a dialer opens
// every connection with a single version byte and sends nothing more until
// it has read the listener's one-byte ack; then a stream of
// length-prefixed binary frames follows (internal/wire: a one-byte header
// holding the message tag, one-byte actor addresses, explicit varint field
// encoders with stamps as deltas within a message, pooled buffers, no
// reflection; zero steady-state encode allocations for the fixed-shape
// hot-path messages). Each frame codes its transaction Seq and its anchor
// stamp against the previous frame's on the connection, and leaves out the
// addresses the last frame of its tag carried, so the frame writer and
// reader of a connection carry that state from frame to frame; both are
// built new with every connection. A listener closes any connection whose
// first byte is not the version rather than decode a misframed stream; a
// dialer whose peer closes, stalls past handshakeTimeout, or answers a
// different byte has failed to connect — the same outcome as a refused
// dial. So a v10 node and a v11 node refuse each other in both directions.
// A process-local message (a timer, the WAL offload pair, a simulator
// fault) has no encoding: addressed to a peer, it is dropped like any other
// unencodable envelope — NAK'd if sheddable, counted in QueueStats'
// dropped, never written. Frames carrying a message tag this build doesn't
// know are skipped, not fatal, and leave the stream state and the address
// memo alone — a newer peer's appended message types must not sever the
// stream mid-upgrade. Node.Wire() exposes metrics.WireCounters (msgs/bytes
// each way, completed outbound handshakes, skipped frames).
//
// Message ownership: the node is the runtime's uplink and owns every message
// it is handed; nothing is copied on the way through. A pooled message
// (model/wirepool.go) rides in its envelope on the outbox and is recycled
// where the envelope leaves the node for good — after the writer's final
// outcome for its batch (flushed, or dropped and NAK'd; never between a
// failed write and its retry), or where it is removed from the outbox (cap
// eviction, unencodable). Read loops decode into the same pools and hand the
// envelope to the local-only delivery func Runtime.SetUplink returned; the
// destination's mailbox loop recycles.
//
// Failure model: messages are best-effort with one retry. A batch that
// fails mid-write retires its connection — socket, buffered writer, and
// frame writer are all discarded together, so a half-written frame cannot
// leak into a replacement connection's stream and the replacement's frames
// are coded from a fresh stream state, as its reader expects — and is
// re-sent whole on a fresh dial exactly once. A peer that cannot be dialed or fails the
// handshake drops traffic (the protocol tolerates that as a crashed site),
// but a dropped batch's sheddable envelopes are first NAK'd back to their
// local senders so the issuing attempts abort instead of stranding (a
// request batch NAKs every member, each with its own BusyMsg); a
// bounced peer may see duplicates from the retried batch, which the
// protocol's attempt tagging absorbs. Per-peer FIFO is preserved end to end:
// one outbox, one writer, retry-before-next-batch.
//
// Backpressure: each peer outbox can be bounded (Node.SetSendQueueCap).
// When an enqueue would exceed the cap, the OLDEST queued sheddable
// envelope (model.Sheddable — new-work openers) is dropped to make room,
// and its BusyMsg NAKs — one per copy it carried — are delivered back to the
// local sender — the same
// refusal a full engine mailbox delivers, so the issuer aborts the attempt
// (freeing its requests at other sites) instead of waiting forever. Stale
// requests are regenerated by issuer restarts anyway, and the newest
// traffic is the most likely to still matter. Protocol-completion traffic
// (releases, grants, NAKs) is never evicted, mirroring the engine's mailbox
// policy: dropping a release to a live-but-slow peer would strand its locks
// forever. The cap holds precisely in the regimes where unbounded outboxes
// used to melt the node: a writer stuck in a 3-second dial to a dead peer,
// or retrying a batch across a peer restart (the in-flight batch is
// accounted separately from the outbox, so a reconnect neither
// double-shrinks the budget nor loses drop counts — see Node.QueueStats).
package transport
