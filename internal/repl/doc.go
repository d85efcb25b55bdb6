// Package repl implements WAL log-shipping catch-up for quorum-replicated
// partitions: the anti-entropy loop that lets a recovering or lagging
// replica converge on writes it missed while crashed or excluded from a
// write quorum.
//
// # Protocol
//
// Every site in a quorum-replicated cluster runs a Puller that tracks, per
// peer, a catch-up watermark: the highest sequence number of that peer's WAL
// it has already applied. On a periodic tick the site sends each peer a
// model.ReplPullMsg carrying its watermark; the peer answers with a
// model.ReplRecordsMsg holding the durable records past it, batched and
// framed with the WAL's own varint record codec (crc32C + flagged length
// word + varint payload — the batch on the wire is byte-identical to the
// segment bytes it came from, so DecodeRecordFrames hardens replay and
// shipping with one decoder). The receiver replays each record through
// storage.ApplyShipped behind the owning queue-manager shard's lock and the
// store's writer/snapshot barrier, then advances the watermark to the
// reply's NextAfterSeq. A full batch (More) triggers an immediate re-pull; a
// torn frame ends the batch early without advancing past it.
//
// # Idempotence
//
// ApplyShipped gates on the commit stamp, not the shipped version ordinal:
// per-copy ordinals diverge under quorum replication (a copy that missed a
// write assigns latest+1 to the next write it does see), while commit stamps
// of conflicting writes are strictly ordered because intersecting write
// quorums (2W > N, enforced by cluster.Validate) serialize their releases
// through a shared copy. A record applies only when strictly newer than the
// chain's newest stamp, so duplicate, overlapping, and re-shipped batches —
// including a full re-ship from sequence zero after the puller crashes and
// resets its watermarks — replay to the same state. Applied records are
// journaled like local writes, so catch-up progress itself survives a later
// crash; they bypass the history recorder exactly like recovery redo, so
// replayed writes fabricate no serializability edges.
//
// # Reset path
//
// A watermark below the peer's oldest retained record (the peer snapshotted
// and truncated its log, or the puller crashed and zeroed its marks) cannot
// be served incrementally. The peer then answers with Reset: the batch
// images the newest durable snapshot's latest versions as synthetic records,
// NextAfterSeq is the snapshot's applied sequence, and the incremental tail
// follows on the next pull.
//
// # Race envelope
//
// A live local Write is not stamp-gated: in principle a freshly shipped
// newer version could be followed by an older in-flight local write, which
// would install it as the newer ordinal. The protocol prevents this in
// practice the same way the group-commit window documents its loss envelope:
// the pull period (default 150ms) dwarfs the maximum one-way delay (~3ms),
// so by the time a record is durable at a peer, pulled, and shipped back,
// every release of an older conflicting write has long been delivered.
// Quorum reads stay sound regardless — W+R > N puts the freshest committed
// write in every read quorum, and the issuer picks the highest commit stamp.
package repl
