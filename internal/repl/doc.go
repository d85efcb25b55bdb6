// Package repl implements WAL log-shipping catch-up for quorum-replicated
// partitions: the anti-entropy loop that lets a recovering or lagging
// replica converge on writes it missed while crashed or excluded from a
// write quorum.
//
// # Protocol
//
// Every site in a quorum-replicated cluster runs a Puller that tracks, per
// peer, a catch-up watermark: the highest sequence number of that peer's WAL
// it has already examined. On a periodic tick the site sends each peer a
// model.ReplPullMsg carrying its watermark and its journal digest (Have):
// the newest commit stamp per item it journaled — local and shipped writes
// alike — since its previous tick, item-sorted and varint-delta coded
// (AppendHave/DecodeHave). The peer answers with a model.ReplRecordsMsg
// holding the synced records past the watermark that the puller is not known
// to hold already (Peer knowledge, below), batched and framed with the WAL's
// own varint record codec (crc32C + flagged length word + varint payload —
// the batch on the wire is byte-identical to the segment bytes holding those
// records, so DecodeRecordFrames hardens replay and shipping with one
// decoder). The peer serves from wal.SiteLog's in-memory tail of recent
// records; only a mark older than the tail makes it read its segments. The
// receiver replays each record through storage.ApplyShipped behind the
// owning queue-manager shard's lock and the store's writer/snapshot barrier,
// then advances the watermark to the reply's NextAfterSeq, which also
// covers the records that were left out. A batch cut at its bound (More)
// triggers an immediate re-pull, without a digest, provided the watermark
// moved; a torn frame ends the batch early without advancing past it, and
// the next tick re-pulls.
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
// # Peer knowledge
//
// Shipping every record of every log sends each write W-fold, and sends
// every shipped record back as an echo once the receiver has journaled it;
// the stamp gate skips all of it on arrival. Known is the serving side's
// remedy: per pulling peer, the newest stamp per item the peer is believed
// to hold. It leaves a record out of that peer's batch exactly when the
// record's stamp is at or below the table's — ApplyShipped's own gate,
// evaluated one hop earlier — so nothing is withheld that the peer would
// have installed. With an empty table everything ships, as before; there is
// no second mode.
//
// Two things feed a peer's table. The frames the peer itself ships are
// durable in its log. The digests its pulls carry are not: a digest names
// journaled writes, synced or not, so it is a claim about the peer's
// volatile state, and a crash can make it false. Soundness is one rule:
// whenever the peer may have lost that state, the whole table goes. A peer
// that crashed zeroes its watermarks (Puller.ResetAll), so its next pull
// arrives with AfterSeq 0 — Known.Serve forgets the peer first and then
// folds in only that pull's own digest, which wal.SiteLog collected after
// the crash (Crash drops the pending digest with the tail). A Reset reply
// re-images the peer and forgets it the same way. Pulls and replies travel
// per-pair FIFO on both engines, so every pre-crash digest reaches the
// server before the post-crash pull that voids it. A missing, overflowed or
// undecodable digest (FuzzHaveDigest) is no digest: that pull teaches
// nothing. The tables are bounded, dropped on a placement change (a copy
// that moves away and back is refilled by transfer, not from what it once
// reported) and on the serving site's own crash; forgetting only ships
// more.
//
// # Reset path
//
// A watermark below everything the peer still holds — older than its
// in-memory tail and below the snapshot that truncated its segments —
// cannot be served incrementally. That is the puller's state after a crash
// zeroed its marks, the peer's after a restart emptied its tail, or that of
// a puller further behind than both tail and log; a snapshot taken between
// two pulls of a live puller is not one of them, because the tail still
// covers its mark. The peer then answers with Reset: the batch images the
// newest durable snapshot's latest versions as synthetic records,
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
//
// One window is open, and predates peer knowledge: a reply is not tied to the
// incarnation of the puller that asked for it. If a site crashes and
// recovers within one round trip, the reply to a pull it sent before the
// crash arrives after ResetAll and advances a zeroed watermark, so the
// records below that mark which the crash destroyed are not offered again
// until something newer overwrites them; its next pull then carries a
// non-zero AfterSeq, so a peer also keeps — and acts on — what the pre-crash
// digests claimed. An outage longer than a round trip closes it (a down site
// ignores replies), which is every crash the simulator's scenarios and a
// real process restart produce. It is documented, not fixed here.
package repl
