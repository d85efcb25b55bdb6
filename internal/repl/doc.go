// Package repl implements WAL log shipping, the one way a site brings a copy
// up to date from another site's log. Catch-up is the anti-entropy loop that
// lets a recovering or lagging replica of a durable replicated cluster
// converge on writes it missed while crashed or excluded from a write
// quorum. A fill brings the copies a site gained at a map install up from
// their old primary's log. Both are one session type, a pull relationship
// with a watermark, in the manner of Bayou's anti-entropy (Petersen et al.,
// "Flexible Update Propagation for Weakly Consistent Replication", SOSP
// 1997): one session brings a replica up from any earlier state, and falls
// back to a full-state image only when the log was truncated past it.
//
// # Protocol
//
// Every site of a durable cluster with more than one copy per item runs
// catch-up. Its Puller tracks, per peer, a catch-up watermark: the highest
// sequence number of that peer's WAL it has already examined. A periodic tick pulls one peer, the peers taken
// in turn, and re-arms every PeriodMicros divided by the number of peers, so
// each peer is still pulled once per period and a site's pulls are spread
// across the period. The pull is a model.ReplPullMsg carrying the peer's
// watermark and this site's journal digest (Have): the newest commit stamp
// per item it journaled — local and shipped writes alike — since its
// previous pull to that peer (Puller.NextPull keeps a cursor into the
// journal per peer). The digest has one encoding
// (AppendHave/DecodeHave): its items as a model item set, which is a bitmap
// over the span from its first item to its last whenever that is shorter
// than the gap list, as it is when a pull period touched most items; then
// its stamps as fixed-width offsets from the smallest of them, packed at
// the fewest bits that hold the largest, about 18 for a 150 ms period. The
// peer answers with a model.ReplRecordsMsg holding the synced records past
// the watermark of the items its map gives the puller a copy of, less what
// the puller is known to hold already (Peer knowledge, below), in the WAL's
// shipped batch codec (wal.AppendShipped): per record only what the
// puller's apply reads — item, writer, value — with the writer's Seq and
// the commit stamp as deltas against the previous record's, and no
// per-record header or checksum, the message's length prefix delimiting
// the batch. The peer serves from wal.SiteLog's in-memory
// tail of recent records; only a mark older than the tail makes it read its
// segments. The receiver replays each record through storage.ApplyShipped behind the
// owning queue-manager shard's lock and the store's writer/snapshot barrier,
// then advances the watermark to the reply's NextAfterSeq, which also
// covers the records that were left out. A batch cut at its bound (More)
// triggers an immediate re-pull, without a digest, provided the watermark
// moved; a record that does not decode ends the batch early without
// advancing past it, and the next tick re-pulls.
//
// Every site has a Puller, and every site fills. When a site installs a map
// that gives it copies it did not hold, it opens one fill per old primary
// of those items (Puller.OpenFill): a pull relationship of its own for that
// map's epoch, scoped to the items gained from that peer, that starts at
// watermark 0. Its pulls are model.ReplPullMsg with Epoch set and Scope the
// gained items, an item set like the digest's items
// (AppendScope/DecodeScope). The server answers NotReady until it has
// installed that epoch, drained every item it lost, and finished its own
// fills of earlier epochs that cover the scope (Puller.Filling), so the
// last write of a transaction granted under the old map is in what it
// serves even when an item moves on before it has arrived; then it
// serves the fill like a catch-up pull, from its log — or, without
// catch-up, from an image of its store — less every record outside the
// scope, and without reading or changing what it knows about the puller
// (Peer knowledge, below). A scope that does not decode, or is not the one
// encoding of its items — a bitmap the gap list is no longer than, a gap
// list a bitmap beats, set padding — leaves the pull unanswered; it never
// widens the fill to the whole log. A fill is done at
// its first reply with neither More nor NotReady set: the gained items open
// for traffic. The pull tick re-pulls every open fill, so a NotReady answer
// or a lost pull costs one tick; the tick is armed while catch-up runs or a
// fill is open.
//
// Every pull carries the puller's incarnation, which each crash bumps
// (Puller.ResetAll, which zeroes every watermark, the fills' included), and
// the reply echoes it. A reply from another incarnation — the answer to a
// pull sent before a crash the site has since recovered from — is dropped
// whole: applied, it would advance a watermark the crash zeroed past the
// records the crash destroyed, and those would not be offered again until
// something newer overwrote them.
//
// # Idempotence
//
// ApplyShipped gates on the commit stamp, not the shipped version ordinal:
// per-copy ordinals diverge under quorum replication (a copy that missed a
// write assigns latest+1 to the next write it does see), while commit stamps
// of conflicting writes are strictly ordered because intersecting write
// quorums (2W > N, enforced by deploy.Config.Validate) serialize their releases
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
// Shipping every record of every log sends every shipped record back as an
// echo once the receiver has journaled it, and sends a write a site missed
// from every peer that holds it; the stamp gate skips all of it on arrival.
// Known is the serving side's remedy: per pulling peer, the newest stamp per
// item the peer is believed to hold. It leaves a record out of that peer's
// batch exactly when the record's stamp is at or below the table's —
// ApplyShipped's own gate, evaluated one hop earlier — so nothing is
// withheld that the peer would have installed. With an empty table
// everything ships, as before; there is no second mode. The pull schedule is
// what makes the digests count: a write a site missed is held by its other
// peers, the first one pulled ships it, and the site's next pull to another
// holder names it — the digest covers what the site journaled since its
// previous pull to that peer, the shipped record included — so that holder
// leaves it out.
//
// Placement is Serve's other filter, ApplyShipped's unknown-item skip
// evaluated one hop earlier. Under partial replication most of a log is
// items the puller holds no copy of; Serve leaves them out by the serving
// site's installed map. Only a write under a map the serving site has not
// installed yet can be withheld from a puller that needs it. The digest
// follows the same map from the other side: a pull names only the items the
// puller's map gives the pulled peer a copy of, since the peer serves no
// other.
//
// Two things feed a peer's table. The records the peer itself ships are
// durable in its log. The digests its pulls carry are not: a digest names
// journaled writes, synced or not, so it is a claim about the peer's
// volatile state, and a crash can make it false. Soundness is one rule:
// whenever the peer may have lost that state, the whole table goes. A peer
// that crashed zeroes its watermarks (Puller.ResetAll), so its next pull
// arrives with AfterSeq 0 — Known.Serve forgets the peer first and then
// folds in only that pull's own digest, which names nothing from before the
// crash: wal.SiteLog reads digests from its in-memory tail, and Crash
// empties the tail, whatever cursor a digest is read from. A Reset reply
// re-images the peer and forgets it the same way. Pulls and replies travel
// per-pair FIFO on both engines, so every pre-crash digest reaches the
// server before the post-crash pull that voids it. A missing or undecodable
// digest is no digest, and so is one in any form but the one AppendHave
// gives its entries (FuzzHaveDigest): that pull teaches nothing. The
// tables are bounded by the installed map's item count, dropped on a
// placement change and on the serving site's own crash; forgetting only
// ships more.
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
// newest durable snapshot's latest versions as synthetic records, less the
// same records a batch from the log would leave out — the ones the puller
// cannot install, or for a fill those outside its scope —, NextAfterSeq is
// the snapshot's applied sequence, and the incremental tail follows on the
// next pull.
//
// # Race envelope
//
// A record can ship to a copy whose own release of the same write is still
// on its way: the writer's release reached a peer first, the peer journaled
// it, and this copy pulled it. The copy's queue then still holds the
// writer's entry — under W = N every written copy does, since the writer
// committed only once each of them granted. Installing the record early
// would expose the write to readers the queue orders ahead of the writer,
// and the history would no longer be serializable. So the record ends the
// batch like a tear: it and the records after it are skipped, counted as
// skipped, and the watermark stays where it was, so the pulls that follow
// ship them again until the entry is gone. Either the writer's release
// installed the write at its place in the queue's order, and the record
// skips as a duplicate, or — under W < N, where a requested copy that never
// granted gets a withdrawal instead — the withdrawal retired the entry, and
// the record applies. Neither rests on timing.
//
// Past that, a live local Write is not stamp-gated: in principle a freshly
// shipped newer version of another writer could be followed by an older
// in-flight local write, which would install it as the newer ordinal. The
// protocol prevents this in practice the same way the group-commit window
// documents its loss envelope: a record ships to a site no sooner than that
// site's next pull to a peer holding it, and the tick interval — the pull
// period (default 150ms per peer) divided by the site's peers, 75ms with the
// two peers of a three-site cluster — still dwarfs the maximum one-way delay
// (~3ms). So by the time a record is durable at a peer, pulled, and shipped
// back, every release of an older conflicting write has long been delivered.
// Quorum reads stay sound regardless — W+R > N puts the freshest committed
// write in every read quorum, and the issuer picks the highest commit stamp.
package repl
