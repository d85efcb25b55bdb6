package wal

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"ucc/internal/model"
	"ucc/internal/storage"
)

// Options configure a site's durability pipeline.
type Options struct {
	// SegmentBytes rolls the log to a new segment past this size
	// (default 1 MiB).
	SegmentBytes int
	// SnapshotEvery takes a store snapshot (and truncates the log) after
	// this many journaled records (0 disables automatic snapshots).
	SnapshotEvery uint64
	// GroupCommit serializes concurrent Flush callers through a
	// GroupCommitter so one sync covers every record appended by the
	// concurrently committing transactions. The queue manager already
	// batches — one sync per shard mailbox drain, shards coalesced by its
	// commit sequencer — so this matters only to callers that Flush from
	// several goroutines of their own; under the single-threaded simulator
	// it changes nothing.
	GroupCommit bool
}

// Stats are cumulative durability counters for one site.
type Stats struct {
	// Appends counts journaled write records.
	Appends uint64
	// Syncs counts media syncs of the log (group commit makes
	// Syncs < Appends).
	Syncs uint64
	// Snapshots counts store snapshots written.
	Snapshots uint64
	// Replayed counts records re-applied by the last recovery.
	Replayed uint64
	// RecoveredCopies counts copies restored from the snapshot by the last
	// recovery.
	RecoveredCopies int
	// Recoveries counts Recover/Open-from-existing-media passes.
	Recoveries uint64
}

// SiteLog ties one site's store to its write-ahead log: it implements
// storage.Journal (every implemented write is appended), flushes on the
// queue manager's commit boundaries, takes periodic snapshots, and rebuilds
// the store from snapshot + log tail after a crash.
type SiteLog struct {
	mu    sync.Mutex
	media Media
	store *storage.Store
	opts  Options
	log   *Log // nil while crashed
	gc    *GroupCommitter

	sinceSnap uint64
	// lastSnapSeq is the AppliedSeq of the newest snapshot on media. A new
	// snapshot is only written for a strictly larger seq: rewriting the
	// same name would truncate the only valid snapshot before the new
	// bytes are synced, and a crash in that window bricks the site.
	lastSnapSeq uint64
	stats       Stats
	// snapBuf holds the last snapshot image encoded (see image). It is
	// reused by every snapshot, so it stays at the size of the largest image
	// taken: copies × MaxVersions × 36 B at most, ≈ 2.4 MB for 4 096 copies.
	snapBuf []byte

	// tail holds the newest journaled records in sequence order
	// (tail[i].Seq == tail[0].Seq+i) so catch-up pulls are served without
	// reading media. It grows by append and is cut back to its newer half at
	// tailRecords; a crash empties it. Only the prefix up to synced — the
	// highest sequence number a successful Flush covered — is servable.
	tail   []Record
	synced uint64
	// unreported counts the records at the end of tail that no TakeHave has
	// reported yet.
	unreported int
}

// tailRecords bounds the in-memory tail (56 bytes a record): the newest
// tailRecords/2 records are always held, several pull periods' worth at any
// rate this log sustains. A peer further behind is served from media.
const tailRecords = 1 << 16

// Have is one entry of a site's journal digest: the site journaled a write
// of Item stamped CommitMicros (see TakeHave).
type Have struct {
	Item         model.ItemID
	CommitMicros int64
}

// Open attaches durability to a store. On empty media it seeds an initial
// snapshot of the store as created by the caller (so recovery always has a
// base image); on non-empty media it rebuilds the store from the newest
// valid snapshot plus the intact log tail — the caller's pre-created state
// is discarded in favour of the durable one.
//
// Open does not attach itself as the store's journal; the caller does
// (store.SetJournal(sl)) once it is done with any non-journaled seeding.
func Open(media Media, store *storage.Store, opts Options) (*SiteLog, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 1 << 20
	}
	s := &SiteLog{media: media, store: store, opts: opts}
	if opts.GroupCommit {
		s.gc = NewGroupCommitter(s.flush)
	}
	names, err := media.List()
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		// Fresh site: seed the base image.
		if err := writeSnapshot(media, 0, s.image(0)); err != nil {
			return nil, err
		}
		s.log, err = NewLog(media, opts.SegmentBytes, 1)
		if err != nil {
			return nil, err
		}
		return s, nil
	}
	if err := s.recoverLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// RecordWrite implements storage.Journal: the write is appended to the log
// buffer and becomes durable at the next Flush.
func (s *SiteLog) RecordWrite(item model.ItemID, txn model.TxnID, value int64, version uint64, commitMicros int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		panic("wal: RecordWrite on crashed site log")
	}
	r := Record{Item: item, Txn: txn, Value: value, Version: version, CommitMicros: commitMicros}
	r.Seq = s.log.Append(r)
	if len(s.tail) >= tailRecords {
		s.tail = s.tail[:copy(s.tail, s.tail[tailRecords/2:])]
	}
	s.tail = append(s.tail, r)
	s.unreported++
	s.stats.Appends++
	s.sinceSnap++
}

// TakeHave appends to dst the digest of what this site journaled — local
// and shipped writes alike — since the previous call: the newest commit
// stamp per item, in item order. The entries describe volatile state: a
// journaled write counts before it is synced, so whoever acts on a digest
// must forget it when this site crashes (internal/repl's peer-knowledge
// rule). More records than the tail still holds yield no digest at all,
// which only makes peers ship more.
func (s *SiteLog) TakeHave(dst []Have) []Have {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.unreported
	s.unreported = 0
	if n > len(s.tail) {
		return dst
	}
	base := len(dst)
	for _, r := range s.tail[len(s.tail)-n:] {
		dst = append(dst, Have{Item: r.Item, CommitMicros: r.CommitMicros})
	}
	fresh := dst[base:]
	slices.SortFunc(fresh, func(a, b Have) int {
		if c := cmp.Compare(a.Item, b.Item); c != 0 {
			return c
		}
		return cmp.Compare(b.CommitMicros, a.CommitMicros)
	})
	fresh = slices.CompactFunc(fresh, func(a, b Have) bool { return a.Item == b.Item })
	return dst[:base+len(fresh)]
}

// Flush makes every appended record durable. With GroupCommit enabled,
// concurrent callers share syncs; otherwise the caller syncs directly.
// Flush also takes the periodic snapshot when SnapshotEvery is exceeded.
func (s *SiteLog) Flush() error {
	if s.gc != nil {
		return s.gc.Commit()
	}
	return s.flush()
}

func (s *SiteLog) flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return fmt.Errorf("wal: flush on crashed site log")
	}
	if err := s.log.Flush(); err != nil {
		return err
	}
	s.synced = s.log.NextSeq() - 1
	s.stats.Syncs++
	if s.opts.SnapshotEvery > 0 && s.sinceSnap >= s.opts.SnapshotEvery {
		return s.snapshotLocked()
	}
	return nil
}

// Snapshot forces a store snapshot + log truncation now (everything
// appended must already be flushed or is flushed here first).
func (s *SiteLog) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return fmt.Errorf("wal: snapshot on crashed site log")
	}
	if err := s.log.Flush(); err != nil {
		return err
	}
	s.synced = s.log.NextSeq() - 1
	s.stats.Syncs++
	return s.snapshotLocked()
}

// snapshotLocked requires every appended record flushed: the store state it
// images is then exactly seq ≤ log.NextSeq()-1, all durable.
func (s *SiteLog) snapshotLocked() error {
	applied := s.log.NextSeq() - 1
	if applied <= s.lastSnapSeq {
		s.sinceSnap = 0
		return nil // the existing snapshot already covers everything durable
	}
	// Roll first so every other segment is sealed and fully covered by the
	// snapshot, then image, then prune.
	if err := s.log.Roll(); err != nil {
		return err
	}
	if err := writeSnapshot(s.media, applied, s.image(applied)); err != nil {
		return err
	}
	s.lastSnapSeq = applied
	s.stats.Snapshots++
	s.sinceSnap = 0
	return pruneBefore(s.media, applied, s.log.SegmentName())
}

// image encodes the store, as of appliedSeq, into the site log's reused
// snapshot buffer and returns it; the bytes are valid until the next image.
func (s *SiteLog) image(appliedSeq uint64) []byte {
	s.snapBuf = appendSnapshot(s.snapBuf[:0], appliedSeq, s.store)
	return s.snapBuf
}

// Crash simulates a site power cut at the durability layer: the log buffer,
// the in-memory tail with its unreported digest, and the media's unsynced
// bytes are lost; the synced prefix survives. The caller (queue manager)
// wipes the volatile store itself.
func (s *SiteLog) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = nil
	s.dropTail()
	if c, ok := s.media.(Crasher); ok {
		c.Crash()
	}
}

// dropTail empties the in-memory tail and, with it, the digest TakeHave had
// yet to report: both describe volatile state.
func (s *SiteLog) dropTail() {
	s.tail = s.tail[:0]
	s.unreported = 0
}

// Recover rebuilds the store from the newest valid snapshot plus the intact
// log tail, then reopens the log for appending. It leaves the media in a
// clean state: a fresh post-recovery snapshot and one empty segment, with
// every torn suffix discarded.
func (s *SiteLog) Recover() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recoverLocked()
}

func (s *SiteLog) recoverLocked() error {
	snap, ok, err := newestSnapshot(s.media)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("wal: no valid snapshot on media; cannot recover site %d", s.store.Site())
	}
	if snap.Site != s.store.Site() {
		return fmt.Errorf("wal: media belongs to site %d, not site %d", snap.Site, s.store.Site())
	}
	s.store.Wipe()
	for _, c := range snap.Chains {
		s.store.RestoreChain(c)
	}
	s.dropTail()
	var replayed uint64
	lastSeq, err := Replay(s.media, snap.AppliedSeq, func(r Record) error {
		if !s.store.Has(r.Item) {
			return fmt.Errorf("wal: replayed write to unknown item %v", r.Item)
		}
		s.store.Apply(r.Item, r.Txn, r.Value, r.Version, r.CommitMicros)
		replayed++
		return nil
	})
	if err != nil {
		return err
	}
	s.stats.Replayed = replayed
	s.stats.RecoveredCopies = len(snap.Chains)
	s.stats.Recoveries++
	s.sinceSnap = 0
	s.lastSnapSeq = snap.AppliedSeq
	s.synced = lastSeq
	// Reset the media to a clean base: snapshot at lastSeq, fresh segment
	// at lastSeq+1, torn tails pruned — later replays never hit the
	// damaged suffix of an old segment. When the log tail was empty the
	// existing snapshot IS the base; rewriting it under the same name
	// would truncate the only valid snapshot first, and a crash mid-write
	// would leave the site unrecoverable.
	if lastSeq > snap.AppliedSeq {
		if err := writeSnapshot(s.media, lastSeq, s.image(lastSeq)); err != nil {
			return err
		}
		s.lastSnapSeq = lastSeq
		s.stats.Snapshots++
	}
	s.log, err = NewLog(s.media, s.opts.SegmentBytes, lastSeq+1)
	if err != nil {
		return err
	}
	return pruneBefore(s.media, lastSeq, s.log.SegmentName())
}

// errBatchFull stops a media replay once the batch takes no more records
// (internal flow control, swallowed before returning).
var errBatchFull = fmt.Errorf("wal: records-since batch full")

// shipBatch accumulates one RecordsSince reply; the tail path and the media
// path feed it the same records and so build the same bytes.
type shipBatch struct {
	frames []byte
	next   uint64
	more   bool
	room   int
	skip   func(model.ItemID, int64) bool
}

// add offers the next durable record and reports whether the batch takes
// further ones. A record the peer is known to hold is passed over but still
// moves next; the bound counts shipped records only.
func (b *shipBatch) add(r Record) bool {
	if b.skip != nil && b.skip(r.Item, r.CommitMicros) {
		b.next = r.Seq
		return true
	}
	if b.room == 0 {
		b.more = true
		return false
	}
	b.frames = AppendRecordFrame(b.frames, r)
	b.next = r.Seq
	b.room--
	return true
}

// RecordsSince serves a log-shipping pull (internal/repl): up to max durable
// records with Seq > afterSeq, framed with the record codec so the batch is
// byte-identical to the segment bytes holding them. Records for which skip
// reports true (nil skips none) are left out; next still moves past them.
// next is the last sequence number examined (afterSeq when none); more
// reports the batch was cut at the bound. A mark the in-memory tail covers is
// served from it; an older one is replayed from media; gap reports that
// neither holds the range — afterSeq lies below the newest snapshot's
// applied sequence, those records were truncated away, and the puller must
// be reset from SnapshotRecords instead. Only synced records are served: the
// buffered tail is not yet durable here, so it must not advance a peer's
// watermark (it ships after its flush).
func (s *SiteLog) RecordsSince(afterSeq uint64, max int, skip func(model.ItemID, int64) bool) (frames []byte, next uint64, more, gap bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil, afterSeq, false, false, fmt.Errorf("wal: records-since on crashed site log")
	}
	if max <= 0 {
		max = 512
	}
	b := shipBatch{next: afterSeq, room: max, skip: skip}
	switch {
	case afterSeq >= s.synced:
		// Caught up: nothing durable lies past the mark.
	case len(s.tail) > 0 && afterSeq+1 >= s.tail[0].Seq:
		s.tailSince(afterSeq, &b)
	case afterSeq < s.lastSnapSeq:
		return nil, afterSeq, false, true, nil
	default:
		if err := s.mediaSince(afterSeq, &b); err != nil {
			return nil, afterSeq, false, false, err
		}
	}
	return b.frames, b.next, b.more, false, nil
}

// tailSince feeds b the synced tail records past afterSeq, which the tail
// must cover.
func (s *SiteLog) tailSince(afterSeq uint64, b *shipBatch) {
	for _, r := range s.tail[afterSeq+1-s.tail[0].Seq:] {
		if r.Seq > s.synced || !b.add(r) {
			return
		}
	}
}

// mediaSince feeds b the synced records past afterSeq by replaying the
// segments.
func (s *SiteLog) mediaSince(afterSeq uint64, b *shipBatch) error {
	_, err := Replay(s.media, afterSeq, func(r Record) error {
		if r.Seq > s.synced || !b.add(r) {
			return errBatchFull
		}
		return nil
	})
	if err == errBatchFull {
		err = nil
	}
	return err
}

// SnapshotRecords serves the reset path of a log-shipping pull: one
// synthetic record per copy imaging the newest durable snapshot's latest
// versions (framed like RecordsSince), plus the snapshot's applied sequence
// — the watermark from which the incremental tail continues. Synthetic
// records carry Seq 0: the receiver's apply is stamp-gated, not
// sequence-gated, so the only sequence that matters is the returned
// watermark.
func (s *SiteLog) SnapshotRecords() (frames []byte, appliedSeq uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return nil, 0, fmt.Errorf("wal: snapshot-records on crashed site log")
	}
	snap, ok, err := newestSnapshot(s.media)
	if err != nil {
		return nil, 0, err
	}
	if !ok {
		return nil, 0, fmt.Errorf("wal: no valid snapshot on media at site %d", s.store.Site())
	}
	for _, cc := range snap.Chains {
		v := cc.Versions[len(cc.Versions)-1]
		frames = AppendRecordFrame(frames, Record{
			Item: cc.ID.Item, Txn: v.Writer, Value: v.Value,
			Version: v.Version, CommitMicros: v.CommitMicros,
		})
	}
	return frames, snap.AppliedSeq, nil
}

// GroupStats returns the group committer's cumulative (commits, syncs);
// zeros when GroupCommit is off.
func (s *SiteLog) GroupStats() (commits, syncs uint64) {
	if s.gc == nil {
		return 0, 0
	}
	return s.gc.Stats()
}

// Stats returns the cumulative counters.
func (s *SiteLog) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Media exposes the underlying media (tests, diagnostics).
func (s *SiteLog) Media() Media { return s.media }
