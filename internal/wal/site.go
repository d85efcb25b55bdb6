package wal

import (
	"fmt"
	"math"
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
	// batches — at most one sync in flight per shard, shards coalesced by
	// its own GroupCommitter over Flush — so this matters only to callers
	// that Flush from several goroutines of their own; under the
	// single-threaded simulator it changes nothing.
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
	// syncMu serializes everything that writes media — flushes, snapshots,
	// recovery — and is held across a flush's sync. mu guards the in-memory
	// state and is released for a flush's sync, so RecordWrite, HaveSince
	// and RecordsSince do not wait for it. They do wait for a snapshot:
	// snapshotLocked syncs the log, rolls it and writes the image under mu,
	// once per SnapshotEvery records. Lock order: syncMu, then mu.
	syncMu sync.Mutex
	mu     sync.Mutex
	media  Media
	store  *storage.Store
	opts   Options
	log    *Log // nil while crashed
	gc     *GroupCommitter

	sinceSnap uint64
	// lastSnapSeq and lastSnapGen name the newest snapshot on media
	// (snapName), and snapCopies counts the copies it images. A snapshot is
	// only written when the store changed since: a record was journaled
	// (a larger seq) or a copy was created (a larger count; copies are
	// never removed), the second under the next generation. It never reuses
	// a name: rewriting the newest snapshot would truncate the only valid
	// one before the new bytes are synced, and a crash in that window
	// bricks the site.
	lastSnapSeq uint64
	lastSnapGen uint64
	snapCopies  int
	stats       Stats
	// snapBuf holds the last snapshot image encoded (see image). It is
	// reused by every snapshot, so it stays at the size of the largest image
	// taken: copies × MaxVersions × 36 B at most, ≈ 2.4 MB for 4 096 copies.
	snapBuf []byte

	// tail holds the newest journaled records in sequence order
	// (tail[i].Seq == tail[0].Seq+i) so catch-up pulls are served without
	// reading media, and this site's own pulls name what it journaled
	// (HaveSince). It grows by append and is cut back to its newer half at
	// tailRecords; a crash empties it. Only the prefix up to synced — the
	// highest sequence number a successful Flush covered — is servable.
	tail   []Record
	synced uint64

	// newest is HaveSince's scratch, indexed by item: the newest commit
	// stamp of the item among the records one call walks, valid where its
	// call equals haveCalls. Walking it in index order yields the digest in
	// item order without sorting.
	newest    []haveSlot
	haveCalls uint64
}

type haveSlot struct {
	call  uint64
	stamp int64
}

// tailRecords bounds the in-memory tail (56 bytes a record): the newest
// tailRecords/2 records are always held, several pull periods' worth at any
// rate this log sustains. A peer further behind is served from media.
const tailRecords = 1 << 16

// Have is one entry of a site's journal digest: the site journaled a write
// of Item stamped CommitMicros (see HaveSince).
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
		if err := writeSnapshot(media, 0, 0, s.image(0)); err != nil {
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
	s.stats.Appends++
	s.sinceSnap++
}

// HaveSince appends to dst the digest of what this site journaled — local
// and shipped writes alike — past sequence afterSeq: the newest commit stamp
// per item over the tail's records with Seq > afterSeq (the whole tail when
// afterSeq precedes it), in item order. through is the newest sequence the
// digest covers, the afterSeq of the next call (afterSeq itself when the
// tail holds nothing newer). The entries describe volatile state: a
// journaled write counts before it is synced, so whoever acts on a digest
// must forget it when this site crashes (internal/repl's peer-knowledge
// rule). A crash empties the tail, so no digest taken after it names a write
// from before it, whatever afterSeq says; a write the tail no longer holds
// is left out, which only makes peers ship more.
func (s *SiteLog) HaveSince(afterSeq uint64, dst []Have) (have []Have, through uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.tail) == 0 || s.tail[len(s.tail)-1].Seq <= afterSeq {
		return dst, afterSeq
	}
	from := 0
	if afterSeq >= s.tail[0].Seq {
		from = int(afterSeq + 1 - s.tail[0].Seq)
	}
	// Items index the placement, so they are never negative.
	s.haveCalls++
	call := s.haveCalls
	lo, hi := model.ItemID(math.MaxInt32), model.ItemID(-1)
	for _, r := range s.tail[from:] {
		if int(r.Item) >= len(s.newest) {
			s.newest = append(s.newest, make([]haveSlot, int(r.Item)+1-len(s.newest))...)
		}
		slot := &s.newest[r.Item]
		if slot.call != call {
			*slot = haveSlot{call: call, stamp: r.CommitMicros}
		} else if r.CommitMicros > slot.stamp {
			slot.stamp = r.CommitMicros
		}
		lo, hi = min(lo, r.Item), max(hi, r.Item)
	}
	for item := lo; item <= hi; item++ {
		if slot := s.newest[item]; slot.call == call {
			dst = append(dst, Have{Item: item, CommitMicros: slot.stamp})
		}
	}
	return dst, s.tail[len(s.tail)-1].Seq
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

// flush writes the buffered records out under mu, then syncs them with mu
// released: records journaled meanwhile stay buffered for the next flush,
// and synced advances only to the last record written before the sync. A
// Crash during the sync fails the flush — the records it covered may or may
// not have reached the media, and the log they were appended to is gone.
func (s *SiteLog) flush() error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.mu.Lock()
	l := s.log
	if l == nil {
		s.mu.Unlock()
		return fmt.Errorf("wal: flush on crashed site log")
	}
	w, err := l.write()
	upTo := l.NextSeq() - 1
	s.mu.Unlock()
	if err != nil {
		return err
	}
	err = w.Sync()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log != l {
		return fmt.Errorf("wal: site log crashed during flush")
	}
	if err := l.synced(err); err != nil {
		return err
	}
	s.synced = upTo
	s.stats.Syncs++
	if s.opts.SnapshotEvery > 0 && s.sinceSnap >= s.opts.SnapshotEvery {
		return s.snapshotLocked()
	}
	return nil
}

// Snapshot forces a store snapshot + log truncation now (everything
// appended must already be flushed or is flushed here first). A copy created
// since the last snapshot (one gained at a map install) is imaged even when
// nothing was journaled, so it survives a crash.
func (s *SiteLog) Snapshot() error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
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

// snapshotLocked images the store as of every appended record, so it first
// flushes what was journaled since the last flush (RecordWrite runs during a
// flush's sync): the store state it images is then exactly
// seq ≤ log.NextSeq()-1, all durable. It writes nothing when the store has
// not changed since the newest snapshot. Callers hold syncMu and mu.
func (s *SiteLog) snapshotLocked() error {
	if s.synced != s.log.NextSeq()-1 {
		if err := s.log.Flush(); err != nil {
			return err
		}
		s.synced = s.log.NextSeq() - 1
		s.stats.Syncs++
	}
	applied := s.log.NextSeq() - 1
	var gen uint64
	if applied <= s.lastSnapSeq {
		if s.store.Len() == s.snapCopies {
			s.sinceSnap = 0
			return nil // the existing snapshot already images the store
		}
		gen = s.lastSnapGen + 1
	}
	// Roll first so every other segment is sealed and fully covered by the
	// snapshot, then image, then prune.
	if err := s.log.Roll(); err != nil {
		return err
	}
	if err := writeSnapshot(s.media, applied, gen, s.image(applied)); err != nil {
		return err
	}
	s.lastSnapSeq, s.lastSnapGen = applied, gen
	s.stats.Snapshots++
	s.sinceSnap = 0
	return pruneBefore(s.media, applied, gen, s.log.SegmentName())
}

// image encodes the store, as of appliedSeq, into the site log's reused
// snapshot buffer and returns it; the bytes are valid until the next image.
func (s *SiteLog) image(appliedSeq uint64) []byte {
	s.snapCopies = s.store.Len()
	s.snapBuf = appendSnapshot(s.snapBuf[:0], appliedSeq, s.store)
	return s.snapBuf
}

// Crash simulates a site power cut at the durability layer: the log buffer,
// the in-memory tail, and the media's unsynced bytes are lost; the synced
// prefix survives. The caller (queue manager) wipes the volatile store
// itself.
func (s *SiteLog) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.log = nil
	s.tail = s.tail[:0]
	if c, ok := s.media.(Crasher); ok {
		c.Crash()
	}
}

// Recover rebuilds the store from the newest valid snapshot plus the intact
// log tail, then reopens the log for appending. It leaves the media in a
// clean state: a fresh post-recovery snapshot and one empty segment, with
// every torn suffix discarded.
func (s *SiteLog) Recover() error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
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
	s.tail = s.tail[:0]
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
	s.lastSnapSeq, s.lastSnapGen, s.snapCopies = snap.AppliedSeq, snap.gen, len(snap.Chains)
	s.synced = lastSeq
	// Reset the media to a clean base: snapshot at lastSeq, fresh segment
	// at lastSeq+1, torn tails pruned — later replays never hit the
	// damaged suffix of an old segment. When the log tail was empty the
	// existing snapshot IS the base; rewriting it under the same name
	// would truncate the only valid snapshot first, and a crash mid-write
	// would leave the site unrecoverable.
	if lastSeq > snap.AppliedSeq {
		if err := writeSnapshot(s.media, lastSeq, 0, s.image(lastSeq)); err != nil {
			return err
		}
		s.lastSnapSeq, s.lastSnapGen = lastSeq, 0
		s.stats.Snapshots++
	}
	s.log, err = NewLog(s.media, s.opts.SegmentBytes, lastSeq+1)
	if err != nil {
		return err
	}
	return pruneBefore(s.media, s.lastSnapSeq, s.lastSnapGen, s.log.SegmentName())
}

// errBatchFull stops a media replay once the batch takes no more records
// (internal flow control, swallowed before returning).
var errBatchFull = fmt.Errorf("wal: records-since batch full")

// shipBatch accumulates one RecordsSince reply; the tail path and the media
// path feed it the same records and so build the same bytes.
type shipBatch struct {
	frames []byte
	prev   int64 // the commit stamp of the last record shipped
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
	b.frames = AppendShipped(b.frames, b.prev, r)
	b.prev = r.CommitMicros
	b.next = r.Seq
	b.room--
	return true
}

// RecordsSince serves a log-shipping pull (internal/repl): up to max durable
// records with Seq > afterSeq, in the shipped batch codec (AppendShipped),
// appended to dst. Records for which skip
// reports true (nil skips none) are left out; next still moves past them.
// next is the last sequence number examined (afterSeq when none); more
// reports the batch was cut at the bound. A mark the in-memory tail covers is
// served from it; an older one is replayed from media; gap reports that
// neither holds the range — afterSeq lies below the newest snapshot's
// applied sequence, those records were truncated away, and the puller must
// be reset from SnapshotRecords instead. Only synced records are served: the
// buffered tail is not yet durable here, so it must not advance a peer's
// watermark (it ships after its flush).
func (s *SiteLog) RecordsSince(afterSeq uint64, max int, skip func(model.ItemID, int64) bool, dst []byte) (frames []byte, next uint64, more, gap bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return dst, afterSeq, false, false, fmt.Errorf("wal: records-since on crashed site log")
	}
	if max <= 0 {
		max = 512
	}
	b := shipBatch{frames: dst, next: afterSeq, room: max, skip: skip}
	switch {
	case afterSeq >= s.synced:
		// Caught up: nothing durable lies past the mark.
	case len(s.tail) > 0 && afterSeq+1 >= s.tail[0].Seq:
		s.tailSince(afterSeq, &b)
	case afterSeq < s.lastSnapSeq:
		return dst, afterSeq, false, true, nil
	default:
		if err := s.mediaSince(afterSeq, &b); err != nil {
			return dst, afterSeq, false, false, err
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
// versions (in the shipped batch codec, like RecordsSince) appended to dst,
// less those skip reports true for (nil skips none), plus the snapshot's
// applied sequence — the watermark from which the incremental tail
// continues. The receiver's apply is stamp-gated, not sequence-gated, so the
// only sequence that matters is the returned watermark.
func (s *SiteLog) SnapshotRecords(skip func(model.ItemID, int64) bool, dst []byte) (frames []byte, appliedSeq uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log == nil {
		return dst, 0, fmt.Errorf("wal: snapshot-records on crashed site log")
	}
	snap, ok, err := newestSnapshot(s.media)
	if err != nil {
		return dst, 0, err
	}
	if !ok {
		return dst, 0, fmt.Errorf("wal: no valid snapshot on media at site %d", s.store.Site())
	}
	frames = dst
	var prev int64
	for _, cc := range snap.Chains {
		v := cc.Versions[len(cc.Versions)-1]
		if skip != nil && skip(cc.ID.Item, v.CommitMicros) {
			continue
		}
		frames = AppendShipped(frames, prev, Record{Item: cc.ID.Item, Txn: v.Writer, Value: v.Value, CommitMicros: v.CommitMicros})
		prev = v.CommitMicros
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
