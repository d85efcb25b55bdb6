package wal

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"ucc/internal/model"
	"ucc/internal/storage"
)

// openTailLog opens a fresh site log over items copies and attaches it as
// the store's journal.
func openTailLog(t *testing.T, items int, opts Options) (*storage.Store, *SiteLog) {
	t.Helper()
	st := newStore(t, 0, items, 0)
	sl, err := Open(NewMemMedia(), st, opts)
	if err != nil {
		t.Fatal(err)
	}
	st.SetJournal(sl)
	return st, sl
}

// write journals one write of item stamped stamp (value = stamp).
func write(st *storage.Store, item int, stamp int64) {
	st.Write(model.ItemID(item), model.TxnID{Site: 0, Seq: uint64(stamp)}, stamp, stamp)
}

func mustFlush(t *testing.T, sl *SiteLog) {
	t.Helper()
	if err := sl.Flush(); err != nil {
		t.Fatal(err)
	}
}

// pull is RecordsSince with the batch decoded. A shipped record carries no
// Seq; where the tests below journal seq i stamped i, CommitMicros names it.
func pull(t *testing.T, sl *SiteLog, afterSeq uint64, max int, skip func(model.ItemID, int64) bool) (recs []Record, next uint64, more, gap bool) {
	t.Helper()
	frames, next, more, gap, err := sl.RecordsSince(afterSeq, max, skip, nil)
	if err != nil {
		t.Fatal(err)
	}
	if torn := DecodeShipped(frames, func(r Record) { recs = append(recs, r) }); torn != 0 {
		t.Fatalf("served batch has %d torn bytes", torn)
	}
	return recs, next, more, gap
}

// TestTailAndMediaServeTheSameBatches: for any mark, bound and skip
// predicate the in-memory tail and the segment replay build the same bytes,
// the same next and the same more — over a log that rolled many times and
// ends in journaled, unsynced records, which neither path may serve.
func TestTailAndMediaServeTheSameBatches(t *testing.T) {
	const items, synced, unsynced = 16, 300, 5
	st, sl := openTailLog(t, items, Options{SegmentBytes: 256})
	rng := rand.New(rand.NewSource(7))
	for i := 1; i <= synced; i++ {
		write(st, rng.Intn(items), int64(i))
		if i%7 == 0 || i == synced {
			mustFlush(t, sl)
		}
	}
	for i := 1; i <= unsynced; i++ {
		write(st, rng.Intn(items), int64(synced+i))
	}
	if names, _ := sl.Media().List(); len(names) < 5 {
		t.Fatalf("log did not roll: media holds %v", names)
	}
	skips := map[string]func(model.ItemID, int64) bool{
		"none":       nil,
		"thirds":     func(item model.ItemID, _ int64) bool { return item%3 == 0 },
		"old stamps": func(_ model.ItemID, stamp int64) bool { return stamp <= 150 },
		"all":        func(model.ItemID, int64) bool { return true },
	}
	for name, skip := range skips {
		for try := 0; try < 200; try++ {
			after := uint64(rng.Intn(synced + unsynced + 3))
			max := 1 + rng.Intn(64)
			frames, next, more, gap, err := sl.RecordsSince(after, max, skip, nil)
			if err != nil || gap {
				t.Fatalf("skip %s after %d max %d: gap=%v err=%v", name, after, max, gap, err)
			}
			want := shipBatch{next: after, room: max, skip: skip}
			if err := sl.mediaSince(after, &want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(frames, want.frames) || next != want.next || more != want.more {
				t.Fatalf("skip %s after %d max %d: tail served %d bytes next %d more %v, media %d bytes next %d more %v",
					name, after, max, len(frames), next, more, len(want.frames), want.next, want.more)
			}
			if after <= synced && next > synced {
				t.Fatalf("skip %s after %d: next %d moved past the synced seq %d", name, after, next, synced)
			}
		}
	}
	// The whole synced log, and nothing past it, from both ends of the API.
	recs, next, more, _ := pull(t, sl, 0, synced+unsynced, nil)
	if len(recs) != synced || next != synced || more {
		t.Fatalf("full pull: %d records, next %d, more %v; want %d, %d, false", len(recs), next, more, synced, synced)
	}
	for i, r := range recs {
		if r.CommitMicros != int64(i+1) {
			t.Fatalf("record %d is seq %d's", i, r.CommitMicros)
		}
	}
}

// TestUnsyncedRecordIsNeverServed: a journaled record ships only after the
// Flush that covers it, and until then does not move next.
func TestUnsyncedRecordIsNeverServed(t *testing.T) {
	st, sl := openTailLog(t, 4, Options{})
	write(st, 0, 10)
	write(st, 1, 20)
	mustFlush(t, sl)
	write(st, 2, 30)
	if recs, next, more, _ := pull(t, sl, 0, 16, nil); len(recs) != 2 || next != 2 || more {
		t.Fatalf("before the sync: %d records, next %d, more %v; want 2, 2, false", len(recs), next, more)
	}
	if recs, next, _, _ := pull(t, sl, 2, 16, nil); len(recs) != 0 || next != 2 {
		t.Fatalf("caught-up pull before the sync: %d records, next %d; want 0, 2", len(recs), next)
	}
	mustFlush(t, sl)
	if recs, next, _, _ := pull(t, sl, 2, 16, nil); len(recs) != 1 || next != 3 || recs[0].Item != 2 {
		t.Fatalf("after the sync: %v, next %d; want item 2's record, 3", recs, next)
	}
}

// TestSnapshotBetweenPullsIsNoGap: a snapshot truncates the segments under a
// puller's mark, but the tail still holds the range, so the next pull is
// served incrementally instead of resetting the puller from the image.
func TestSnapshotBetweenPullsIsNoGap(t *testing.T) {
	st, sl := openTailLog(t, 8, Options{})
	for i := 1; i <= 10; i++ {
		write(st, i%8, int64(i))
	}
	mustFlush(t, sl)
	_, mark, _, _ := pull(t, sl, 0, 64, nil)
	for i := 11; i <= 15; i++ {
		write(st, i%8, int64(i))
	}
	if err := sl.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if replayAll(t, sl.Media(), 0) != nil {
		t.Fatal("snapshot left records on media: the pull below proves nothing")
	}
	recs, next, more, gap := pull(t, sl, mark, 64, nil)
	if gap || more || next != 15 || len(recs) != 5 || recs[0].CommitMicros != 11 {
		t.Fatalf("pull across a snapshot: gap %v more %v next %d, %d records; want records 11..15", gap, more, next, len(recs))
	}
}

// TestCrashRecoverEmptiesTail: the tail and the digest it backs die with the
// crash, whatever cursor asks; after recovery the lost record is never
// served, an old mark gets the Reset answer from what media knows, and new
// writes ship again.
func TestCrashRecoverEmptiesTail(t *testing.T) {
	st, sl := openTailLog(t, 4, Options{})
	write(st, 0, 10)
	write(st, 1, 20)
	mustFlush(t, sl)
	write(st, 2, 30) // journaled, never synced
	st.Wipe()
	sl.Crash()
	if err := sl.Recover(); err != nil {
		t.Fatal(err)
	}
	if len(sl.tail) != 0 {
		t.Fatalf("tail holds %d records after recovery", len(sl.tail))
	}
	for _, cursor := range []uint64{0, 2} {
		if have, _ := sl.HaveSince(cursor, nil); len(have) != 0 {
			t.Fatalf("digest since %d survived the crash: %v", cursor, have)
		}
	}
	if _, _, _, gap := pull(t, sl, 0, 16, nil); !gap {
		t.Fatal("a mark below the recovery snapshot must answer gap")
	}
	if recs, next, _, gap := pull(t, sl, 2, 16, nil); gap || len(recs) != 0 || next != 2 {
		t.Fatalf("pull at the recovered seq: gap %v, %d records, next %d; want nothing", gap, len(recs), next)
	}
	write(st, 3, 40)
	mustFlush(t, sl)
	recs, next, _, gap := pull(t, sl, 2, 16, nil)
	if gap || next != 3 || len(recs) != 1 || recs[0].Item != 3 || recs[0].CommitMicros != 40 {
		t.Fatalf("pull after recovery: gap %v next %d %v; want item 3 as seq 3 (seq 3 was item 2's lost record)", gap, next, recs)
	}
}

// TestMarkOlderThanTailIsServedFromMedia: past tailRecords the oldest
// records leave the tail; a mark among them is replayed from the segments,
// and answers gap only once a snapshot has truncated those too.
func TestMarkOlderThanTailIsServedFromMedia(t *testing.T) {
	st, sl := openTailLog(t, 8, Options{})
	const total = tailRecords + 100
	for i := 1; i <= total; i++ {
		write(st, i%8, int64(i))
	}
	mustFlush(t, sl)
	if first := sl.tail[0].Seq; first <= 6 || len(sl.tail) > tailRecords {
		t.Fatalf("tail holds %d records from seq %d: not bounded", len(sl.tail), first)
	}
	recs, next, more, gap := pull(t, sl, 5, 10, nil)
	if gap || !more || next != 15 || len(recs) != 10 || recs[0].CommitMicros != 6 {
		t.Fatalf("old mark: gap %v more %v next %d, %d records; want 6..15 from media", gap, more, next, len(recs))
	}
	inTail := sl.tail[0].Seq + 10
	if err := sl.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, gap := pull(t, sl, 5, 10, nil); !gap {
		t.Fatal("neither tail nor media holds seq 6: want gap")
	}
	if recs, _, _, gap := pull(t, sl, inTail, 10, nil); gap || len(recs) != 10 || recs[0].CommitMicros != int64(inTail+1) {
		t.Fatalf("mark inside the tail after the snapshot: gap %v, %d records", gap, len(recs))
	}
}

// TestHaveSince: the digest is the newest stamp per item journaled past the
// cursor, in item order, and through is the cursor of the next call. Two
// cursors read the same tail independently; one older than the tail gets
// the whole tail.
func TestHaveSince(t *testing.T) {
	st, sl := openTailLog(t, 8, Options{})
	write(st, 5, 10)
	write(st, 2, 20)
	write(st, 5, 30)
	st.ApplyShipped(7, model.TxnID{Site: 1, Seq: 1}, 1, 25) // shipped writes are journaled too
	got, a := sl.HaveSince(0, nil)
	want := []Have{{Item: 2, CommitMicros: 20}, {Item: 5, CommitMicros: 30}, {Item: 7, CommitMicros: 25}}
	if !slices.Equal(got, want) || a != 4 {
		t.Fatalf("digest %v through %d, want %v through 4", got, a, want)
	}
	if again, through := sl.HaveSince(a, nil); len(again) != 0 || through != a {
		t.Fatalf("nothing journaled past %d, yet digest %v through %d", a, again, through)
	}
	write(st, 1, 40)
	if got, a = sl.HaveSince(a, got[:0]); len(got) != 1 || got[0] != (Have{Item: 1, CommitMicros: 40}) || a != 5 {
		t.Fatalf("digest after one write: %v through %d", got, a)
	}
	if got, b := sl.HaveSince(1, nil); len(got) != 4 || got[0].Item != 1 || got[2] != (Have{Item: 5, CommitMicros: 30}) || b != 5 {
		t.Fatalf("a second cursor at seq 1 reads %v through %d, want items 1, 2, 5@30 and 7 through 5", got, b)
	}
	for i := 0; i <= tailRecords; i++ {
		write(st, i%8, int64(100+i))
	}
	got, a = sl.HaveSince(a, nil)
	if first := sl.tail[0].Seq; first <= 6 || len(got) != 8 || a != sl.tail[len(sl.tail)-1].Seq {
		t.Fatalf("a cursor the tail has passed (tail from %d) reads %d items through %d, want the whole tail's 8", first, len(got), a)
	}
	write(st, 3, 1_000_000)
	if got, _ := sl.HaveSince(a, nil); len(got) != 1 || got[0] != (Have{Item: 3, CommitMicros: 1_000_000}) {
		t.Fatalf("digest after the cut: %v", got)
	}
}

// TestAppendRecordAllocatesNothing: framing into a buffer with room is done
// in place, and so is appending to a shipped batch.
func TestAppendRecordAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	buf := make([]byte, 0, 4096)
	r := Record{Seq: 1 << 40, Item: 4095, Txn: model.TxnID{Site: 2, Seq: 1 << 33}, Value: -7, Version: 9, CommitMicros: 1_700_000_000_000_000}
	if n := testing.AllocsPerRun(100, func() { buf = appendRecord(buf[:0], r) }); n != 0 {
		t.Fatalf("appendRecord allocates %v times per record", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		buf = AppendShipped(buf[:0], Record{Txn: model.TxnID{Seq: 1<<33 - 3}, CommitMicros: r.CommitMicros - 90}, r)
	}); n != 0 {
		t.Fatalf("AppendShipped allocates %v times per record", n)
	}
}

// TestDecodeShippedStopsAtAnUndecodableRecord: a shipped batch decodes up to
// the first record that is truncated, carries an overlong or overflowing
// varint, or names an item or writer site outside int32; that record comes
// back as the torn suffix.
func TestDecodeShippedStopsAtAnUndecodableRecord(t *testing.T) {
	first := Record{Item: 4095, Txn: model.TxnID{Site: 2, Seq: 1_000_003}, Value: -7, CommitMicros: 1_760_000_000_000_000}
	intact := AppendShipped(nil, Record{}, first)
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = model.AppendUvarint(b, v)
		}
		return b
	}
	for name, bad := range map[string][]byte{
		"truncated":        AppendShipped(nil, first, first)[:3],
		"item past int32":  uv(1<<31, 2, 9, 0, 0),
		"site past int32":  uv(1, 1<<31, 9, 0, 0),
		"overlong varint":  append([]byte{0x81, 0x00}, uv(2, 9, 0, 0)...),
		"overflowing seq":  append(uv(1, 2), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02, 0, 0),
		"unterminated end": append(uv(1, 2, 9, 0), 0x80),
	} {
		var got []Record
		torn := DecodeShipped(append(slices.Clone(intact), bad...), func(r Record) { got = append(got, r) })
		if len(got) != 1 || got[0] != first || torn != len(bad) {
			t.Errorf("%s: decoded %+v with %d torn bytes, want the first record and %d torn", name, got, torn, len(bad))
		}
	}
}
