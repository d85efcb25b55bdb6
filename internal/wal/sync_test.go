package wal

import (
	"errors"
	"testing"
	"time"

	"ucc/internal/model"
	"ucc/internal/storage"
)

// gatedMedia is a MemMedia whose segment syncs block until the test opens
// the gate; started receives once per sync that reached the gate. Snapshot
// syncs pass straight through, and once failSnap is set no snapshot can be
// created.
type gatedMedia struct {
	*MemMedia
	started  chan struct{}
	gate     chan struct{}
	failSnap bool
}

func newGatedMedia() *gatedMedia {
	return &gatedMedia{MemMedia: NewMemMedia(), started: make(chan struct{}, 8), gate: make(chan struct{})}
}

func (m *gatedMedia) Create(name string) (Writer, error) {
	if m.failSnap && isSnap(name) {
		return nil, errors.New("snapshot media full")
	}
	w, err := m.MemMedia.Create(name)
	if err != nil || !isSeg(name) {
		return w, err
	}
	return &gatedWriter{Writer: w, m: m}, nil
}

type gatedWriter struct {
	Writer
	m *gatedMedia
}

func (w *gatedWriter) Sync() error {
	w.m.started <- struct{}{}
	<-w.m.gate
	return w.Writer.Sync()
}

// startFlush runs sl.Flush on its own goroutine and returns once its sync
// is under way; the channel yields the Flush result.
func startFlush(t *testing.T, sl *SiteLog, m *gatedMedia) <-chan error {
	t.Helper()
	res := make(chan error, 1)
	go func() { res <- sl.Flush() }()
	select {
	case <-m.started:
	case <-time.After(10 * time.Second):
		t.Fatal("the flush never reached its sync")
	}
	return res
}

// waitUngated waits for done while a sync is held at the gate: what closes
// it must not wait for the sync.
func waitUngated(t *testing.T, done <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s waited for the sync", what)
	}
}

func flushResult(t *testing.T, res <-chan error) error {
	t.Helper()
	select {
	case err := <-res:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("the flush never returned")
		return nil
	}
}

// TestJournalingDoesNotWaitForTheSync: a write journaled while a flush is
// syncing neither waits for that sync nor is covered by it. The flush
// serves exactly the records written before it began; the next flush makes
// the late write servable.
func TestJournalingDoesNotWaitForTheSync(t *testing.T) {
	m := newGatedMedia()
	st := newStore(t, 0, 4, 0)
	sl, err := Open(m, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.SetJournal(sl)
	write(st, 0, 10)
	write(st, 1, 11)
	res := startFlush(t, sl, m)

	journaled := make(chan struct{})
	go func() {
		write(st, 2, 12) // must not wait for the gate
		if frames, _, _, _, err := sl.RecordsSince(0, 0, nil, nil); err != nil || len(frames) != 0 {
			t.Errorf("served %d bytes (%v) while their sync was in flight", len(frames), err)
		}
		close(journaled)
	}()
	waitUngated(t, journaled, "RecordWrite and RecordsSince")
	close(m.gate)
	if err := flushResult(t, res); err != nil {
		t.Fatal(err)
	}
	recs, next, _, _ := pull(t, sl, 0, 0, nil)
	if len(recs) != 2 || next != 2 || recs[0].Item != 0 || recs[1].Item != 1 {
		t.Fatalf("after the flush: served %+v (next %d), want the two records written before it", recs, next)
	}
	mustFlush(t, sl)
	if recs, next, _, _ := pull(t, sl, 2, 0, nil); len(recs) != 1 || next != 3 || recs[0].Item != 2 {
		t.Fatalf("after the second flush: served %+v (next %d), want the late write", recs, next)
	}
}

// TestCrashDuringSyncFailsTheFlush: a crash while a flush is syncing makes
// that Flush return an error — its records never became durable — and
// recovery yields exactly the prefix synced before it.
func TestCrashDuringSyncFailsTheFlush(t *testing.T) {
	m := newGatedMedia()
	m.SyncDelay = 20 * time.Millisecond
	st := newStore(t, 0, 4, 0)
	sl, err := Open(m, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.SetJournal(sl)
	write(st, 0, 10)
	go func() { <-m.started; m.gate <- struct{}{} }()
	mustFlush(t, sl)
	want := storage.NewStore(0)
	for _, c := range st.Copies() {
		want.Restore(c)
	}

	write(st, 1, 11)
	write(st, 0, 12)
	res := startFlush(t, sl, m)
	crashed := make(chan struct{})
	go func() {
		write(st, 2, 13) // journaled during the sync: lost too
		st.Wipe()
		sl.Crash()
		close(crashed)
	}()
	waitUngated(t, crashed, "RecordWrite and Crash")
	close(m.gate)
	if err := flushResult(t, res); err == nil {
		t.Fatal("a flush whose sync a crash interrupted reported success")
	}
	last, err := Replay(m, 0, func(Record) error { return nil })
	if err != nil || last != 1 {
		t.Fatalf("media holds records through seq %d (%v), want 1", last, err)
	}
	if err := sl.Recover(); err != nil {
		t.Fatal(err)
	}
	sameStores(t, st, want)
	if s := sl.Stats(); s.Replayed != 1 {
		t.Fatalf("replayed %d records, want 1 (the synced prefix)", s.Replayed)
	}

	// The recovered log takes writes and flushes again.
	write(st, 3, 20)
	mustFlush(t, sl)
	if got := st.Latest(model.ItemID(3)); got.Value != 20 {
		t.Fatalf("post-recovery write reads %+v", got)
	}
}

// TestRollDuringSyncKeepsJournaledRecords: a flush whose segment passes the
// size threshold rolls after its sync, while a record journaled during that
// sync is still buffered. The new segment is named after that record, so a
// later snapshot's roll starts a segment of its own instead of recreating —
// truncating — the one holding it; a snapshot that then fails to write
// loses nothing synced.
func TestRollDuringSyncKeepsJournaledRecords(t *testing.T) {
	m := newGatedMedia()
	st := newStore(t, 0, 4, 0)
	frame := len(appendRecord(nil, Record{Seq: 1, Txn: model.TxnID{Seq: 10}, Value: 10, Version: 1, CommitMicros: 10}))
	// Two records pass the threshold, one does not.
	sl, err := Open(m, st, Options{SegmentBytes: 2*frame - 1})
	if err != nil {
		t.Fatal(err)
	}
	st.SetJournal(sl)
	write(st, 0, 10)
	write(st, 1, 11)
	res := startFlush(t, sl, m)
	journaled := make(chan struct{})
	go func() {
		write(st, 2, 12) // seq 3, buffered across the roll
		close(journaled)
	}()
	waitUngated(t, journaled, "RecordWrite")
	close(m.gate)
	if err := flushResult(t, res); err != nil {
		t.Fatal(err)
	}
	if got, want := sl.log.SegmentName(), segName(3); got != want {
		t.Fatalf("rolled to %s, want %s (the first buffered record)", got, want)
	}

	m.failSnap = true
	if err := sl.Snapshot(); err == nil {
		t.Fatal("a snapshot that could not be written reported success")
	}
	if last, err := Replay(m, 0, func(Record) error { return nil }); err != nil || last != 3 {
		t.Fatalf("media holds records through seq %d (%v), want 3 (all synced)", last, err)
	}
	m.failSnap = false
	st.Wipe()
	sl.Crash()
	if err := sl.Recover(); err != nil {
		t.Fatal(err)
	}
	if s := sl.Stats(); s.Replayed != 3 {
		t.Fatalf("replayed %d records, want 3", s.Replayed)
	}
	if got := st.Latest(model.ItemID(2)); got.Value != 12 {
		t.Fatalf("recovered item 2 reads %+v, want the record journaled during the sync", got)
	}
}
