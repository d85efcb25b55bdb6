package main

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/qm"
	"ucc/internal/wal"
)

// recordingActor remembers exactly what it was called with.
type recordingActor struct {
	ctx  engine.Context
	from engine.Addr
	msgs []model.Message
}

func (a *recordingActor) OnMessage(ctx engine.Context, from engine.Addr, msg model.Message) {
	a.ctx, a.from = ctx, from
	a.msgs = append(a.msgs, msg)
}

func (a *recordingActor) last() model.Message { return a.msgs[len(a.msgs)-1] }

type fakeContext struct{ id int }

func (*fakeContext) NowMicros() int64                { return 0 }
func (*fakeContext) Self() engine.Addr               { return engine.Addr{} }
func (*fakeContext) Send(engine.Addr, model.Message) {}
func (*fakeContext) SetTimer(int64, model.Message)   {}
func (*fakeContext) Rand() *rand.Rand                { return nil }

func TestTracedActorForwardsUnchanged(t *testing.T) {
	if got := (*tracer)(nil).wrap(layerRI, 0, &recordingActor{}); reflect.TypeOf(got) != reflect.TypeOf(&recordingActor{}) {
		t.Fatalf("nil tracer wrapped the actor in %T", got)
	}
	var off *tracer
	log, mem := &fakeDurable{}, wal.NewMemMedia()
	if off.journal(nil) != nil || off.durable(log) != qm.Durable(log) || off.media(mem) != wal.Media(mem) {
		t.Fatal("nil tracer decorated a wal boundary")
	}
	tr := newTracer(true)
	inner := &recordingActor{}
	a := tr.wrap(layerQM, 2, inner)
	ctx := &fakeContext{id: 1}
	from := engine.RIAddr(1)
	pooled := model.PooledGrant(model.GrantMsg{Txn: model.TxnID{Site: 1, Seq: 9}, Value: 5})
	value := model.GrantMsg{Txn: model.TxnID{Site: 1, Seq: 10}, Value: 6}

	for _, on := range []bool{false, true} {
		tr.on.Store(on)
		a.OnMessage(ctx, from, pooled)
		if got, ok := inner.last().(*model.GrantMsg); !ok || got != pooled {
			t.Errorf("tracing %v: pooled pointer not passed through: got %v", on, inner.last())
		}
		a.OnMessage(ctx, from, value)
		if got, ok := inner.last().(model.GrantMsg); !ok || got != value {
			t.Errorf("tracing %v: value message changed: got %v", on, inner.last())
		}
		if inner.ctx != engine.Context(ctx) || inner.from != from {
			t.Errorf("tracing %v: context or sender changed", on)
		}
	}
	if len(inner.msgs) != 4 {
		t.Fatalf("inner actor saw %d calls, want 4", len(inner.msgs))
	}
	// Only the two calls made while tracing was on are recorded, and the
	// pointer and value forms share one summary row.
	calls, _ := tr.layerTotals(layerQM)
	if calls != 2 {
		t.Errorf("recorded %d calls, want 2", calls)
	}
	rows := tr.summary()
	if len(rows) != 1 || rows[0].Msg != "GrantMsg" || rows[0].Calls != 2 || rows[0].Site != 2 || rows[0].Layer != layerQM {
		t.Errorf("summary = %+v, want one GrantMsg row with 2 calls at qm site 2", rows)
	}
	ta := a.(*tracedActor)
	if len(ta.spans) != 2 {
		t.Errorf("kept %d spans, want 2", len(ta.spans))
	}
}

type recordingJournal struct{ got []any }

func (j *recordingJournal) RecordWrite(item model.ItemID, txn model.TxnID, value int64, version uint64, commitMicros int64) {
	j.got = []any{item, txn, value, version, commitMicros}
}

func TestTimedJournalForwards(t *testing.T) {
	tr := newTracer(false)
	inner := &recordingJournal{}
	j := &timedJournal{tr: tr, inner: inner}
	want := []any{model.ItemID(3), model.TxnID{Site: 2, Seq: 4}, int64(-5), uint64(6), int64(7)}
	for _, on := range []bool{false, true} {
		tr.on.Store(on)
		inner.got = nil
		j.RecordWrite(3, model.TxnID{Site: 2, Seq: 4}, -5, 6, 7)
		if !reflect.DeepEqual(inner.got, want) {
			t.Errorf("tracing %v: journal got %v, want %v", on, inner.got, want)
		}
	}
	if tr.journalOps.Load() != 1 {
		t.Errorf("journal ops = %d, want 1 (only while tracing)", tr.journalOps.Load())
	}
}

type fakeDurable struct {
	flushErr, recoverErr error
	flushes, crashes     int
}

func (d *fakeDurable) Flush() error   { d.flushes++; return d.flushErr }
func (d *fakeDurable) Crash()         { d.crashes++ }
func (d *fakeDurable) Recover() error { return d.recoverErr }

func TestTimedDurableForwards(t *testing.T) {
	tr := newTracer(false)
	errFlush, errRecover := errors.New("flush failed"), errors.New("recover failed")
	inner := &fakeDurable{flushErr: errFlush, recoverErr: errRecover}
	d := &timedDurable{tr: tr, inner: inner}
	for _, on := range []bool{false, true} {
		tr.on.Store(on)
		if err := d.Flush(); err != errFlush {
			t.Errorf("tracing %v: Flush error = %v, want %v", on, err, errFlush)
		}
	}
	if err := d.Recover(); err != errRecover {
		t.Errorf("Recover error = %v, want %v", err, errRecover)
	}
	d.Crash()
	if inner.flushes != 2 || inner.crashes != 1 {
		t.Errorf("inner saw %d flushes and %d crashes, want 2 and 1", inner.flushes, inner.crashes)
	}
	if tr.flushOps.Load() != 1 {
		t.Errorf("flush ops = %d, want 1 (only while tracing)", tr.flushOps.Load())
	}
}

// failingMedia fails Create for one name and hands out writers whose Sync
// fails, on top of a real MemMedia.
type failingMedia struct {
	*wal.MemMedia
	errCreate, errSync error
}

func (m *failingMedia) Create(name string) (wal.Writer, error) {
	if name == "bad" {
		return nil, m.errCreate
	}
	w, err := m.MemMedia.Create(name)
	return &failingWriter{Writer: w, err: m.errSync}, err
}

type failingWriter struct {
	wal.Writer
	err error
}

func (w *failingWriter) Sync() error {
	if err := w.Writer.Sync(); err != nil {
		return err
	}
	return w.err
}

func TestTimedMediaForwards(t *testing.T) {
	tr := newTracer(false)
	errCreate, errSync := errors.New("create failed"), errors.New("sync failed")
	inner := &failingMedia{MemMedia: wal.NewMemMedia(), errCreate: errCreate, errSync: errSync}
	m := &timedMedia{Media: inner, tr: tr}

	if _, err := m.Create("bad"); err != errCreate {
		t.Fatalf("Create error = %v, want %v", err, errCreate)
	}
	w, err := m.Create("obj")
	if err != nil {
		t.Fatal(err)
	}
	for _, on := range []bool{false, true} {
		tr.on.Store(on)
		if n, err := w.Write([]byte("abcd")); n != 4 || err != nil {
			t.Errorf("tracing %v: Write = %d, %v", on, n, err)
		}
		if err := w.Sync(); err != errSync {
			t.Errorf("tracing %v: Sync error = %v, want %v", on, err, errSync)
		}
	}
	if got, err := m.ReadAll("obj"); err != nil || string(got) != "abcdabcd" {
		t.Errorf("ReadAll = %q, %v", got, err)
	}
	if names, err := m.List(); err != nil || !reflect.DeepEqual(names, []string{"obj"}) {
		t.Errorf("List = %v, %v", names, err)
	}
	if inner.Syncs() != 2 {
		t.Errorf("inner media saw %d syncs, want 2", inner.Syncs())
	}
	if tr.mediaBytes.Load() != 4 || len(tr.syncNs) != 1 {
		t.Errorf("recorded %d bytes and %d syncs, want 4 and 1 (only while tracing)", tr.mediaBytes.Load(), len(tr.syncNs))
	}
	if err := m.Remove("obj"); err != nil {
		t.Fatal(err)
	}
	if names, _ := m.List(); len(names) != 0 {
		t.Errorf("after Remove, List = %v", names)
	}
}
