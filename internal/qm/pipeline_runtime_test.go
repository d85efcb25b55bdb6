package qm

import (
	"testing"
	"time"

	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/storage"
	"ucc/internal/wal"
)

// slowSync is the media sync time of the runtime pipeline tests: long
// enough that a message handled while a sync is in flight is handled well
// before the sync returns.
const slowSync = 20 * time.Millisecond

// received is one message the recording issuer got, with the number of
// media syncs that had returned when it arrived.
type received struct {
	msg   model.Message
	syncs uint64
}

// recordingRI forwards every message it receives, as a value, to got: a
// reply batch of one as the single reply it stands for.
type recordingRI struct {
	media *wal.MemMedia
	got   chan received
}

func (r *recordingRI) OnMessage(_ engine.Context, _ engine.Addr, msg model.Message) {
	r.got <- received{msg: asSingle(valueForm(msg)), syncs: r.media.Syncs()}
}

// runtimeSite is one durable single-shard site on engine.Runtime: a
// SiteLog over MemMedia whose every sync takes slowSync, and a recording
// issuer at RIAddr(1). base is the media's sync count once the site is up.
type runtimeSite struct {
	t     *testing.T
	m     *Manager
	rt    *engine.Runtime
	media *wal.MemMedia
	ri    *recordingRI
	base  uint64
}

func newRuntimeSite(t *testing.T) *runtimeSite {
	t.Helper()
	st := storage.NewStore(0)
	for i := 0; i < 8; i++ {
		st.Create(model.ItemID(i), 100)
	}
	media := wal.NewMemMedia()
	media.SyncDelay = slowSync
	sl, err := wal.Open(media, st, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.SetJournal(sl)
	s := &runtimeSite{t: t, m: New(0, st, nil, Options{}), rt: engine.NewRuntime(nil, 1), media: media}
	s.m.SetDurable(sl)
	s.ri = &recordingRI{media: media, got: make(chan received, 64)}
	s.rt.Register(engine.QMAddr(0), s.m)
	s.rt.Register(engine.RIAddr(1), s.ri)
	t.Cleanup(s.rt.Shutdown)
	s.base = media.Syncs()
	return s
}

func (s *runtimeSite) post(msg model.Message) {
	s.rt.Post(engine.Envelope{From: engine.RIAddr(1), To: engine.QMAddr(0), Msg: pooled(msg)})
}

// next waits for the issuer's next message.
func (s *runtimeSite) next() received {
	s.t.Helper()
	select {
	case r := <-s.ri.got:
		return r
	case <-time.After(10 * time.Second):
		s.t.Fatalf("no reply (counters %+v)", s.m.Snapshot())
		return received{}
	}
}

// grant waits for the next message and requires it to be txn's grant.
func (s *runtimeSite) grant(txn uint64) (model.GrantMsg, uint64) {
	s.t.Helper()
	r := s.next()
	g, ok := r.msg.(model.GrantMsg)
	if !ok || g.Txn.Seq != txn {
		s.t.Fatalf("got %T %+v, want txn %d's grant", r.msg, r.msg, txn)
	}
	return g, r.syncs
}

// await polls until cond holds.
func (s *runtimeSite) await(what string, cond func() bool) {
	s.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			s.t.Fatalf("timed out waiting for %s (counters %+v)", what, s.m.Snapshot())
		}
	}
}

// syncStarted waits until the shard's n-th sync has entered the commit
// sequencer.
func (s *runtimeSite) syncStarted(n uint64) {
	s.t.Helper()
	s.await("the sync to start", func() bool { return s.m.Snapshot().Commits >= n })
}

// TestRuntimeServesDuringSync: on engine.Runtime a request for an item
// nobody wrote is granted while the shard's sync is in flight, and the read
// queued behind the written item is granted once that sync has returned.
// With the sync run on the mailbox loop the first grant waits for it too.
func TestRuntimeServesDuringSync(t *testing.T) {
	s := newRuntimeSite(t)
	s.post(req(1, model.TwoPL, model.OpWrite, 0, model.NoTimestamp))
	s.grant(1)
	s.post(writeRelease(1, 0, 7, 100))
	s.syncStarted(1)
	s.post(req(2, model.TwoPL, model.OpRead, 0, model.NoTimestamp))
	s.post(req(3, model.TwoPL, model.OpRead, 1, model.NoTimestamp))
	if _, syncs := s.grant(3); syncs != s.base {
		t.Fatalf("the unrelated item's grant waited for the sync (%d syncs returned when it arrived, want %d)", syncs, s.base)
	}
	g, syncs := s.grant(2)
	if syncs != s.base+1 || g.Version != 1 || g.Value != 7 {
		t.Fatalf("the parked read's grant %+v arrived after %d syncs, want version 1 after %d", g, syncs-s.base, 1)
	}
}

// TestRuntimeWriteDuringSyncWaitsForItsOwnSync is
// TestWriteDuringSyncWaitsForItsOwnSync on engine.Runtime over a real
// SiteLog: y's second write is journaled while x's sync is in flight, and
// y's promotion and the snapshot reply carrying that write arrive only
// after a second sync has returned, while x's parked read is granted after
// the first.
func TestRuntimeWriteDuringSyncWaitsForItsOwnSync(t *testing.T) {
	s := newRuntimeSite(t)
	const x, y = 0, 1
	s.post(req(1, model.TO, model.OpWrite, y, 10))
	s.grant(1)
	semi := writeRelease(1, y, 11, 100)
	semi.ToSemi = true
	s.post(semi)
	s.post(req(2, model.TO, model.OpWrite, y, 20))
	if g, _ := s.grant(2); !g.PreScheduled {
		t.Fatalf("writer 2's grant %+v is not pre-scheduled", g)
	}
	s.post(req(4, model.TwoPL, model.OpWrite, x, model.NoTimestamp))
	s.grant(4)
	s.post(req(5, model.TwoPL, model.OpRead, x, model.NoTimestamp))
	before := s.m.Snapshot().Commits
	s.post(writeRelease(4, x, 44, 150))
	s.syncStarted(before + 1)
	synced := s.media.Syncs()

	semi2 := writeRelease(2, y, 22, 200)
	semi2.ToSemi = true
	s.post(semi2)
	s.post(release(1, y, false, 0))
	s.post(model.SnapReadMsg{Txn: model.TxnID{Site: 1, Seq: 6}, Copy: model.CopyID{Item: y}, SnapMicros: 1 << 62, Site: 1})
	s.await("writer 2's conversion", func() bool { return s.m.Snapshot().Conversion == 2 })
	if s.media.Syncs() != synced {
		t.Fatal("x's sync returned before y's second write was journaled; the case did not run")
	}

	if g, syncs := s.grant(5); syncs != synced+1 || g.Version != 1 {
		t.Fatalf("x's parked read: grant %+v after %d syncs, want version 1 after %d", g, syncs-synced, 1)
	}
	for i := 0; i < 2; i++ {
		r := s.next()
		if r.syncs < synced+2 {
			t.Fatalf("%T %+v left y before y's own sync returned (%d syncs since x's started)", r.msg, r.msg, r.syncs-synced)
		}
		switch v := r.msg.(type) {
		case model.NormalGrantMsg:
			if v.Txn.Seq != 2 {
				t.Fatalf("promotion %+v, want writer 2's", v)
			}
		case model.SnapReadReplyMsg:
			if v.Version != 2 || v.Value != 22 {
				t.Fatalf("snapshot reply %+v, want version 2 value 22", v)
			}
		default:
			t.Fatalf("got %T %+v, want writer 2's promotion and the snapshot reply", r.msg, r.msg)
		}
	}
}

// TestRuntimeCrashMidSync: a CrashMsg handled while the shard's sync is in
// flight fails that sync, and its completion is a no-op whether it is
// deferred during the outage or lands after recovery. Nothing the crash
// destroyed is exposed: recovery grants the waiting writer the recovered
// version, and the site keeps committing.
func TestRuntimeCrashMidSync(t *testing.T) {
	for _, deferred := range []bool{true, false} {
		deferred := deferred
		name := "completion after recovery"
		if deferred {
			name = "completion deferred"
		}
		t.Run(name, func(t *testing.T) {
			s := newRuntimeSite(t)
			s.post(req(1, model.TwoPL, model.OpWrite, 0, model.NoTimestamp))
			s.post(req(2, model.TwoPL, model.OpWrite, 0, model.NoTimestamp))
			s.grant(1)
			s.post(writeRelease(1, 0, 7, 100))
			s.syncStarted(1)
			s.post(model.CrashMsg{})
			if deferred {
				sh := s.m.shards[0]
				s.await("the completion to be deferred", func() bool {
					sh.mu.Lock()
					defer sh.mu.Unlock()
					return len(sh.deferred) == 1
				})
				if c := s.m.Snapshot(); c.Deferred != 0 {
					t.Fatalf("Deferred=%d: a sync completion is not traffic", c.Deferred)
				}
			}
			s.post(model.RecoverMsg{})
			if g, _ := s.grant(2); g.Version != 0 || g.Value != 100 {
				t.Fatalf("recovery granted %+v, want the recovered version 0: the crash destroyed write 1", g)
			}
			s.post(writeRelease(2, 0, 8, 200))
			s.post(req(3, model.TwoPL, model.OpRead, 0, model.NoTimestamp))
			if g, _ := s.grant(3); g.Version != 1 || g.Value != 8 {
				t.Fatalf("post-recovery grant %+v, want version 1 value 8", g)
			}
			if c := s.m.Snapshot(); c.Crashes != 1 || c.Recoveries != 1 {
				t.Fatalf("counters %+v, want one crash and one recovery", c)
			}
		})
	}
}

// forwardingRI forwards every message it receives, as a value, to got. It
// touches nothing else, so it adds no synchronization between the site's
// goroutines that a race report could hide behind.
type forwardingRI struct{ got chan model.Message }

func (r *forwardingRI) OnMessage(_ engine.Context, _ engine.Addr, msg model.Message) {
	r.got <- asSingle(valueForm(msg))
}

// TestMapInstallDuringSnapshottingSync: on engine.Runtime, with two shards
// and a durable site that snapshots at every sync, a map install that gains
// copies lands while a shard's sync is in flight — the sync worker images
// the store through EachChain while the install creates the gained copies.
// The store's table writes take its barrier exclusively, which orders the
// two (under -race an unordered pair fails the test). The gained copies
// serve traffic at once (no previous map, so nothing to fill), and the
// install's own snapshot images them.
func TestMapInstallDuringSnapshottingSync(t *testing.T) {
	const held, total = 8, 16
	st := storage.NewStore(0)
	for i := 0; i < held; i++ {
		st.Create(model.ItemID(i), 100)
	}
	media := wal.NewMemMedia()
	media.SyncDelay = slowSync
	sl, err := wal.Open(media, st, wal.Options{SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	st.SetJournal(sl)
	m := New(0, st, nil, Options{Shards: 2, InitialValue: 100})
	m.SetDurable(sl)
	rt := engine.NewRuntime(nil, 1)
	t.Cleanup(rt.Shutdown)
	for i := 0; i < m.NumShards(); i++ {
		rt.Register(engine.QMShardAddr(0, i), m)
	}
	ri := &forwardingRI{got: make(chan model.Message, 64)}
	rt.Register(engine.RIAddr(1), ri)
	post := func(item model.ItemID, msg model.Message) {
		rt.Post(engine.Envelope{From: engine.RIAddr(1), To: engine.QMShardAddr(0, model.ShardOfItem(item, m.NumShards())), Msg: pooled(msg)})
	}
	grant := func(txn uint64) model.GrantMsg {
		t.Helper()
		select {
		case msg := <-ri.got:
			g, ok := msg.(model.GrantMsg)
			if !ok || g.Txn.Seq != txn {
				t.Fatalf("got %T %+v, want txn %d's grant", msg, msg, txn)
			}
			return g
		case <-time.After(10 * time.Second):
			t.Fatalf("no grant for txn %d (counters %+v)", txn, m.Snapshot())
			return model.GrantMsg{}
		}
	}
	s := &runtimeSite{t: t, m: m}

	post(0, req(1, model.TwoPL, model.OpWrite, 0, model.NoTimestamp))
	grant(1)
	snaps := sl.Stats().Snapshots
	post(0, release(1, 0, true, 7))
	s.syncStarted(1)
	all := make([][]model.SiteID, total)
	for i := range all {
		all[i] = []model.SiteID{0}
	}
	rt.Post(engine.Envelope{From: engine.RIAddr(1), To: engine.QMAddr(0), Msg: model.MapInstallMsg{Map: model.PartitionMap{Epoch: 1, Assignments: all}}})
	s.await("the map install", func() bool { return m.Snapshot().MapInstalls == 1 })
	for item := model.ItemID(held); item < total; item++ {
		post(item, req(uint64(item)+1, model.TwoPL, model.OpRead, item, model.NoTimestamp))
		if g := grant(uint64(item) + 1); g.Copy.Item != item || g.Value != 100 {
			t.Fatalf("gained item %d: grant %+v, want its initial value 100", item, g)
		}
	}
	c := m.Snapshot()
	if c.MapInstalls != 1 || c.ItemsGained != total-held {
		t.Fatalf("MapInstalls = %d, ItemsGained = %d; want 1 and %d", c.MapInstalls, c.ItemsGained, total-held)
	}
	if sl.Stats().Snapshots <= snaps {
		t.Fatal("no snapshot since the write")
	}
	// Whichever snapshot imaged the gained copies, a crash keeps them.
	rt.Post(engine.Envelope{From: engine.RIAddr(1), To: engine.QMAddr(0), Msg: model.CrashMsg{}})
	rt.Post(engine.Envelope{From: engine.RIAddr(1), To: engine.QMAddr(0), Msg: model.RecoverMsg{}})
	s.await("the recovery", func() bool { return m.Snapshot().Recoveries == 1 })
	if st.Len() != total {
		t.Fatalf("store holds %d copies after a crash, want %d", st.Len(), total)
	}
	post(total-1, req(100, model.TwoPL, model.OpRead, total-1, model.NoTimestamp))
	if g := grant(100); g.Value != 100 {
		t.Fatalf("gained item after recovery: grant %+v, want its initial value 100", g)
	}
}
