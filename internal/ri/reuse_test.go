package ri

import (
	"math/rand"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/placement"
)

// loopCtx is a delivery layer for allocation tests. It plays every queue
// manager with an uncontended answer (one grant batch per request batch, one
// reply batch per snapshot-read batch), queues those answers and the
// issuer's timers, and delivers them back to the issuer, recycling each
// message once the issuer has handled it, as the runtime's mailbox loop
// does. Everything else the issuer sends (releases, completion reports) is
// recycled on arrival. Nothing is retained, and once its queue and scratch
// have grown the context itself allocates nothing.
type loopCtx struct {
	now     int64
	rng     *rand.Rand
	queue   []model.Message
	members []model.GrantMember
	replies []model.SnapReadReplyMember
}

func (c *loopCtx) NowMicros() int64  { return c.now }
func (c *loopCtx) Self() engine.Addr { return engine.RIAddr(0) }
func (c *loopCtx) Rand() *rand.Rand  { return c.rng }

func (c *loopCtx) Send(_ engine.Addr, msg model.Message) {
	switch v := msg.(type) {
	case *model.RequestBatchMsg:
		members := c.members[:0]
		for _, m := range v.Members {
			lock := model.RL
			if m.Kind == model.OpWrite {
				lock = model.WL
			}
			members = append(members, model.GrantMember{Item: m.Item, Lock: lock, TS: v.TS, Value: 1})
		}
		c.members = members
		c.queue = append(c.queue, model.PooledGrantBatch(model.GrantBatchMsg{
			Txn: v.Txn, Attempt: v.Attempt, CopySite: v.CopySite, Members: members,
		}))
	case *model.SnapReadBatchMsg:
		replies := c.replies[:0]
		for _, item := range v.Members {
			replies = append(replies, model.SnapReadReplyMember{Item: item, Value: 1, Exact: true})
		}
		c.replies = replies
		c.queue = append(c.queue, model.PooledSnapReadReplyBatch(model.SnapReadReplyBatchMsg{
			Txn: v.Txn, Attempt: v.Attempt, CopySite: v.CopySite, Members: replies,
		}))
	}
	model.RecycleMessage(msg)
}

func (c *loopCtx) SetTimer(_ int64, msg model.Message) { c.queue = append(c.queue, msg) }

// run delivers the queue, and whatever the deliveries queue, until the
// issuer goes quiet.
func (c *loopCtx) run(iss *Issuer) {
	for i := 0; i < len(c.queue); i++ {
		c.now++
		iss.OnMessage(c, engine.QMAddr(0), c.queue[i])
		model.RecycleMessage(c.queue[i])
	}
	clear(c.queue)
	c.queue = c.queue[:0]
}

// TestIssuerLifecycleAllocatesNothing: once the first transaction has sized
// the issuer's free list, maps, copy slab and scratch, a committed
// transaction — submit, request batches, grants, compute timer, releases,
// completion report and driver notification — allocates nothing in the
// issuer, for every protocol. The read-only cases read one item per mailbox
// and three, so both a batch of one and a batch of several are gated. The
// submitted *Txn is built outside the measurement.
func TestIssuerLifecycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	pm := placement.Build(placement.RoundRobin, 8, []model.SiteID{0, 1}, 1)
	pair := []model.ItemID{0, 1}
	for _, tc := range []struct {
		name          string
		p             model.Protocol
		reads, writes []model.ItemID
	}{
		{"2PL", model.TwoPL, pair, []model.ItemID{2, 3}},
		{"TO", model.TO, pair, []model.ItemID{2, 3}},
		{"PA", model.PA, pair, []model.ItemID{2, 3}},
		{"ROSnapshot", model.ROSnapshot, pair, nil},
		{"ROSnapshotBatched", model.ROSnapshot, []model.ItemID{0, 1, 2, 3, 4, 5}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			iss := New(0, pm, nil, Options{PAIntervalMicros: 10, RestartDelayMicros: 100, DefaultComputeMicros: 50}, nil)
			iss.SetNotifyDriver(true)
			c := &loopCtx{rng: rand.New(rand.NewSource(1))}
			const runs = 100
			txns := make([]*model.Txn, runs+2) // the sizing commit, AllocsPerRun's warm-up, the runs
			for i := range txns {
				txns[i] = model.NewTxn(model.TxnID{Site: 0, Seq: uint64(i + 1)}, tc.p, tc.reads, tc.writes, 0)
			}
			next := 0
			commit := func() {
				iss.OnMessage(c, engine.DriverAddr(0), model.SubmitTxnMsg{Txn: txns[next]})
				next++
				c.run(iss)
			}
			commit()
			if got := testing.AllocsPerRun(runs, commit); got != 0 {
				t.Errorf("one committed %s transaction allocates %.0f times in the issuer, want 0", tc.name, got)
			}
			if s := iss.Snapshot(); s.Committed != uint64(next) || s.Active != 0 {
				t.Fatalf("%d of %d transactions committed, %d still active", s.Committed, next, s.Active)
			}
		})
	}
}

// TestOversizedStateIsNotKept: a state that served a transaction of more
// than maxKeptCopies copies leaves the free list for the garbage collector,
// read-write and read-only alike, while an ordinary one is kept.
func TestOversizedStateIsNotKept(t *testing.T) {
	const items = 2 * maxKeptCopies
	pm := placement.Build(placement.RoundRobin, items, []model.SiteID{0, 1}, 1)
	iss := New(0, pm, nil, Options{PAIntervalMicros: 10, RestartDelayMicros: 100, DefaultComputeMicros: 50}, nil)
	c := &loopCtx{rng: rand.New(rand.NewSource(1))}
	all := make([]model.ItemID, items)
	for i := range all {
		all[i] = model.ItemID(i)
	}
	seq := uint64(0)
	commit := func(p model.Protocol, reads []model.ItemID) {
		seq++
		iss.OnMessage(c, engine.DriverAddr(0), model.SubmitTxnMsg{Txn: model.NewTxn(model.TxnID{Site: 0, Seq: seq}, p, reads, nil, 0)})
		c.run(iss)
	}
	for _, p := range []model.Protocol{model.TwoPL, model.ROSnapshot} {
		commit(p, all[:2])
		if len(iss.freeTxns)+len(iss.freeROs) != 1 {
			t.Fatalf("%v: an ordinary state was not kept: %d + %d free", p, len(iss.freeTxns), len(iss.freeROs))
		}
		commit(p, all) // reuses the ordinary state, grows it past the cap
		if len(iss.freeTxns)+len(iss.freeROs) != 0 {
			t.Fatalf("%v: an oversized state stayed on the free list", p)
		}
	}
	if s := iss.Snapshot(); s.Committed != 4 || s.ROCommitted != 2 || s.Active != 0 {
		t.Fatalf("not every transaction committed: %+v", s)
	}
}

// TestCopyReadAndWrittenKeepsTheWrite: a hand-built transaction may read and
// write one item (NewTxn would fold the read into the write). Both requests
// stay in the sorted slab and go out, and the reqs map keeps the write
// whichever of the two the sort puts last — its grant is the one the
// attempt's gates count.
func TestCopyReadAndWrittenKeepsTheWrite(t *testing.T) {
	iss, c := testIssuer(8, 2, 1)
	tx := &model.Txn{ID: model.TxnID{Site: 0, Seq: 7}, Protocol: model.TwoPL,
		ReadSet: []model.ItemID{0, 1}, WriteSet: []model.ItemID{1}, ComputeMicros: 50}
	iss.OnMessage(c, engine.DriverAddr(0), model.SubmitTxnMsg{Txn: tx})
	reqs := take[model.RequestMsg](c)
	if len(reqs) != 3 {
		t.Fatalf("%d requests, want 3 (item 1 read and written)", len(reqs))
	}
	s := iss.active[tx.ID]
	if len(s.order) != 3 || len(s.reqs) != 2 {
		t.Fatalf("slab %d, map %d: want 3 requests over 2 copies", len(s.order), len(s.reqs))
	}
	for copyID, r := range s.reqs {
		if copyID.Item == 1 && r.kind != model.OpWrite {
			t.Fatalf("the map keeps the read of item 1, want the write")
		}
	}
}

// deliverStale hands each message to the issuer and recycles it, as the
// mailbox loop would.
func deliverStale(iss *Issuer, c *fakeCtx, msgs ...model.Message) {
	for _, m := range msgs {
		iss.OnMessage(c, engine.QMAddr(0), m)
		model.RecycleMessage(m)
	}
}

// TestRecycledStateIgnoresStaleMessages: a finished transaction's state is
// reused by the next submit, and messages still addressed to the finished
// transaction — a grant batch, its compute and restart timers, a busy NAK, a
// snapshot reply, all carrying the attempt number the new transaction also
// runs — find no state and change nothing: not the new transaction's phase,
// grants or pending reads, and nothing is sent.
func TestRecycledStateIgnoresStaleMessages(t *testing.T) {
	iss, c := testIssuer(8, 2, 1)
	reads, writes := []model.ItemID{0}, []model.ItemID{1}

	// Read-write: a committed 2PL transaction's state goes to a T/O one.
	tx1 := submit(iss, c, model.TwoPL, reads, writes)
	reqs1 := take[model.RequestMsg](c)
	old := iss.active[tx1.ID]
	for _, r := range reqs1 {
		lock := model.RL
		if r.Kind == model.OpWrite {
			lock = model.WL
		}
		grant(iss, c, r, lock, false)
	}
	fireTimers(iss, c)
	if s := iss.Snapshot(); s.Committed != 1 || s.Active != 0 {
		t.Fatalf("first transaction did not commit: %+v", s)
	}
	tx2 := model.NewTxn(model.TxnID{Site: 0, Seq: 100}, model.TO, reads, writes, 50)
	iss.OnMessage(c, engine.DriverAddr(0), model.SubmitTxnMsg{Txn: tx2})
	reqs2 := take[model.RequestMsg](c)
	s := iss.active[tx2.ID]
	if s == nil || s != old {
		t.Fatal("the second transaction did not reuse the first one's state")
	}
	c.sent, c.wire = nil, nil
	stale := reqs1[0].Copy
	deliverStale(iss, c,
		model.GrantBatchMsg{Txn: tx1.ID, CopySite: stale.Site, Members: []model.GrantMember{
			{Item: stale.Item, Lock: model.WL, TS: reqs2[0].TS, Value: 9},
		}},
		model.PooledComputeDone(model.ComputeDoneMsg{Txn: tx1.ID}),
		model.PooledRestart(model.RestartMsg{Txn: tx1.ID}),
		model.BusyMsg{Txn: tx1.ID, Copy: stale},
		model.SnapReadReplyMsg{Txn: tx1.ID, Copy: stale, Exact: true},
	)
	if s.phase != phaseNegotiating || s.txn != tx2 {
		t.Fatalf("stale messages moved the new transaction to phase %d (txn %v)", s.phase, s.txn.ID)
	}
	for _, r := range s.reqs {
		if r.granted || r.responded {
			t.Fatalf("a stale grant landed on the new transaction's copy %v", r.copyID)
		}
	}
	if len(c.sent) != 0 || len(c.timers) != 0 {
		t.Fatalf("stale messages made the issuer send %d messages and set %d timers", len(c.sent), len(c.timers))
	}
	if st := iss.Snapshot(); st.BusyNAKs != 0 || st.Committed != 1 || st.Active != 1 {
		t.Fatalf("stale messages changed the counters: %+v", st)
	}
	for _, r := range reqs2 {
		lock := model.RL
		if r.Kind == model.OpWrite {
			lock = model.WL
		}
		grant(iss, c, r, lock, false)
	}
	fireTimers(iss, c)
	if st := iss.Snapshot(); st.Committed != 2 || st.Active != 0 {
		t.Fatalf("the new transaction did not commit after the stale messages: %+v", st)
	}

	// Read-only snapshot: a committed one's state goes to the next.
	ro1 := model.NewTxn(model.TxnID{Site: 0, Seq: 101}, model.ROSnapshot, []model.ItemID{2, 3}, nil, 50)
	iss.OnMessage(c, engine.DriverAddr(0), model.SubmitTxnMsg{Txn: ro1})
	snaps := take[model.SnapReadMsg](c)
	oldRO := iss.roActive[ro1.ID]
	for _, r := range snaps {
		iss.OnMessage(c, engine.QMAddr(r.Copy.Site), model.SnapReadReplyMsg{Txn: ro1.ID, Copy: r.Copy, Exact: true})
	}
	fireTimers(iss, c)
	ro2 := model.NewTxn(model.TxnID{Site: 0, Seq: 102}, model.ROSnapshot, []model.ItemID{2, 3}, nil, 50)
	iss.OnMessage(c, engine.DriverAddr(0), model.SubmitTxnMsg{Txn: ro2})
	rs := iss.roActive[ro2.ID]
	if rs == nil || rs != oldRO {
		t.Fatal("the second read-only transaction did not reuse the first one's state")
	}
	c.sent, c.wire = nil, nil
	deliverStale(iss, c,
		model.GrantBatchMsg{Txn: ro1.ID, CopySite: snaps[0].Copy.Site, Members: []model.GrantMember{{Item: snaps[0].Copy.Item}}},
		model.PooledComputeDone(model.ComputeDoneMsg{Txn: ro1.ID}),
		model.PooledRestart(model.RestartMsg{Txn: ro1.ID}),
		model.BusyMsg{Txn: ro1.ID, Copy: snaps[0].Copy},
		model.SnapReadReplyMsg{Txn: ro1.ID, Copy: snaps[0].Copy, Exact: true},
	)
	if len(rs.pending) != 2 || rs.txn != ro2 {
		t.Fatalf("stale messages changed the new read-only transaction: %d reads pending, want 2", len(rs.pending))
	}
	if len(c.sent) != 0 || len(c.timers) != 0 {
		t.Fatalf("stale messages made the issuer send %d messages and set %d timers", len(c.sent), len(c.timers))
	}
	if st := iss.Snapshot(); st.ROBusyShed != 0 || st.ROCommitted != 1 || st.Active != 1 {
		t.Fatalf("stale messages changed the read-only counters: %+v", st)
	}
}
