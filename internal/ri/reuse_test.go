package ri

import (
	"math/rand"
	"reflect"
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
// does. For each transaction the lagging site's queue manager never
// answers, and the busy site's NAKs every member busy (nil: none). A timer
// moves the clock forward by its delay. Everything else the issuer sends (releases, withdrawals,
// completion reports) is recycled on arrival; withdrawn counts the copies
// the withdrawals carried. Nothing is retained, and once its queue and
// scratch have grown the context itself allocates nothing.
type loopCtx struct {
	now       int64
	rng       *rand.Rand
	lagging   func(model.TxnID) model.SiteID
	busy      func(model.TxnID) model.SiteID
	withdrawn int
	queue     []model.Message
	members   []model.GrantMember
	replies   []model.SnapReadReplyMember
}

func (c *loopCtx) NowMicros() int64  { return c.now }
func (c *loopCtx) Self() engine.Addr { return engine.RIAddr(0) }
func (c *loopCtx) Rand() *rand.Rand  { return c.rng }

func (c *loopCtx) Send(_ engine.Addr, msg model.Message) {
	switch v := msg.(type) {
	case *model.RequestBatchMsg:
		if c.lagging != nil && c.lagging(v.Txn) == v.CopySite {
			break
		}
		if c.busy != nil && c.busy(v.Txn) == v.CopySite {
			for _, m := range v.Members {
				c.queue = append(c.queue, model.PooledBusy(model.BusyMsg{
					Txn: v.Txn, Attempt: v.Attempt, Copy: model.CopyID{Item: m.Item, Site: v.CopySite},
				}))
			}
			break
		}
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
	case *model.AbortBatchMsg:
		c.withdrawn += len(v.Members)
	}
	model.RecycleMessage(msg)
}

func (c *loopCtx) SetTimer(d int64, msg model.Message) {
	c.now += d
	c.queue = append(c.queue, msg)
}

// run delivers the queue, and whatever the deliveries queue, until the
// issuer goes quiet.
func (c *loopCtx) run(iss *Issuer) {
	for i := 0; i < len(c.queue); i++ {
		c.now++
		deliver(iss, c, engine.QMAddr(0), c.queue[i])
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
// submitted *Txn is built outside the measurement. Each case runs twice:
// handed a caller's *Txn, and — the "-wire" cases — as a site receives it
// from a client, encoded outside the measurement and decoded inside it by
// DecodeMessagePooled into a pooled Txn, which the delivery loop recycles
// once the issuer has copied it.
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
		for _, wire := range []bool{false, true} {
			name := tc.name
			if wire {
				name += "-wire"
			}
			t.Run(name, func(t *testing.T) {
				testLifecycleAllocs(t, pm, tc.p, tc.reads, tc.writes, wire)
			})
		}
	}
}

// testLifecycleAllocs is one TestIssuerLifecycleAllocatesNothing case.
func testLifecycleAllocs(t *testing.T, pm *model.PartitionMap, p model.Protocol, reads, writes []model.ItemID, wire bool) {
	iss := New(0, pm, nil, Options{PAIntervalMicros: 10, RestartDelayMicros: 100, DefaultComputeMicros: 50}, nil)
	iss.SetNotifyDriver(true)
	c := &loopCtx{rng: rand.New(rand.NewSource(1))}
	const runs = 100
	txns := make([]*model.Txn, runs+2) // the sizing commit, AllocsPerRun's warm-up, the runs
	frames := make([][]byte, len(txns))
	for i := range txns {
		txns[i] = model.NewTxn(model.TxnID{Site: 0, Seq: uint64(i + 1)}, p, reads, writes, 0)
		frames[i], _ = model.AppendMessage(nil, model.SubmitTxnMsg{Txn: txns[i]})
	}
	// The decoder takes the reader's address, so it lives on the heap; a
	// transport's wire.Reader likewise reuses the one it owns.
	r := new(model.WireReader)
	next := 0
	commit := func() {
		if wire {
			*r = model.NewWireReader(frames[next][1:])
			m, err := model.DecodeMessagePooled(model.WireTag(frames[next][0]), r)
			if err != nil {
				t.Fatal(err)
			}
			c.queue = append(c.queue, m) // delivered, then recycled, by run
		} else {
			iss.OnMessage(c, engine.DriverAddr(0), model.SubmitTxnMsg{Txn: txns[next]})
		}
		next++
		c.run(iss)
	}
	commit()
	if got := testing.AllocsPerRun(runs, commit); got != 0 {
		t.Errorf("one committed %v transaction allocates %.0f times in the issuer, want 0", p, got)
	}
	if s := iss.Snapshot(); s.Committed != uint64(next) || s.Active != 0 {
		t.Fatalf("%d of %d transactions committed, %d still active", s.Committed, next, s.Active)
	}
}

// TestQuorumLifecycleAllocatesNothing is TestIssuerLifecycleAllocatesNothing
// for quorum transactions, N=3, W=R=2, issued at site 0. Each reads items 0
// and 1 and writes 2 and 3; its first attempt asks site 0 and the one other
// site not on probation, holding the third site's copies as spares. The
// cases named after a protocol alone are the lagging copy: for odd
// transactions site 1's queue manager never answers, for even ones site 2's,
// so every attempt asks the lagging site (the one the previous transaction
// put on probation answered it and came off), the sweep hedges the spares
// in, and the attempt commits and, at release, withdraws its four copies at
// the lagging site with one abort batch. In the "-busy" cases that site
// NAKs every request busy instead: the first NAK hedges the spares in, and
// each NAK'd copy is withdrawn. In the "-answering" cases every site
// answers, and the attempt commits on the copies it asked, hedging and
// withdrawing nothing. None of that allocates in the issuer, for every
// protocol.
func TestQuorumLifecycleAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	pm := placement.Build(placement.RoundRobin, 8, []model.SiteID{0, 1, 2}, 3)
	for _, proto := range []struct {
		name string
		p    model.Protocol
	}{{"2PL", model.TwoPL}, {"TO", model.TO}, {"PA", model.PA}} {
		p := proto.p
		alternate := func(id model.TxnID) model.SiteID { return model.SiteID(2 - id.Seq%2) }
		for _, tc := range []struct {
			suffix            string
			lagging, busy     func(model.TxnID) model.SiteID
			withdrawn, hedged int
		}{
			{"", alternate, nil, 4, 1},
			{"-busy", nil, alternate, 4, 1},
			{"-answering", nil, nil, 0, 0},
		} {
			t.Run(proto.name+tc.suffix, func(t *testing.T) {
				iss := New(0, pm, nil, Options{PAIntervalMicros: 10, RestartDelayMicros: 100, DefaultComputeMicros: 50,
					Quorum: &model.Quorum{N: 3, W: 2, R: 2}}, nil)
				iss.SetNotifyDriver(true)
				c := &loopCtx{rng: rand.New(rand.NewSource(1)), lagging: tc.lagging, busy: tc.busy}
				const runs = 100
				txns := make([]*model.Txn, runs+2) // the sizing commit, AllocsPerRun's warm-up, the runs
				for i := range txns {
					txns[i] = model.NewTxn(model.TxnID{Site: 0, Seq: uint64(i + 1)}, p, []model.ItemID{0, 1}, []model.ItemID{2, 3}, 0)
				}
				next := 0
				commit := func() {
					iss.OnMessage(c, engine.DriverAddr(0), model.SubmitTxnMsg{Txn: txns[next]})
					next++
					c.run(iss)
				}
				commit()
				if got := testing.AllocsPerRun(runs, commit); got != 0 {
					t.Errorf("one committed %v quorum transaction allocates %.0f times in the issuer, want 0", p, got)
				}
				s := iss.Snapshot()
				if s.Committed != uint64(next) || s.Active != 0 {
					t.Fatalf("%d of %d transactions committed, %d still active", s.Committed, next, s.Active)
				}
				if c.withdrawn != tc.withdrawn*next || s.QuorumHedged != uint64(tc.hedged*next) {
					t.Fatalf("%d copies withdrawn and %d attempts hedged over %d transactions, want %d and %d each",
						c.withdrawn, s.QuorumHedged, next, tc.withdrawn, tc.hedged)
				}
			})
		}
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
		deliver(iss, c, engine.QMAddr(0), m)
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
	if s.phase != phaseNegotiating || s.txn.ID != tx2.ID {
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
		deliver(iss, c, engine.QMAddr(r.Copy.Site), model.SnapReadReplyMsg{Txn: ro1.ID, Copy: r.Copy, Exact: true})
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
	if len(rs.pending) != 2 || rs.txn.ID != ro2.ID {
		t.Fatalf("stale messages changed the new read-only transaction: %d reads pending, want 2", len(rs.pending))
	}
	if len(c.sent) != 0 || len(c.timers) != 0 {
		t.Fatalf("stale messages made the issuer send %d messages and set %d timers", len(c.sent), len(c.timers))
	}
	if st := iss.Snapshot(); st.ROBusyShed != 0 || st.ROCommitted != 1 || st.Active != 1 {
		t.Fatalf("stale messages changed the read-only counters: %+v", st)
	}
}

// TestSubmitLeavesCallersTxnAlone: the issuer works on its own copy of a
// submitted transaction. A protocol picked by the ChooseFunc, the demotion of
// a read-only snapshot to PA and a SwitchOnRestart switch all land on that
// copy, not on the caller's Txn; and a caller that rewrites its Txn once
// OnMessage has returned changes none of the requests the issuer sends.
func TestSubmitLeavesCallersTxnAlone(t *testing.T) {
	pm := placement.Build(placement.RoundRobin, 8, []model.SiteID{0, 1}, 1)
	chooseRO := func(*model.Txn, model.EstimateMsg) model.Protocol { return model.ROSnapshot }
	iss := New(0, pm, nil, Options{
		PAIntervalMicros: 10, RestartDelayMicros: 100, DefaultComputeMicros: 50,
		DisableROFastPath: true,
		SwitchOnRestart:   func(model.Protocol, int) model.Protocol { return model.TO },
	}, chooseRO)
	c := newCtx()
	mk := func() *model.Txn {
		return model.NewTxn(model.TxnID{Site: 0, Seq: 1}, model.TwoPL, []model.ItemID{0, 1}, []model.ItemID{2}, 50)
	}
	tx, want := mk(), mk()
	iss.OnMessage(c, engine.DriverAddr(0), model.SubmitTxnMsg{Txn: tx})
	reqs := take[model.RequestMsg](c)
	if len(reqs) != 3 || reqs[0].Protocol != model.PA {
		t.Fatalf("first attempt sent %+v, want 3 PA requests (chosen ROSnapshot, demoted)", reqs)
	}
	// A busy NAK aborts the attempt, and its restart switches to T/O.
	deliver(iss, c, engine.QMAddr(reqs[0].Copy.Site), model.BusyMsg{Txn: tx.ID, Attempt: reqs[0].Attempt, Copy: reqs[0].Copy})
	fireTimers(iss, c)
	reqs = take[model.RequestMsg](c)
	if len(reqs) != 3 || reqs[0].Protocol != model.TO {
		t.Fatalf("restart sent %+v, want 3 T/O requests", reqs)
	}
	for _, r := range reqs {
		grant(iss, c, r, model.WL, false)
	}
	fireTimers(iss, c)
	if s := iss.Snapshot(); s.Committed != 1 || s.Active != 0 {
		t.Fatalf("the transaction did not commit: %+v", s)
	}
	if !reflect.DeepEqual(tx, want) {
		t.Fatalf("the issuer changed the caller's Txn: %v, submitted as %v", tx, want)
	}

	// A caller rewrites its Txn in place while the transaction is in flight;
	// the restart after a deadlock abort still requests what was submitted,
	// and the write installs the default pre-image + 1, not the new spec.
	iss, c = testIssuer(8, 2, 1)
	tx = model.NewTxn(model.TxnID{Site: 0, Seq: 2}, model.TwoPL, []model.ItemID{0}, []model.ItemID{1}, 50)
	iss.OnMessage(c, engine.DriverAddr(0), model.SubmitTxnMsg{Txn: tx})
	first := take[model.RequestMsg](c)
	tx.Protocol = model.TO
	tx.ReadSet[0], tx.WriteSet[0] = 5, 6
	tx.Specs = []model.WriteSpec{{Item: 1, AddConst: 99}}
	iss.OnMessage(c, engine.DetectorAddr(), model.VictimMsg{Txn: tx.ID, Attempt: first[0].Attempt})
	fireTimers(iss, c)
	again := take[model.RequestMsg](c)
	if len(again) != len(first) {
		t.Fatalf("restart sent %d requests, want %d", len(again), len(first))
	}
	for i, r := range again {
		if r.Copy != first[i].Copy || r.Kind != first[i].Kind || r.Protocol != model.TwoPL {
			t.Fatalf("restart request %d is %+v, want the submitted %+v", i, r, first[i])
		}
		lock := model.RL
		if r.Kind == model.OpWrite {
			lock = model.WL
		}
		grant(iss, c, r, lock, false)
	}
	fireTimers(iss, c)
	for _, r := range take[model.ReleaseMsg](c) {
		if r.HasWrite && (r.Copy.Item != 1 || r.Value != 8) {
			t.Fatalf("release %+v, want item 1 written with pre-image 7 + 1", r)
		}
	}
	if s := iss.Snapshot(); s.Committed != 1 {
		t.Fatalf("the rewritten caller's transaction did not commit: %+v", s)
	}
}
