package engine_test

import (
	"sync"
	"testing"
	"time"

	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/placement"
	"ucc/internal/qm"
	"ucc/internal/ri"
	"ucc/internal/storage"
)

// gatedQM is a queue manager whose mailbox goroutine wedges on its first
// TickMsg until released — a saturated site, so its bounded mailbox refuses
// the openers that reach it meanwhile.
type gatedQM struct {
	*qm.Manager
	entered, release chan struct{}
	once             sync.Once
}

func (g *gatedQM) OnMessage(ctx engine.Context, from engine.Addr, msg model.Message) {
	if _, tick := msg.(model.TickMsg); tick {
		g.once.Do(func() {
			close(g.entered)
			<-g.release
		})
		return
	}
	g.Manager.OnMessage(ctx, from, msg)
}

// doneLog keeps the collector's TxnDoneMsgs.
type doneLog struct {
	mu    sync.Mutex
	dones []model.TxnDoneMsg
}

func (d *doneLog) OnMessage(_ engine.Context, _ engine.Addr, msg model.Message) {
	if v, ok := msg.(*model.TxnDoneMsg); ok {
		d.mu.Lock()
		d.dones = append(d.dones, *v)
		d.mu.Unlock()
	}
}

func (d *doneLog) count(o model.TxnOutcome) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, v := range d.dones {
		if v.Outcome == o {
			n++
		}
	}
	return n
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// busyCount counts the BusyMsg NAKs an actor receives.
type busyCount struct {
	engine.Actor
	mu sync.Mutex
	n  int
}

func (b *busyCount) OnMessage(ctx engine.Context, from engine.Addr, msg model.Message) {
	if _, busy := msg.(*model.BusyMsg); busy {
		b.mu.Lock()
		b.n++
		b.mu.Unlock()
	}
	b.Actor.OnMessage(ctx, from, msg)
}

func (b *busyCount) count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// TestRefusedSnapReadBatchShedsOnce: a read-only snapshot transaction reads
// items 0, 2 and 5 of three sites; the batch carrying items 2 and 5 reaches
// site 2's full mailbox and is refused whole. The issuer gets one busy NAK
// per member and sheds the transaction once — one BusyNAK, one ROBusyShed,
// one busy outcome and one decrease of the admission window — which is what
// two refused single reads produced.
func TestRefusedSnapReadBatchShedsOnce(t *testing.T) {
	rt := engine.NewRuntime(engine.FixedLatency{}, 1)
	rt.SetMailboxDepth(1)
	defer rt.Shutdown()
	sites := []model.SiteID{0, 1, 2}
	pm := placement.Build(placement.RoundRobin, 6, sites, 1)
	gate := &gatedQM{entered: make(chan struct{}), release: make(chan struct{})}
	defer close(gate.release)
	for _, s := range sites {
		st := storage.NewStore(s)
		for _, item := range pm.CopiesAt(s) {
			st.Create(item, 100)
		}
		m := qm.New(s, st, nil, qm.Options{})
		m.SetPartitionMap(pm)
		if s == 2 {
			gate.Manager = m
			rt.Register(engine.QMAddr(s), gate)
		} else {
			rt.Register(engine.QMAddr(s), m)
		}
	}
	// A 1 µs cooldown lets each NAK the controller hears shrink the window.
	adm := ri.AdmissionOptions{Enabled: true, InitialWindow: 64, DecreaseFactor: 0.5, CooldownMicros: 1}
	iss := ri.New(0, pm, nil, ri.Options{Admission: adm}, nil)
	naks := &busyCount{Actor: iss}
	rt.Register(engine.RIAddr(0), naks)
	log := &doneLog{}
	rt.Register(engine.CollectorAddr(), log)

	rt.Post(engine.Envelope{To: engine.QMAddr(2), Msg: model.TickMsg{}})
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("site 2 never wedged")
	}
	rt.Post(engine.Envelope{To: engine.QMAddr(2), Msg: model.TickMsg{}}) // site 2's mailbox is full
	tx := model.NewTxn(model.TxnID{Site: 0, Seq: 1}, model.ROSnapshot, []model.ItemID{0, 2, 5}, nil, 0)
	rt.Post(engine.Envelope{From: engine.DriverAddr(0), To: engine.RIAddr(0), Msg: model.SubmitTxnMsg{Txn: tx}})

	eventually(t, "the refused batch's NAKs", func() bool { return naks.count() == 2 })
	eventually(t, "the transaction to be shed", func() bool { return log.count(model.OutcomeBusy) == 1 })
	eventually(t, "the issuer to finish", func() bool { return iss.Snapshot().Active == 0 })
	s := iss.Snapshot()
	if s.ROBusyShed != 1 || s.BusyNAKs != 1 || s.Committed != 0 || s.Window != 32 {
		t.Fatalf("stats %+v: want one shed, one counted NAK, no commit, and the window halved once (32)", s)
	}
	if overflows, _ := rt.MailboxStats(); overflows != 1 {
		t.Fatalf("%d refused envelopes, want the one batch", overflows)
	}
}

// TestRefusedBatchIsRefusedPerCopy runs a real issuer and three real queue
// managers on one runtime with every mailbox bounded at 1, site 1's mailbox
// full when a two-item transaction opens: its request batch to site 1 is
// refused whole, and the issuer must see one busy NAK per member. Under
// quorum (N3/W2) the first attempt asks sites 0 and 1 for both items and
// holds site 2's copies as spares: the NAKs exclude exactly site 1's two
// copies, the spares are hedged in once, and the attempt still commits
// through sites 0 and 2, without a restart. Under write-all the attempt
// restarts and commits once the site drains. Either way no transaction is
// left active.
func TestRefusedBatchIsRefusedPerCopy(t *testing.T) {
	for _, mode := range []string{"quorum", "write-all"} {
		t.Run(mode, func(t *testing.T) {
			rt := engine.NewRuntime(engine.FixedLatency{}, 1)
			rt.SetMailboxDepth(1)
			defer rt.Shutdown()
			sites := []model.SiteID{0, 1, 2}
			pm := placement.Build(placement.RoundRobin, 4, sites, 3)
			gate := &gatedQM{entered: make(chan struct{}), release: make(chan struct{})}
			released := false
			release := func() {
				if !released {
					released = true
					close(gate.release)
				}
			}
			defer release()
			for _, s := range sites {
				st := storage.NewStore(s)
				for i := 0; i < 4; i++ {
					st.Create(model.ItemID(i), 100)
				}
				m := qm.New(s, st, nil, qm.Options{})
				m.SetPartitionMap(pm)
				if s == 1 {
					gate.Manager = m
					rt.Register(engine.QMAddr(s), gate)
				} else {
					rt.Register(engine.QMAddr(s), m)
				}
			}
			// The restart waits 25-75 ms: long enough that the retry cannot
			// hit the wedged site again before the test looks.
			opts := ri.Options{PAIntervalMicros: 10, RestartDelayMicros: 50_000}
			if mode == "quorum" {
				opts.Quorum = &model.Quorum{N: 3, W: 2, R: 2}
			}
			iss := ri.New(0, pm, nil, opts, nil)
			rt.Register(engine.RIAddr(0), iss)
			log := &doneLog{}
			rt.Register(engine.CollectorAddr(), log)

			rt.Post(engine.Envelope{To: engine.QMAddr(1), Msg: model.TickMsg{}})
			select {
			case <-gate.entered:
			case <-time.After(10 * time.Second):
				t.Fatal("site 1 never wedged")
			}
			rt.Post(engine.Envelope{To: engine.QMAddr(1), Msg: model.TickMsg{}}) // site 1's mailbox is full
			tx := model.NewTxn(model.TxnID{Site: 0, Seq: 1}, model.TwoPL, nil, []model.ItemID{0, 1}, 0)
			rt.Post(engine.Envelope{From: engine.DriverAddr(0), To: engine.RIAddr(0), Msg: model.SubmitTxnMsg{Txn: tx}})

			if mode == "quorum" {
				eventually(t, "the commit through sites 0 and 2", func() bool { return log.count(model.OutcomeCommitted) == 1 })
				s := iss.Snapshot()
				if s.BusyNAKs != 2 || s.QuorumExcluded != 2 || s.QuorumHedged != 1 || log.count(model.OutcomeBusy) != 0 {
					t.Fatalf("stats %+v, %d busy outcomes: want the refused batch's 2 copies NAK'd and excluded, the spares hedged once, no restart",
						s, log.count(model.OutcomeBusy))
				}
				release()
			} else {
				eventually(t, "the refused attempt to restart", func() bool { return log.count(model.OutcomeBusy) >= 1 })
				if s := iss.Snapshot(); s.Committed != 0 || s.BusyNAKs != 1 {
					t.Fatalf("stats %+v: want one live NAK (the second member's is stale) and no commit yet", s)
				}
				release()
				eventually(t, "the retry to commit", func() bool { return log.count(model.OutcomeCommitted) == 1 })
			}
			eventually(t, "the issuer to finish", func() bool { return iss.Snapshot().Active == 0 })
			eventually(t, "site 1's queues to drain", func() bool {
				return gate.QueueDepth(0) == 0 && gate.QueueDepth(1) == 0
			})
		})
	}
}
