package ri

import (
	"math/rand"
	"reflect"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/history"
	"ucc/internal/model"
	"ucc/internal/placement"
)

// fakeCtx captures sends and timers so tests can play the QM side. sent
// holds one envelope per copy — a batch expanded into the messages it stands
// for, which is what the take[M] matchers read — and wire one per envelope
// actually sent.
type fakeCtx struct {
	now    int64
	sent   []engine.Envelope
	wire   []engine.Envelope
	timers []engine.Envelope
	delays []int64 // SetTimer delays, parallel to timers
	rng    *rand.Rand
}

func newCtx() *fakeCtx { return &fakeCtx{rng: rand.New(rand.NewSource(2))} }

func (c *fakeCtx) NowMicros() int64  { return c.now }
func (c *fakeCtx) Self() engine.Addr { return engine.RIAddr(0) }
func (c *fakeCtx) Rand() *rand.Rand  { return c.rng }
func (c *fakeCtx) Send(to engine.Addr, msg model.Message) {
	// The fake context is its own delivery layer: capture a value copy so the
	// take[M] matchers see value forms, and recycle the pooled pointer right
	// away (ownership transfers at Send; the issuer never touches it again).
	v := valueForm(msg)
	c.wire = append(c.wire, engine.Envelope{To: to, Msg: v})
	for _, m := range perCopy(v) {
		c.sent = append(c.sent, engine.Envelope{To: to, Msg: m})
	}
	model.RecycleMessage(msg)
}

// valueForm is a value copy of a pooled message, which owns its arrays (it
// derefs a retained copy that nothing recycles), and any other message as it
// is.
func valueForm(msg model.Message) model.Message {
	if v := reflect.ValueOf(msg); v.Kind() == reflect.Pointer {
		return reflect.ValueOf(model.RetainMessage(msg)).Elem().Interface().(model.Message)
	}
	return msg
}

// deliver hands msg to iss in the one form a delivery layer hands it over:
// a grant or snapshot reply as the pooled batch of one it travels as, any
// other value of a pooled type as its pooled pointer, recycled when iss
// returns. Anything else, pooled pointers included, passes as it is.
func deliver(iss *Issuer, ctx engine.Context, from engine.Addr, msg model.Message) {
	p, made := pooledForm(msg)
	iss.OnMessage(ctx, from, p)
	if made {
		model.RecycleMessage(p)
	}
}

// pooledForm is deliver's conversion; made reports that it built p.
func pooledForm(msg model.Message) (p model.Message, made bool) {
	switch v := msg.(type) {
	case model.GrantMsg:
		return model.PooledGrantBatch(model.GrantBatchMsg{
			Txn: v.Txn, Attempt: v.Attempt, CopySite: v.Copy.Site, Members: []model.GrantMember{{
				Item: v.Copy.Item, Lock: v.Lock, PreScheduled: v.PreScheduled, TS: v.TS,
				Value: v.Value, Version: v.Version, CommitMicros: v.CommitMicros,
			}},
		}), true
	case model.SnapReadReplyMsg:
		return model.PooledSnapReadReplyBatch(model.SnapReadReplyBatchMsg{
			Txn: v.Txn, Attempt: v.Attempt, CopySite: v.Copy.Site, Members: []model.SnapReadReplyMember{{
				Item: v.Copy.Item, Value: v.Value, Version: v.Version, CommitMicros: v.CommitMicros, Exact: v.Exact,
			}},
		}), true
	case model.GrantBatchMsg:
		return model.PooledGrantBatch(v), true
	case model.SnapReadReplyBatchMsg:
		return model.PooledSnapReadReplyBatch(v), true
	case model.NormalGrantMsg:
		return model.PooledNormalGrant(v), true
	case model.RejectMsg:
		return model.PooledReject(v), true
	case model.BackoffMsg:
		return model.PooledBackoff(v), true
	case model.BusyMsg:
		return model.PooledBusy(v), true
	case model.ComputeDoneMsg:
		return model.PooledComputeDone(v), true
	case model.RestartMsg:
		return model.PooledRestart(v), true
	}
	return msg, false
}

// perCopy expands a batch into the per-copy messages it stands for; any other
// message stands for itself.
func perCopy(m model.Message) []model.Message {
	var out []model.Message
	switch v := m.(type) {
	case model.RequestBatchMsg:
		for i := range v.Members {
			out = append(out, v.Request(i))
		}
	case model.ReleaseBatchMsg:
		for i := range v.Members {
			out = append(out, v.Release(i))
		}
	case model.AbortBatchMsg:
		for i := range v.Members {
			out = append(out, v.Abort(i))
		}
	case model.GrantBatchMsg:
		for i := range v.Members {
			out = append(out, v.Grant(i))
		}
	case model.SnapReadBatchMsg:
		for i := range v.Members {
			out = append(out, v.SnapRead(i))
		}
	default:
		out = append(out, m)
	}
	return out
}
func (c *fakeCtx) SetTimer(d int64, msg model.Message) {
	c.timers = append(c.timers, engine.Envelope{To: c.Self(), Msg: msg})
	c.delays = append(c.delays, d)
}

func take[M model.Message](c *fakeCtx) []M {
	var out []M
	var rest []engine.Envelope
	for _, e := range c.sent {
		if m, ok := e.Msg.(M); ok {
			out = append(out, m)
		} else {
			rest = append(rest, e)
		}
	}
	c.sent = rest
	return out
}

// fireTimers delivers all captured timer messages back to the issuer.
func fireTimers(ri *Issuer, c *fakeCtx) {
	timers := c.timers
	c.timers = nil
	c.delays = nil
	for _, e := range timers {
		deliver(ri, c, e.To, e.Msg)
	}
}

func testIssuer(items, sites, replicas int) (*Issuer, *fakeCtx) {
	siteIDs := make([]model.SiteID, sites)
	for i := range siteIDs {
		siteIDs[i] = model.SiteID(i)
	}
	pm := placement.Build(placement.RoundRobin, items, siteIDs, replicas)
	rec := history.NewRecorder()
	iss := New(0, pm, rec, Options{
		PAIntervalMicros:     10,
		RestartDelayMicros:   100,
		DefaultComputeMicros: 50,
	}, nil)
	return iss, newCtx()
}

func submit(iss *Issuer, c *fakeCtx, p model.Protocol, reads, writes []model.ItemID) *model.Txn {
	t := model.NewTxn(model.TxnID{Site: 0, Seq: 99}, p, reads, writes, 50)
	iss.OnMessage(c, engine.DriverAddr(0), model.SubmitTxnMsg{Txn: t})
	return t
}

func grant(iss *Issuer, c *fakeCtx, req model.RequestMsg, lock model.LockKind, pre bool) {
	deliver(iss, c, engine.QMAddr(req.Copy.Site), model.GrantMsg{
		Txn: req.Txn, Attempt: req.Attempt, Copy: req.Copy,
		Lock: lock, PreScheduled: pre, TS: req.TS, Value: 7,
	})
}

func TestRequestFanoutROWA(t *testing.T) {
	iss, c := testIssuer(8, 4, 2)
	submit(iss, c, model.TwoPL, []model.ItemID{0}, []model.ItemID{1})
	reqs := take[model.RequestMsg](c)
	// 1 read (primary only) + 2 write copies.
	if len(reqs) != 3 {
		t.Fatalf("requests = %d want 3: %+v", len(reqs), reqs)
	}
	var reads, writes int
	for _, r := range reqs {
		if r.Kind == model.OpRead {
			reads++
			if r.TS != model.NoTimestamp {
				t.Fatal("2PL request must carry NoTimestamp")
			}
		} else {
			writes++
		}
	}
	if reads != 1 || writes != 2 {
		t.Fatalf("reads=%d writes=%d", reads, writes)
	}
}

func TestTwoPLLifecycle(t *testing.T) {
	iss, c := testIssuer(8, 2, 1)
	submit(iss, c, model.TwoPL, []model.ItemID{0}, []model.ItemID{1})
	reqs := take[model.RequestMsg](c)
	for _, r := range reqs {
		lock := model.RL
		if r.Kind == model.OpWrite {
			lock = model.WL
		}
		grant(iss, c, r, lock, false)
	}
	fireTimers(iss, c) // compute done
	rels := take[model.ReleaseMsg](c)
	if len(rels) != 2 {
		t.Fatalf("releases = %d want 2", len(rels))
	}
	for _, r := range rels {
		if r.ToSemi {
			t.Fatal("2PL must not convert to semi-locks")
		}
	}
	dones := take[model.TxnDoneMsg](c)
	if len(dones) != 1 || dones[0].Outcome != model.OutcomeCommitted {
		t.Fatalf("done = %+v", dones)
	}
	if iss.Snapshot().Active != 0 {
		t.Fatal("state not cleaned up")
	}
}

func TestWriteValueSpecs(t *testing.T) {
	iss, c := testIssuer(8, 2, 1)
	tx := model.NewTxn(model.TxnID{Site: 0, Seq: 1}, model.TwoPL,
		nil, []model.ItemID{2, 3}, 50)
	tx.Specs = []model.WriteSpec{
		{Item: 2, UseSource: true, Source: 2, AddConst: -5}, // pre-image − 5
		{Item: 3, AddConst: 42},                             // constant
	}
	iss.OnMessage(c, engine.DriverAddr(0), model.SubmitTxnMsg{Txn: tx})
	for _, r := range take[model.RequestMsg](c) {
		grant(iss, c, r, model.WL, false) // pre-image value 7
	}
	fireTimers(iss, c)
	for _, r := range take[model.ReleaseMsg](c) {
		switch r.Copy.Item {
		case 2:
			if !r.HasWrite || r.Value != 2 { // 7−5
				t.Fatalf("item 2 release = %+v", r)
			}
		case 3:
			if !r.HasWrite || r.Value != 42 {
				t.Fatalf("item 3 release = %+v", r)
			}
		}
	}
}

func TestTORejectRestartsWithBiggerTS(t *testing.T) {
	iss, c := testIssuer(8, 2, 1)
	submit(iss, c, model.TO, []model.ItemID{0}, []model.ItemID{1})
	reqs := take[model.RequestMsg](c)
	origTS := reqs[0].TS
	// One queue rejects with a big threshold.
	deliver(iss, c, engine.QMAddr(reqs[0].Copy.Site), model.RejectMsg{
		Txn: reqs[0].Txn, Attempt: reqs[0].Attempt, Copy: reqs[0].Copy, Threshold: origTS + 1000,
	})
	aborts := take[model.AbortMsg](c)
	if len(aborts) != 1 { // the other copy is withdrawn
		t.Fatalf("aborts = %d want 1", len(aborts))
	}
	dones := take[model.TxnDoneMsg](c)
	if len(dones) != 1 || dones[0].Outcome != model.OutcomeRejected {
		t.Fatalf("done = %+v", dones)
	}
	fireTimers(iss, c) // restart timer
	retry := take[model.RequestMsg](c)
	if len(retry) != 2 {
		t.Fatalf("retry requests = %d", len(retry))
	}
	if retry[0].TS <= origTS+1000 {
		t.Fatalf("retry TS %d not past threshold %d", retry[0].TS, origTS+1000)
	}
	if retry[0].Attempt != 1 {
		t.Fatalf("attempt = %d want 1", retry[0].Attempt)
	}
}

func TestTOSemiLockLifecycle(t *testing.T) {
	iss, c := testIssuer(8, 2, 1)
	tx := submit(iss, c, model.TO, []model.ItemID{0}, []model.ItemID{1})
	reqs := take[model.RequestMsg](c)
	// Read grant is pre-scheduled; write grant normal.
	for _, r := range reqs {
		if r.Kind == model.OpRead {
			grant(iss, c, r, model.SRL, true)
		} else {
			grant(iss, c, r, model.WL, false)
		}
	}
	fireTimers(iss, c) // compute done → conversion round
	rels := take[model.ReleaseMsg](c)
	if len(rels) != 2 {
		t.Fatalf("conversion releases = %d", len(rels))
	}
	for _, r := range rels {
		if !r.ToSemi {
			t.Fatalf("expected ToSemi conversion: %+v", r)
		}
	}
	// Executed already (commit reported), but still awaiting normal grants.
	dones := take[model.TxnDoneMsg](c)
	if len(dones) != 1 || dones[0].Outcome != model.OutcomeCommitted {
		t.Fatalf("executed commit missing: %+v", dones)
	}
	if iss.Snapshot().Active != 1 {
		t.Fatal("transaction must remain active until normal grants arrive")
	}
	// Normal grant for the pre-scheduled read arrives → final releases.
	var readCopy model.CopyID
	for _, r := range reqs {
		if r.Kind == model.OpRead {
			readCopy = r.Copy
		}
	}
	deliver(iss, c, engine.QMAddr(readCopy.Site), model.NormalGrantMsg{
		Txn: tx.ID, Attempt: 0, Copy: readCopy,
	})
	final := take[model.ReleaseMsg](c)
	if len(final) != 2 {
		t.Fatalf("final releases = %d", len(final))
	}
	for _, r := range final {
		if r.ToSemi || r.HasWrite {
			t.Fatalf("final release must be plain: %+v", r)
		}
	}
	if iss.Snapshot().Active != 0 {
		t.Fatal("transaction not finished")
	}
}

func TestPANegotiation(t *testing.T) {
	iss, c := testIssuer(8, 2, 1)
	tx := submit(iss, c, model.PA, nil, []model.ItemID{0, 1})
	reqs := take[model.RequestMsg](c)
	if len(reqs) != 2 {
		t.Fatalf("requests = %d", len(reqs))
	}
	// Copy 0 grants provisionally; copy 1 backs off to TS+40.
	grant(iss, c, reqs[0], model.WL, false)
	deliver(iss, c, engine.QMAddr(reqs[1].Copy.Site), model.BackoffMsg{
		Txn: tx.ID, Attempt: 0, Copy: reqs[1].Copy, NewTS: reqs[1].TS + 40,
	})
	// All queues responded → FinalTS broadcast to both copies.
	finals := take[model.FinalTSMsg](c)
	if len(finals) != 2 {
		t.Fatalf("finalTS msgs = %d want 2", len(finals))
	}
	final := finals[0].TS
	if final != reqs[1].TS+40 {
		t.Fatalf("final TS = %d want %d", final, reqs[1].TS+40)
	}
	// A stale grant against the original timestamp must be ignored.
	grant(iss, c, reqs[0], model.WL, false)
	if got := take[model.ReleaseMsg](c); len(got) != 0 {
		t.Fatal("executed on a stale provisional grant")
	}
	// Fresh grants stamped with the final timestamp complete the txn.
	for _, f := range finals {
		deliver(iss, c, engine.QMAddr(f.Copy.Site), model.GrantMsg{
			Txn: tx.ID, Attempt: 0, Copy: f.Copy, Lock: model.WL, TS: final, Value: 1,
		})
	}
	fireTimers(iss, c)
	rels := take[model.ReleaseMsg](c)
	if len(rels) != 2 {
		t.Fatalf("releases = %d", len(rels))
	}
	dones := take[model.TxnDoneMsg](c)
	if len(dones) != 1 || dones[0].Outcome != model.OutcomeCommitted {
		t.Fatalf("dones = %+v", dones)
	}
	if dones[0].BackoffWrites != 1 {
		t.Fatalf("backoff accounting: %+v", dones[0])
	}
}

func TestVictimAbortsAndRestarts(t *testing.T) {
	iss, c := testIssuer(8, 2, 1)
	tx := submit(iss, c, model.TwoPL, nil, []model.ItemID{0, 1})
	reqs := take[model.RequestMsg](c)
	grant(iss, c, reqs[0], model.WL, false) // one lock held
	iss.OnMessage(c, engine.DetectorAddr(), model.VictimMsg{Txn: tx.ID, Attempt: 0})
	aborts := take[model.AbortMsg](c)
	if len(aborts) != 2 {
		t.Fatalf("aborts = %d want 2 (all copies withdrawn)", len(aborts))
	}
	dones := take[model.TxnDoneMsg](c)
	if len(dones) != 1 || dones[0].Outcome != model.OutcomeDeadlockVictim {
		t.Fatalf("dones = %+v", dones)
	}
	fireTimers(iss, c)
	if retry := take[model.RequestMsg](c); len(retry) != 2 {
		t.Fatalf("retry = %d", len(retry))
	}
}

func TestVictimIgnoredDuringCompute(t *testing.T) {
	iss, c := testIssuer(8, 2, 1)
	tx := submit(iss, c, model.TwoPL, nil, []model.ItemID{0})
	reqs := take[model.RequestMsg](c)
	grant(iss, c, reqs[0], model.WL, false)
	// Transaction is computing; a stale victim message must not abort it.
	iss.OnMessage(c, engine.DetectorAddr(), model.VictimMsg{Txn: tx.ID, Attempt: 0})
	if aborts := take[model.AbortMsg](c); len(aborts) != 0 {
		t.Fatal("aborted while computing")
	}
	fireTimers(iss, c)
	if rels := take[model.ReleaseMsg](c); len(rels) != 1 {
		t.Fatal("did not finish after ignored victim")
	}
}

func TestMaxAttemptsDrops(t *testing.T) {
	siteIDs := []model.SiteID{0, 1}
	pm := placement.Build(placement.RoundRobin, 4, siteIDs, 1)
	iss := New(0, pm, nil, Options{
		PAIntervalMicros: 10, RestartDelayMicros: 10, DefaultComputeMicros: 10,
		MaxAttempts: 1,
	}, nil)
	c := newCtx()
	tx := model.NewTxn(model.TxnID{Site: 0, Seq: 1}, model.TO, nil, []model.ItemID{0}, 10)
	iss.OnMessage(c, engine.DriverAddr(0), model.SubmitTxnMsg{Txn: tx})
	req := take[model.RequestMsg](c)[0]
	deliver(iss, c, engine.QMAddr(req.Copy.Site), model.RejectMsg{
		Txn: req.Txn, Attempt: 0, Copy: req.Copy, Threshold: 10,
	})
	if s := iss.Snapshot(); s.Dropped != 1 || s.Active != 0 {
		t.Fatalf("drop accounting: %+v", s)
	}
}

func TestChooseFuncOverridesProtocol(t *testing.T) {
	siteIDs := []model.SiteID{0}
	pm := placement.Build(placement.RoundRobin, 4, siteIDs, 1)
	iss := New(0, pm, nil, DefaultOptions(), func(*model.Txn, model.EstimateMsg) model.Protocol {
		return model.PA
	})
	c := newCtx()
	tx := model.NewTxn(model.TxnID{Site: 0, Seq: 1}, model.TwoPL, nil, []model.ItemID{0}, 10)
	iss.OnMessage(c, engine.DriverAddr(0), model.SubmitTxnMsg{Txn: tx})
	req := take[model.RequestMsg](c)[0]
	if req.Protocol != model.PA {
		t.Fatalf("selector not applied: %v", req.Protocol)
	}
}

func TestStaleMessagesIgnored(t *testing.T) {
	iss, c := testIssuer(8, 2, 1)
	tx := submit(iss, c, model.TO, nil, []model.ItemID{0})
	req := take[model.RequestMsg](c)[0]
	// A grant for a wrong attempt is dropped.
	deliver(iss, c, engine.QMAddr(req.Copy.Site), model.GrantMsg{
		Txn: tx.ID, Attempt: 7, Copy: req.Copy, Lock: model.WL, TS: req.TS,
	})
	if iss.Snapshot().Committed != 0 {
		t.Fatal("stale grant advanced the transaction")
	}
	// A grant for an unknown transaction is dropped.
	deliver(iss, c, engine.QMAddr(0), model.GrantMsg{
		Txn: model.TxnID{Site: 0, Seq: 12345}, Copy: req.Copy, Lock: model.WL,
	})
}

func TestSwitchOnRestart(t *testing.T) {
	// §6(4): a transaction may change its protocol when it restarts — here a
	// rejected T/O transaction escalates to PA (which cannot be rejected).
	siteIDs := []model.SiteID{0, 1}
	pm := placement.Build(placement.RoundRobin, 4, siteIDs, 1)
	iss := New(0, pm, nil, Options{
		PAIntervalMicros: 10, RestartDelayMicros: 10, DefaultComputeMicros: 10,
		SwitchOnRestart: func(cur model.Protocol, attempts int) model.Protocol {
			if cur == model.TO && attempts >= 1 {
				return model.PA
			}
			return cur
		},
	}, nil)
	c := newCtx()
	tx := model.NewTxn(model.TxnID{Site: 0, Seq: 1}, model.TO, nil, []model.ItemID{0}, 10)
	iss.OnMessage(c, engine.DriverAddr(0), model.SubmitTxnMsg{Txn: tx})
	req := take[model.RequestMsg](c)[0]
	if req.Protocol != model.TO {
		t.Fatalf("first attempt protocol = %v", req.Protocol)
	}
	deliver(iss, c, engine.QMAddr(req.Copy.Site), model.RejectMsg{
		Txn: req.Txn, Attempt: 0, Copy: req.Copy, Threshold: 100,
	})
	fireTimers(iss, c) // restart
	retry := take[model.RequestMsg](c)
	if len(retry) != 1 || retry[0].Protocol != model.PA {
		t.Fatalf("retry did not switch to PA: %+v", retry)
	}
}

// TestStatsSubEveryField: Sub takes every counter away and keeps the gauges
// (Active, Window) at the current value, and Add sums every counter and
// Active, so a counter added to Stats without a line in both fails here
// instead of reading as a running total in every scenario phase's deltas or
// as zero in the cluster's totals.
func TestStatsSubEveryField(t *testing.T) {
	var cur, prev Stats
	c, p := reflect.ValueOf(&cur).Elem(), reflect.ValueOf(&prev).Elem()
	for i := 0; i < c.NumField(); i++ {
		c.Field(i).Set(reflect.ValueOf(3 * (i + 1)).Convert(c.Field(i).Type()))
		p.Field(i).Set(reflect.ValueOf(i + 1).Convert(p.Field(i).Type()))
	}
	d := cur
	d.Sub(prev)
	v := reflect.ValueOf(d)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		want := 2 * (i + 1)
		if name == "Active" || name == "Window" {
			want = 3 * (i + 1)
		}
		if got := v.Field(i).Convert(reflect.TypeOf(0)).Interface(); got != want {
			t.Errorf("%s = %v after Sub, want %d", name, got, want)
		}
	}
	// Add sums every counter and Active, and keeps Window: the totals
	// over issuers, one controller's gauge aside.
	sum := cur
	sum.Add(prev)
	v = reflect.ValueOf(sum)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		want := 4 * (i + 1)
		if name == "Window" {
			want = 3 * (i + 1)
		}
		if got := v.Field(i).Convert(reflect.TypeOf(0)).Interface(); got != want {
			t.Errorf("%s = %v after Add, want %d", name, got, want)
		}
	}
}
