package ri

import (
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/placement"
)

func admissionIssuer(opts Options) (*Issuer, *fakeCtx) {
	siteIDs := []model.SiteID{0, 1}
	pm := placement.Build(placement.RoundRobin, 8, siteIDs, 1)
	if opts.PAIntervalMicros == 0 {
		opts.PAIntervalMicros = 10
	}
	if opts.RestartDelayMicros == 0 {
		opts.RestartDelayMicros = 100
	}
	if opts.DefaultComputeMicros == 0 {
		opts.DefaultComputeMicros = 50
	}
	return New(0, pm, nil, opts, nil), newCtx()
}

func submitSeq(iss *Issuer, c *fakeCtx, seq uint64, items ...model.ItemID) {
	t := model.NewTxn(model.TxnID{Site: 0, Seq: seq}, model.TO, nil, items, 50)
	iss.OnMessage(c, engine.DriverAddr(0), model.SubmitTxnMsg{Txn: t})
}

// TestRestartBackoffExponentialUntilCap is the restart-storm regression
// test: attempt N's pre-jitter delay must double from the base until the
// configured cap, then stay there — a flat delay re-collides every loser of
// a contention round at the same rate forever.
func TestRestartBackoffExponentialUntilCap(t *testing.T) {
	iss, _ := admissionIssuer(Options{
		RestartDelayMicros:    1_000,
		RestartDelayCapMicros: 8_000,
	})
	want := []int64{1_000, 2_000, 4_000, 8_000, 8_000, 8_000}
	for i, w := range want {
		if got := iss.rawRestartDelay(i + 1); got != w {
			t.Fatalf("attempt %d raw delay = %d, want %d", i+1, got, w)
		}
	}
	// Default cap = 32× base.
	iss2, _ := admissionIssuer(Options{RestartDelayMicros: 1_000})
	if got := iss2.rawRestartDelay(20); got != 32_000 {
		t.Fatalf("default cap delay = %d, want 32000", got)
	}
	if got := iss2.rawRestartDelay(1); got != 1_000 {
		t.Fatalf("first retry delay = %d, want the base 1000", got)
	}
}

// TestRestartBackoffJitteredTimerGrows drives real rejections through the
// issuer and asserts the scheduled timer delays grow with the attempts while
// staying inside the ±50% jitter envelope of the capped exponential.
func TestRestartBackoffJitteredTimerGrows(t *testing.T) {
	iss, c := admissionIssuer(Options{
		RestartDelayMicros:    1_000,
		RestartDelayCapMicros: 16_000,
	})
	submitSeq(iss, c, 1, 0)
	for attempt := 0; attempt < 6; attempt++ {
		reqs := take[model.RequestMsg](c)
		if len(reqs) != 1 {
			t.Fatalf("attempt %d: requests = %d", attempt, len(reqs))
		}
		c.timers, c.delays = nil, nil
		deliver(iss, c, engine.QMAddr(0), model.RejectMsg{
			Txn: reqs[0].Txn, Attempt: reqs[0].Attempt, Copy: reqs[0].Copy,
			Threshold: reqs[0].TS + 10,
		})
		if len(c.delays) != 1 {
			t.Fatalf("attempt %d: restart timers = %d", attempt, len(c.delays))
		}
		raw := int64(1_000) << attempt
		if raw > 16_000 {
			raw = 16_000
		}
		d := c.delays[0]
		if d < raw/2 || d >= raw+raw/2 {
			t.Fatalf("attempt %d: delay %d outside jitter envelope [%d,%d) of raw %d",
				attempt, d, raw/2, raw+raw/2, raw)
		}
		fireTimers(iss, c) // relaunch
	}
}

// TestAdmissionWindowSheds: arrivals beyond the in-flight window are shed —
// reported to the collector with OutcomeShed, counted, and (for closed-loop
// drivers) released immediately — and never issue a request.
func TestAdmissionWindowSheds(t *testing.T) {
	iss, c := admissionIssuer(Options{
		Admission: AdmissionOptions{Enabled: true, InitialWindow: 2},
	})
	iss.SetNotifyDriver(true)
	for seq := uint64(1); seq <= 4; seq++ {
		submitSeq(iss, c, seq, model.ItemID(seq%8))
	}
	reqs := take[model.RequestMsg](c)
	if len(reqs) != 2 {
		t.Fatalf("requests = %d, want 2 (window)", len(reqs))
	}
	dones := take[model.TxnDoneMsg](c)
	if len(dones) != 2 {
		t.Fatalf("shed reports = %d, want 2", len(dones))
	}
	for _, d := range dones {
		if d.Outcome != model.OutcomeShed {
			t.Fatalf("outcome = %v, want shed", d.Outcome)
		}
	}
	// Closed-loop slots freed immediately for the shed pair.
	if fins := take[model.TxnFinishedMsg](c); len(fins) != 2 {
		t.Fatalf("driver releases = %d, want 2", len(fins))
	}
	if s := iss.Snapshot(); s.Shed != 2 || s.Active != 2 || s.Submitted != 4 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestAdmissionTokenBucket: with a rate gate, starts beyond the bucket are
// shed even while the window has room; refill readmits.
func TestAdmissionTokenBucket(t *testing.T) {
	iss, c := admissionIssuer(Options{
		Admission: AdmissionOptions{
			Enabled:       true,
			InitialWindow: 100,
			TokensPerSec:  10,
			Burst:         2,
		},
	})
	for seq := uint64(1); seq <= 4; seq++ {
		submitSeq(iss, c, seq, model.ItemID(seq%8))
	}
	if reqs := take[model.RequestMsg](c); len(reqs) != 2 {
		t.Fatalf("requests = %d, want 2 (burst)", len(reqs))
	}
	if s := iss.Snapshot(); s.Shed != 2 {
		t.Fatalf("shed = %d, want 2", s.Shed)
	}
	// 100ms refills one token at 10/s.
	c.now += 100_000
	submitSeq(iss, c, 5, 3)
	if reqs := take[model.RequestMsg](c); len(reqs) != 1 {
		t.Fatalf("post-refill requests = %d, want 1", len(reqs))
	}
}

// TestBusyNAKAbortsRestartsAndShrinksWindow: a BusyMsg from a saturated
// queue manager aborts the attempt (withdrawing the other copies), schedules
// a backoff restart, and multiplicatively shrinks the admission window.
func TestBusyNAKAbortsRestartsAndShrinksWindow(t *testing.T) {
	iss, c := admissionIssuer(Options{
		Admission: AdmissionOptions{Enabled: true, InitialWindow: 64},
	})
	submitSeq(iss, c, 1, 0, 1)
	reqs := take[model.RequestMsg](c)
	if len(reqs) != 2 {
		t.Fatalf("requests = %d", len(reqs))
	}
	before := iss.Snapshot().Window
	c.now = 1_000_000 // past any cooldown ambiguity at t=0
	deliver(iss, c, engine.QMAddr(0), model.BusyMsg{
		Txn: reqs[0].Txn, Attempt: reqs[0].Attempt, Copy: reqs[0].Copy,
	})
	if aborts := take[model.AbortMsg](c); len(aborts) != 2 {
		// Both copies are withdrawn, including the NAK'd one: a transport-
		// synthesized NAK cannot know whether its request reached the queue
		// manager, and an abort for a never-queued entry is a QM no-op.
		t.Fatalf("aborts = %d, want 2 (every copy withdrawn)", len(aborts))
	}
	dones := take[model.TxnDoneMsg](c)
	if len(dones) != 1 || dones[0].Outcome != model.OutcomeBusy {
		t.Fatalf("dones = %+v", dones)
	}
	if len(c.timers) != 1 {
		t.Fatalf("restart timers = %d", len(c.timers))
	}
	after := iss.Snapshot()
	if after.BusyNAKs != 1 {
		t.Fatalf("busy NAK counter = %d", after.BusyNAKs)
	}
	if after.Window >= before {
		t.Fatalf("window did not shrink: %v -> %v", before, after.Window)
	}
	// The retry relaunches with a bumped attempt.
	fireTimers(iss, c)
	retry := take[model.RequestMsg](c)
	if len(retry) != 2 || retry[0].Attempt != 1 {
		t.Fatalf("retry = %+v", retry)
	}
	// A stale NAK for the aborted attempt is ignored — including by the
	// admission controller: well past the AIMD cooldown, a phantom NAK
	// (duplicated by a transport batch retry) must not shrink the window
	// for an attempt that no longer exists.
	c.now = 2_000_000
	windowBefore := iss.Snapshot().Window
	deliver(iss, c, engine.QMAddr(0), model.BusyMsg{
		Txn: reqs[0].Txn, Attempt: 0, Copy: reqs[0].Copy,
	})
	if aborts := take[model.AbortMsg](c); len(aborts) != 0 {
		t.Fatal("stale NAK aborted the new attempt")
	}
	if w := iss.Snapshot().Window; w != windowBefore {
		t.Fatalf("stale NAK moved the admission window: %v -> %v", windowBefore, w)
	}
}

// TestBusyNAKShedsReadOnlySnapshot: the RO fast path has no restart
// machinery — a busy NAK sheds the whole transaction and frees its slot.
func TestBusyNAKShedsReadOnlySnapshot(t *testing.T) {
	iss, c := admissionIssuer(Options{})
	iss.SetNotifyDriver(true)
	tx := model.NewTxn(model.TxnID{Site: 0, Seq: 1}, model.ROSnapshot, []model.ItemID{0, 1}, nil, 50)
	iss.OnMessage(c, engine.DriverAddr(0), model.SubmitTxnMsg{Txn: tx})
	snaps := take[model.SnapReadMsg](c)
	if len(snaps) != 2 {
		t.Fatalf("snap reads = %d", len(snaps))
	}
	deliver(iss, c, engine.QMAddr(0), model.BusyMsg{
		Txn: tx.ID, Copy: snaps[0].Copy,
	})
	dones := take[model.TxnDoneMsg](c)
	if len(dones) != 1 || dones[0].Outcome != model.OutcomeBusy || dones[0].Protocol != model.ROSnapshot {
		t.Fatalf("dones = %+v", dones)
	}
	if fins := take[model.TxnFinishedMsg](c); len(fins) != 1 {
		t.Fatalf("driver releases = %d, want 1", len(fins))
	}
	if s := iss.Snapshot(); s.Active != 0 || s.BusyNAKs != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// The straggler reply for the shed transaction is dropped silently.
	deliver(iss, c, engine.QMAddr(1), model.SnapReadReplyMsg{
		Txn: tx.ID, Copy: snaps[1].Copy, Exact: true,
	})
	if s := iss.Snapshot(); s.Committed != 0 {
		t.Fatal("shed RO transaction committed from a straggler reply")
	}
}

// TestAdmissionAIMDRecovers: after a decrease, in-target commits grow the
// window back additively.
func TestAdmissionAIMDRecovers(t *testing.T) {
	a := newAdmission(AdmissionOptions{Enabled: true, InitialWindow: 10, MinWindow: 2})
	a.onBusy(1_000_000)
	shrunk := a.window
	if shrunk >= 10 {
		t.Fatalf("window did not shrink: %v", shrunk)
	}
	for i := 0; i < 100; i++ {
		a.onCommit(2_000_000+int64(i), 1_000)
	}
	if a.window <= shrunk {
		t.Fatalf("window did not recover: %v -> %v", shrunk, a.window)
	}
	// The first congestion signal counts even within a cooldown of t=0
	// (virtual time starts at zero; lastDecrease=0 must not read as "just
	// decreased").
	early := newAdmission(AdmissionOptions{Enabled: true, InitialWindow: 100, CooldownMicros: 10_000})
	early.onBusy(5_000)
	if early.window >= 100 {
		t.Fatalf("first decrease within a cooldown of t=0 was swallowed: %v", early.window)
	}
	// Cooldown: a burst of NAKs in one episode decreases once.
	b := newAdmission(AdmissionOptions{Enabled: true, InitialWindow: 100, CooldownMicros: 10_000})
	b.onBusy(1_000_000)
	first := b.window
	b.onBusy(1_001_000) // inside the cooldown
	if b.window != first {
		t.Fatalf("cooldown violated: %v -> %v", first, b.window)
	}
	b.onBusy(1_020_000) // outside
	if b.window >= first {
		t.Fatalf("second episode did not decrease: %v", b.window)
	}
	// Latency signal: a slow commit also decreases.
	d := newAdmission(AdmissionOptions{Enabled: true, InitialWindow: 50, TargetLatencyMicros: 10_000})
	d.onCommit(5_000_000, 50_000)
	if d.window >= 50 {
		t.Fatalf("slow commit did not shrink the window: %v", d.window)
	}
}
