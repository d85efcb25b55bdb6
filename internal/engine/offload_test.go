package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ucc/internal/model"
)

// offloader scripts Offload on the runtime: on tag 0 it self-sends 1,
// offloads a job that blocks on gate and answers 3, then self-sends 2; tag 2
// opens the gate. Tags 4 and 5 are two back-to-back offloads whose jobs
// record the order they ran in. Every tag received is logged.
type offloader struct {
	gate     chan struct{}
	finished atomic.Bool // set by the gated job just before it returns
	mu       sync.Mutex
	got      []uint64
	ran      []int
	early    bool // the gated job's done arrived before the job returned
	done     chan struct{}
	want     int
}

func (a *offloader) OnMessage(ctx Context, _ Addr, msg model.Message) {
	tag := msg.(model.TickMsg).Tag
	a.mu.Lock()
	a.got = append(a.got, tag)
	n := len(a.got)
	a.mu.Unlock()
	switch tag {
	case 0:
		ctx.Send(ctx.Self(), model.TickMsg{Tag: 1})
		Offload(ctx, func() {
			<-a.gate
			a.finished.Store(true)
		}, model.TickMsg{Tag: 3})
		ctx.Send(ctx.Self(), model.TickMsg{Tag: 2})
	case 2:
		close(a.gate)
	case 3:
		a.early = !a.finished.Load()
		for i := 4; i <= 5; i++ {
			i := i
			Offload(ctx, func() {
				a.mu.Lock()
				a.ran = append(a.ran, i)
				a.mu.Unlock()
			}, model.TickMsg{Tag: uint64(i)})
		}
	}
	if n == a.want {
		close(a.done)
	}
}

// TestRuntimeOffloadDeliversDoneInOrder: Offload returns at once and the
// actor keeps handling messages; done arrives only after the work returned,
// behind the self-sends made before it was due, and back-to-back offloads
// run and answer in call order.
func TestRuntimeOffloadDeliversDoneInOrder(t *testing.T) {
	rt := NewRuntime(FixedLatency{}, 1)
	defer rt.Shutdown()
	a := &offloader{gate: make(chan struct{}), done: make(chan struct{}), want: 6}
	rt.Register(QMAddr(0), a)
	rt.Post(Envelope{From: QMAddr(0), To: QMAddr(0), Msg: model.TickMsg{Tag: 0}})
	waitFor(t, a.done, "the offloaded jobs' done messages")
	a.mu.Lock()
	defer a.mu.Unlock()
	want := []uint64{0, 1, 2, 3, 4, 5}
	for i := range want {
		if a.got[i] != want[i] {
			t.Fatalf("received %v, want %v: the mailbox loop waited for the work, or done overtook a self-send", a.got, want)
		}
	}
	if a.early {
		t.Fatal("done was delivered before its work returned")
	}
	if len(a.ran) != 2 || a.ran[0] != 4 || a.ran[1] != 5 {
		t.Fatalf("offloaded jobs ran in order %v, want [4 5]", a.ran)
	}
}

// TestRuntimeShutdownJoinsOffloadWorkers: Shutdown waits for the job a
// worker is running, drops its done message, and leaves no worker goroutine
// behind; an Offload after Shutdown runs nothing and starts nothing.
func TestRuntimeShutdownJoinsOffloadWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	rt := NewRuntime(FixedLatency{}, 1)
	started, release := make(chan struct{}), make(chan struct{})
	var delivered atomic.Int64
	a := actorFunc(func(ctx Context, _ Addr, msg model.Message) {
		if msg.(model.TickMsg).Tag == 1 {
			delivered.Add(1)
			return
		}
		Offload(ctx, func() { close(started); <-release }, model.TickMsg{Tag: 1})
	})
	rt.Register(QMAddr(0), a)
	rt.Post(Envelope{From: QMAddr(0), To: QMAddr(0), Msg: model.TickMsg{}})
	waitFor(t, started, "the offloaded job")

	stopped := make(chan struct{})
	go func() { rt.Shutdown(); close(stopped) }()
	select {
	case <-stopped:
		t.Fatal("Shutdown returned while a worker was still running its job")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	waitFor(t, stopped, "Shutdown")
	if n := delivered.Load(); n != 0 {
		t.Fatalf("done delivered %d times after Shutdown", n)
	}

	ran := false
	ctx := &rtContext{rt: rt, self: QMAddr(0)}
	ctx.Offload(func() { ran = true }, model.TickMsg{Tag: 1})
	if ran || ctx.jobs != nil {
		t.Fatal("Offload after Shutdown ran its work or started a worker")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Shutdown, %d before the runtime", runtime.NumGoroutine(), base)
		}
	}
}

type actorFunc func(ctx Context, from Addr, msg model.Message)

func (f actorFunc) OnMessage(ctx Context, from Addr, msg model.Message) { f(ctx, from, msg) }

// plainCtx is a Context without the Offloader method.
type plainCtx struct{ Context }

// TestOffloadWithoutOffloaderRunsInline: a context that cannot offload runs
// the work before Offload returns and reports it, so the caller handles
// done's effect itself.
func TestOffloadWithoutOffloaderRunsInline(t *testing.T) {
	ran := false
	if Offload(plainCtx{}, func() { ran = true }, model.TickMsg{}) || !ran {
		t.Fatalf("Offload on a plain context: ran=%v, want the work run in line and false returned", ran)
	}
}
