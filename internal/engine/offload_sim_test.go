package engine_test

import (
	"fmt"
	"reflect"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/sim"
)

// simTrace logs every delivery of one run, with its virtual time.
type simTrace struct{ log []string }

func (tr *simTrace) add(ctx engine.Context, who string, msg model.Message) {
	tr.log = append(tr.log, fmt.Sprintf("%d %s %v", ctx.NowMicros(), who, msg))
}

// syncer, on tag 0, sends to a peer and sets a timer, both due this very
// instant, then does its "sync": offloaded (answered by tag 9) or in line.
// Either way the sync's effect — a send to the peer — follows the sync.
type syncer struct {
	tr      *simTrace
	offload bool
	peer    engine.Addr
}

func (a *syncer) OnMessage(ctx engine.Context, _ engine.Addr, msg model.Message) {
	a.tr.add(ctx, "syncer", msg)
	switch msg.(model.TickMsg).Tag {
	case 0:
		ctx.Send(a.peer, model.TickMsg{Tag: 1})
		ctx.SetTimer(0, model.TickMsg{Tag: 2})
		if !a.offload {
			a.synced(ctx)
			return
		}
		if !engine.Offload(ctx, func() {}, model.TickMsg{Tag: 9}) {
			panic("the simulator's context cannot offload")
		}
	case 9:
		a.synced(ctx)
	}
}

func (a *syncer) synced(ctx engine.Context) { ctx.Send(a.peer, model.TickMsg{Tag: 3}) }

type peer struct{ tr *simTrace }

func (p *peer) OnMessage(ctx engine.Context, _ engine.Addr, msg model.Message) {
	p.tr.add(ctx, "peer", msg)
}

func runSyncer(offload bool) (log []string, delivered uint64) {
	eng := sim.New(engine.UniformLatency{MinMicros: 0, MaxMicros: 40})
	tr := &simTrace{}
	s, p := engine.QMAddr(0), engine.RIAddr(1)
	eng.Register(s, &syncer{tr: tr, offload: offload, peer: p}, 7)
	eng.Register(p, &peer{tr: tr}, 7)
	for i := int64(0); i < 5; i++ {
		eng.PostAfter(100*i, s, model.TickMsg{Tag: 0})
		eng.PostAfter(100*i, p, model.TickMsg{Tag: 5}) // another event at the same instant
	}
	eng.Drain(0)
	return tr.log, eng.Delivered
}

// TestSimOffloadDoneRunsFirst: under the simulator an offloaded work's done
// message is handled right after the handler that offloaded it — before the
// timer and the peer's event due at the same instant — and the run is
// otherwise the run that did the work in its handler: the same events in
// the same order at the same times, and the same Delivered count.
func TestSimOffloadDoneRunsFirst(t *testing.T) {
	offloaded, nOff := runSyncer(true)
	inline, nIn := runSyncer(false)
	syncs := 0
	for i, l := range offloaded {
		var at int64
		if _, err := fmt.Sscanf(l, "%d syncer {0}", &at); err != nil {
			continue
		}
		syncs++
		if want := fmt.Sprintf("%d syncer {9}", at); i+1 >= len(offloaded) || offloaded[i+1] != want {
			t.Fatalf("delivery %d is %q, not the done message %q: %q", i+1, offloaded[i+1:], want, offloaded)
		}
	}
	if syncs != 5 {
		t.Fatalf("%d syncs in the offloaded run, want 5: %q", syncs, offloaded)
	}
	var withoutDone []string
	for _, l := range offloaded {
		var at int64
		var tag uint64
		if _, err := fmt.Sscanf(l, "%d syncer {%d}", &at, &tag); err == nil && tag == 9 {
			continue
		}
		withoutDone = append(withoutDone, l)
	}
	if !reflect.DeepEqual(withoutDone, inline) {
		t.Fatalf("offloading changed the run:\noffloaded %q\nin line   %q", withoutDone, inline)
	}
	if nOff != nIn {
		t.Fatalf("Delivered = %d offloaded, %d in line: a done message counted as a delivery", nOff, nIn)
	}
}
