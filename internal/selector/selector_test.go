package selector

import (
	"testing"
	"ucc/internal/stl"

	"ucc/internal/model"
)

func estimate() model.EstimateMsg {
	est := model.EstimateMsg{
		AtMicros: 1000,
		LambdaR:  map[model.ItemID]float64{0: 6, 1: 6, 2: 6, 3: 6},
		LambdaW:  map[model.ItemID]float64{0: 4, 1: 4, 2: 4, 3: 4},
		Qr:       0.6,
		K:        4,
	}
	for _, v := range est.LambdaR {
		est.LambdaA += v
	}
	for _, v := range est.LambdaW {
		est.LambdaA += v
	}
	est.U = [3]float64{0.010, 0.010, 0.010}
	est.UPrime = [3]float64{0.020, 0.005, 0.004}
	return est
}

func probeTxn() *model.Txn {
	return model.NewTxn(model.TxnID{Site: 1, Seq: 1}, model.TwoPL,
		[]model.ItemID{0, 1}, []model.ItemID{2, 3}, 1000)
}

func TestStaticAlwaysReturnsProtocol(t *testing.T) {
	for _, p := range model.Protocols {
		f := Static(p)
		for i := 0; i < 3; i++ {
			if got := f(probeTxn(), estimate()); got != p {
				t.Fatalf("Static(%v) chose %v", p, got)
			}
		}
	}
}

func TestDynamicFallbackBeforeWarmup(t *testing.T) {
	d := NewDynamic(Options{Fallback: model.PA})
	cold := model.EstimateMsg{} // no throughput measured yet
	if got := d.Choose(probeTxn(), cold); got != model.PA {
		t.Fatalf("cold choice = %v want fallback PA", got)
	}
	if d.Decisions[model.PA] != 1 {
		t.Fatal("decision not counted")
	}
}

func TestDynamicAvoidsDeadlockProne2PL(t *testing.T) {
	d := NewDynamic(Options{Fallback: model.TwoPL})
	est := estimate()
	est.PAbort = 0.6 // 2PL attempts die in deadlocks 60% of the time
	if got := d.Choose(probeTxn(), est); got == model.TwoPL {
		vals := d.Evaluate(probeTxn(), est)
		t.Fatalf("chose 2PL despite PAbort=0.6; stl=%v", vals)
	}
}

func TestDynamicAvoidsRestartProneTO(t *testing.T) {
	d := NewDynamic(Options{Fallback: model.TwoPL})
	est := estimate()
	est.Pr, est.PwR = 0.5, 0.5 // T/O rejects half of everything
	est.PAbort = 0.3           // 2PL not great either
	if got := d.Choose(probeTxn(), est); got == model.TO {
		vals := d.Evaluate(probeTxn(), est)
		t.Fatalf("chose T/O despite Pr=Pw=0.5; stl=%v", vals)
	}
}

func TestDynamicPrefersCleanProtocol(t *testing.T) {
	d := NewDynamic(Options{Fallback: model.PA})
	est := estimate()
	// Everything clean and equal lock times → 2PL wins ties (paper order).
	if got := d.Choose(probeTxn(), est); got != model.TwoPL {
		vals := d.Evaluate(probeTxn(), est)
		t.Fatalf("clean system choice = %v, stl=%v", got, vals)
	}
}

func TestDynamicClassCache(t *testing.T) {
	d := NewDynamic(Options{Fallback: model.PA})
	est := estimate()
	tx := probeTxn()
	tx.Class = "hot"
	key := classKey{class: tx.Class, m: tx.NumReads(), n: tx.NumWrites()}
	first := d.Choose(tx, est)
	// Same class+shape within the 200ms TTL → cached (same answer, the
	// entry keeps its evaluation time).
	for _, dt := range []int64{0, 1, 199_999} {
		later := est
		later.AtMicros = est.AtMicros + dt
		if got := d.Choose(tx, later); got != first {
			t.Fatal("cached choice changed")
		}
		if at := d.cache[key].atMicros; at != est.AtMicros {
			t.Fatalf("entry re-evaluated %dµs after it was cached (at %d)", dt, at)
		}
	}
	// TTL expiry forces re-evaluation (observable via the time bump).
	est2 := est
	est2.AtMicros = est.AtMicros + 200_000
	if got := d.Choose(tx, est2); got != first {
		t.Fatal("re-evaluation with identical estimates changed the answer")
	}
	if at := d.cache[key].atMicros; at != est2.AtMicros {
		t.Fatalf("entry not re-evaluated 200ms after it was cached (at %d)", at)
	}
}

func TestParamsFromEstimates(t *testing.T) {
	p := ParamsFromEstimates(estimate())
	if p.LambdaA != 40 {
		t.Fatalf("λA = %v", p.LambdaA)
	}
	if p.LambdaR != 6 || p.LambdaW != 4 {
		t.Fatalf("per-queue rates: r=%v w=%v", p.LambdaR, p.LambdaW)
	}
	if p.K != 4 || p.Qr != 0.6 {
		t.Fatalf("K=%v Qr=%v", p.K, p.Qr)
	}
}

func TestProfileFromEstimates(t *testing.T) {
	prof := ProfileFromEstimates(probeTxn(), estimate())
	if prof.M() != 2 || prof.N() != 2 {
		t.Fatalf("m=%d n=%d", prof.M(), prof.N())
	}
	// λt = 2 reads × λw(4) + 2 writes × (λw(4)+λr(6)) = 8 + 20 = 28.
	if got := prof.LambdaT(); got != 28 {
		t.Fatalf("λt = %v want 28", got)
	}
}

func TestProtocolParamsColdDefaults(t *testing.T) {
	pp := ProtocolParamsFromEstimates(model.EstimateMsg{})
	if pp.U2PL <= 0 || pp.UTO <= 0 || pp.UPA <= 0 {
		t.Fatalf("cold priors missing: %+v", pp)
	}
}

func TestColdStartAnalytic(t *testing.T) {
	shape := &stl.SystemShape{
		Sites: 4, ArrivalPerSec: 60, Items: 24, K: 4, Qr: 0.5,
		RoundTripSeconds: 0.006, ComputeSeconds: 0.003,
		DetectSeconds: 0.05, RestartSeconds: 0.02,
	}
	d := NewDynamic(Options{Fallback: model.TwoPL, ColdStart: shape})
	// With no measurements, the analytic model must drive the choice (at
	// this heavy load it must not pick deadlock-prone 2PL even though 2PL
	// is the fallback).
	got := d.Choose(probeTxn(), model.EstimateMsg{})
	if got == model.TwoPL {
		t.Fatalf("cold-start analytic chose 2PL at heavy load")
	}
}
