package experiments

import (
	"fmt"

	"ucc/internal/metrics"
	"ucc/internal/model"
	"ucc/internal/selector"
	"ucc/internal/stl"
)

// Exp5 validates the unified system's correctness claims on mixed-protocol
// workloads: Theorem 2 (conflict serializability), Corollary 1 (PA
// deadlock/restart freedom), Corollary 2 (every persistent cycle contains a
// 2PL member), and Lemma 1 (at most one PA back-off per transaction).
func Exp5(cfg RunConfig) Result {
	seeds := []int64{1, 2, 3, 4, 5}
	if cfg.Quick {
		seeds = seeds[:2]
	}
	table := &metrics.Table{Header: []string{
		"seed", "commits", "serializable", "no-2PL cycles", "PA re-backoffs", "PA victims", "S mixed (ms)",
	}}
	notes := []string{}
	allOK := true
	for _, seed := range seeds {
		spec := defaultSpec(seed)
		spec.share = [3]float64{1, 1, 1}
		spec.items = 24 // contention so the machinery is exercised
		spec.arrival = 30
		spec.record = true
		if cfg.Quick {
			spec.horizonUs = 2_000_000
		}
		out := mustExecute(spec)
		ser := "yes"
		if out.res.Serializability == nil || !out.res.Serializability.Serializable {
			ser = "NO"
			allOK = false
		}
		det := out.cl.Detector.Snapshot()
		ric := out.cl.RITotals()
		paStats := out.res.Summary.Protocols[model.PA]
		var sAll float64
		var n uint64
		for _, ps := range out.res.Summary.Protocols {
			sAll += ps.SystemTime.Mean() * float64(ps.SystemTime.N())
			n += ps.SystemTime.N()
		}
		if n > 0 {
			sAll /= float64(n)
		}
		table.AddRow(fmt.Sprint(seed),
			fmt.Sprint(out.res.Summary.TotalCommitted()), ser,
			fmt.Sprint(det.No2PLCycles), fmt.Sprint(ric.ReBackoffs),
			fmt.Sprint(paStats.Victims+paStats.Rejected), metrics.F(sAll/1000))
	}
	if allOK {
		notes = append(notes, "Theorem 2 held on every seed (conflict graph acyclic)")
	} else {
		notes = append(notes, "SERIALIZABILITY VIOLATION — protocol bug")
	}
	return Result{
		Tables: []*metrics.Table{table},
		Notes:  notes,
	}
}

// Exp6 compares the dynamic min-STL selector against each static protocol
// across the load sweep — the paper's design goal for §5.
func Exp6(cfg RunConfig) Result {
	sweep := lambdaSweep(cfg.Quick)
	table := &metrics.Table{Header: []string{
		"λ/site", "S 2PL", "S T/O", "S PA", "S dynamic (ms)", "dyn vs best static", "dyn picks 2PL/TO/PA %",
	}}
	var dynSeries, bestSeries metrics.Series
	dynSeries.Label = "dynamic"
	bestSeries.Label = "best static"
	for _, lam := range sweep {
		var s [3]float64
		for _, p := range model.Protocols {
			spec := defaultSpec(cfg.Seed + int64(lam*7))
			spec.arrival = lam
			spec.share = pureShare(p)
			if cfg.Quick {
				spec.horizonUs = 2_000_000
			}
			out := mustExecute(spec)
			s[p] = meanS(out, p)
		}
		dyn := selector.NewDynamic(selector.Options{Fallback: model.PA})
		spec := defaultSpec(cfg.Seed + int64(lam*7))
		spec.arrival = lam
		spec.share = [3]float64{1, 0, 0} // overridden by the selector
		spec.choose = dyn.Choose
		spec.estimates = true
		if cfg.Quick {
			spec.horizonUs = 2_000_000
		}
		out := mustExecute(spec)
		var sDyn float64
		var n uint64
		for _, ps := range out.res.Summary.Protocols {
			sDyn += ps.SystemTime.Mean() * float64(ps.SystemTime.N())
			n += ps.SystemTime.N()
		}
		if n > 0 {
			sDyn /= float64(n) * 1000
		}
		best := s[winner(s)]
		rel := 0.0
		if best > 0 {
			rel = 100 * (sDyn - best) / best
		}
		var total uint64
		for _, d := range dyn.Decisions {
			total += d
		}
		mix := "-"
		if total > 0 {
			mix = fmt.Sprintf("%d/%d/%d",
				100*dyn.Decisions[model.TwoPL]/total,
				100*dyn.Decisions[model.TO]/total,
				100*dyn.Decisions[model.PA]/total)
		}
		table.AddRow(metrics.F(lam), metrics.F(s[0]), metrics.F(s[1]), metrics.F(s[2]),
			metrics.F(sDyn), fmt.Sprintf("%+.0f%%", rel), mix)
		dynSeries.Add(lam, sDyn)
		bestSeries.Add(lam, best)
	}
	return Result{
		Tables: []*metrics.Table{table},
		Series: []metrics.Series{dynSeries, bestSeries},
	}
}

// Exp7 exercises the STL' evaluator itself: convergence in the grid
// resolution, the saturation and no-accretion special cases, and the
// ranking-agreement check against measured system times.
func Exp7(cfg RunConfig) Result {
	table := &metrics.Table{Header: []string{"λloss/λA", "U (ms)", "K", "STL' grid=16", "grid=64", "grid=256", "Δ64→256 %"}}
	params := stl.Params{LambdaA: 400, LambdaW: 4, LambdaR: 6, Qr: 0.6, K: 4}
	for _, frac := range []float64{0.05, 0.2, 0.5, 0.8} {
		for _, U := range []float64{0.005, 0.02, 0.1} {
			var got [3]float64
			for i, grid := range []int{16, 64, 256} {
				ev, err := stl.NewEvaluator(params, grid)
				if err != nil {
					panic(err)
				}
				got[i] = ev.Evaluate(frac*params.LambdaA, U)
			}
			delta := 0.0
			if got[2] != 0 {
				delta = 100 * (got[1] - got[2]) / got[2]
			}
			table.AddRow(metrics.F(frac), metrics.F(U*1000), metrics.F(params.K),
				metrics.F(got[0]), metrics.F(got[1]), metrics.F(got[2]),
				fmt.Sprintf("%+.2f", delta))
		}
	}

	// Ranking agreement: compare the STL prediction (from a calibration
	// run's measured parameters) against the measured S ranking at low,
	// moderate, and high load.
	rank := &metrics.Table{Header: []string{"λ/site", "measured best", "STL predicted", "agree"}}
	agree := 0
	lams := []float64{10, 30, 60}
	if cfg.Quick {
		lams = []float64{10, 60}
	}
	for _, lam := range lams {
		var s [3]float64
		var est model.EstimateMsg
		for _, p := range model.Protocols {
			spec := defaultSpec(cfg.Seed + int64(lam*13))
			spec.arrival = lam
			spec.share = pureShare(p)
			spec.estimates = true
			if cfg.Quick {
				spec.horizonUs = 2_000_000
			}
			out := mustExecute(spec)
			s[p] = meanS(out, p)
			// Merge this protocol's measured parameters into one estimate.
			e := out.cl.Collector.Estimates(0)
			if p == model.TwoPL {
				est = e
			} else {
				est.U[p] = e.U[p]
				est.UPrime[p] = e.UPrime[p]
				if p == model.TO {
					est.Pr, est.PwR = e.Pr, e.PwR
				} else {
					est.PB, est.PBW = e.PB, e.PBW
				}
			}
		}
		dyn := selector.NewDynamic(selector.Options{Fallback: model.PA})
		probe := model.NewTxn(model.TxnID{Site: 0, Seq: 1}, model.TwoPL,
			[]model.ItemID{0, 1}, []model.ItemID{2, 3}, 1000)
		vals := dyn.Evaluate(probe, est)
		pred := stl.Best(vals)
		meas := winner(s)
		ok := "no"
		if pred == meas {
			ok = "yes"
			agree++
		}
		rank.AddRow(metrics.F(lam), meas.String(), pred.String(), ok)
	}
	return Result{
		Tables: []*metrics.Table{table, rank},
		Notes:  []string{fmt.Sprintf("ranking agreement: %d/%d load points", agree, len(lams))},
	}
}
