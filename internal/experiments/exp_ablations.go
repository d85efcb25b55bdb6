package experiments

import (
	"fmt"

	"ucc/internal/metrics"
	"ucc/internal/model"
)

// Abl1 compares the semi-lock enforcement (§4.2) against the paper's
// simpler "use locking for all requests" unification on a T/O-heavy mix.
// Semi-locks let an executed T/O transaction hand its items to younger T/O
// transactions immediately (pre-scheduled grants), so T/O keeps its
// concurrency.
func Abl1(cfg RunConfig) Result {
	table := &metrics.Table{Header: []string{
		"workload", "enforcement", "commits", "S T/O (ms)", "S all (ms)", "pre-grants", "conversions",
	}}
	workloads := []struct {
		name  string
		share [3]float64
	}{
		// Pure T/O is where the §4.2 concession bites: under
		// lock-everything a T/O writer must wait for earlier readers'
		// release round-trips that basic T/O never waits for.
		{"pure T/O", [3]float64{0, 1, 0}},
		{"mixed 1:4:1", [3]float64{1, 4, 1}},
	}
	for _, w := range workloads {
		for _, semi := range []bool{true, false} {
			spec := defaultSpec(cfg.Seed)
			spec.share = w.share
			spec.items = 20
			spec.arrival = 40
			spec.readFrac = 0.6
			spec.semiLocks = semi
			if cfg.Quick {
				spec.horizonUs = 2_000_000
			}
			out := mustExecute(spec)
			name := "lock-everything"
			if semi {
				name = "semi-locks"
			}
			qmc := out.cl.QMTotals()
			var sAll float64
			var n uint64
			for _, ps := range out.res.Summary.Protocols {
				sAll += ps.SystemTime.Mean() * float64(ps.SystemTime.N())
				n += ps.SystemTime.N()
			}
			if n > 0 {
				sAll /= float64(n)
			}
			table.AddRow(w.name, name,
				fmt.Sprint(out.res.Summary.TotalCommitted()),
				metrics.F(meanS(out, model.TO)),
				metrics.F(sAll/1000),
				fmt.Sprint(qmc.PreGrants),
				fmt.Sprint(qmc.Conversion))
		}
	}
	return Result{
		Tables: []*metrics.Table{table},
	}
}

// Abl2 sweeps PA's back-off interval INT (§3.4): too small an interval
// re-queues the request barely above the threshold (more re-negotiations
// under churn), too large an interval parks it far in the future behind
// unrelated later arrivals.
func Abl2(cfg RunConfig) Result {
	ints := []model.Timestamp{500, 1_000, 2_000, 5_000, 10_000, 20_000}
	if cfg.Quick {
		ints = []model.Timestamp{500, 5_000, 20_000}
	}
	table := &metrics.Table{Header: []string{"INT (µs)", "S PA (ms)", "backoffs/commit", "msgs/commit"}}
	var series metrics.Series
	series.Label = "S PA vs INT"
	for _, iv := range ints {
		spec := defaultSpec(cfg.Seed + int64(iv))
		spec.share = pureShare(model.PA)
		spec.items = 24
		spec.arrival = 35
		spec.paInt = iv
		if cfg.Quick {
			spec.horizonUs = 2_000_000
		}
		out := mustExecute(spec)
		ps := out.res.Summary.Protocols[model.PA]
		boc := 0.0
		if ps.Committed > 0 {
			boc = float64(ps.BackoffReads+ps.BackoffWrites) / float64(ps.Committed)
		}
		table.AddRow(fmt.Sprint(iv), metrics.F(meanS(out, model.PA)),
			metrics.F(boc), metrics.F(ps.Messages.Mean()))
		series.Add(float64(iv), meanS(out, model.PA))
	}
	return Result{
		Tables: []*metrics.Table{table},
		Series: []metrics.Series{series},
	}
}

// Abl3 sweeps the deadlock-detection period for a contended 2PL workload:
// the victim's wait (and everyone blocked behind it) is bounded below by
// PersistRounds detection periods, so S under contention tracks the period.
func Abl3(cfg RunConfig) Result {
	periods := []int64{10_000, 25_000, 50_000, 100_000, 200_000}
	if cfg.Quick {
		periods = []int64{10_000, 50_000, 200_000}
	}
	table := &metrics.Table{Header: []string{"period (ms)", "S 2PL (ms)", "S p95 (ms)", "victims", "commits"}}
	var series metrics.Series
	series.Label = "S 2PL vs detection period"
	for _, per := range periods {
		spec := defaultSpec(cfg.Seed + per)
		spec.share = pureShare(model.TwoPL)
		spec.items = 16
		spec.arrival = 30
		spec.readFrac = 0.3 // write-heavy → deadlock-prone
		spec.detPeriod = per
		if cfg.Quick {
			spec.horizonUs = 2_000_000
		}
		out := mustExecute(spec)
		ps := out.res.Summary.Protocols[model.TwoPL]
		table.AddRow(metrics.F(float64(per)/1000), metrics.F(meanS(out, model.TwoPL)),
			metrics.F(ps.SystemTimeH.Quantile(0.95)/1000),
			fmt.Sprint(ps.Victims), fmt.Sprint(ps.Committed))
		series.Add(float64(per)/1000, meanS(out, model.TwoPL))
	}
	return Result{
		Tables: []*metrics.Table{table},
		Series: []metrics.Series{series},
	}
}
