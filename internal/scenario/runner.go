package scenario

import (
	"fmt"
	"sort"

	"ucc/internal/cluster"
	"ucc/internal/metrics"
	"ucc/internal/model"
	"ucc/internal/qm"
	"ucc/internal/ri"
	"ucc/internal/wal"
)

// Options tune one run of a scenario.
type Options struct {
	// Seed overrides the scenario's cluster seed when nonzero (same scenario
	// + same seed = bit-identical run record).
	Seed int64
}

// Run executes a scenario: build the cluster, attach a phased driver per
// site, walk the phases (advancing the engine to each fault instant and
// applying it), snapshot per-phase metric deltas at every boundary, evaluate
// phase checkpoints, then settle, drain, and evaluate the final checks.
//
// An error means the scenario could not run (invalid config); check failures
// are not errors — they are recorded in the returned RunRecord with
// Passed=false, and every phase still executes so one report shows every
// violated invariant.
func Run(sc Scenario, opt Options) (*RunRecord, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	cfg := sc.Cluster
	cfg.Record = true
	if opt.Seed != 0 {
		cfg.Seed = opt.Seed
	}
	cl, err := cluster.NewSim(cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	for site := 0; site < cfg.Sites; site++ {
		if err := cl.AddPhasedDriver(model.SiteID(site), sc.sitePhases(site)); err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
	}

	rec := &RunRecord{
		Scenario:    sc.Name,
		Description: sc.Description,
		Seed:        cfg.Seed,
		Sites:       cfg.Sites,
		Items:       cfg.Items,
		Replicas:    cl.Cfg.Replicas, // post-Validate (defaulted) values
		Shards:      cl.Cfg.Shards,
		Passed:      true,
	}

	cl.Start()
	var (
		now     int64
		prevSum metrics.Summary
		prevRI  ri.Stats
		prevQM  qm.Counters
		prevWAL wal.Stats
	)
	for i := range sc.Phases {
		p := &sc.Phases[i]
		start, end := now, now+p.DurationMicros

		// Apply faults in offset order, advancing the engine to each instant.
		faults := make([]Fault, len(p.Faults))
		copy(faults, p.Faults)
		sort.SliceStable(faults, func(a, b int) bool { return faults[a].AtMicros < faults[b].AtMicros })
		var applied []FaultRecord
		for _, f := range faults {
			at := start + f.AtMicros
			if at < start {
				at = start
			}
			if at > end {
				at = end
			}
			cl.Eng.RunUntil(at)
			f.Apply(cl)
			applied = append(applied, FaultRecord{Name: f.Name, AtMicros: at})
		}
		cl.Eng.RunUntil(end)
		now = end

		// Snapshot the boundary; the phase's events are the deltas.
		curSum := cl.Collector.Summarize()
		curRI, curQM, curWAL := cl.RITotals(), cl.QMTotals(), cl.WALTotals()
		delta := curSum.Delta(prevSum)
		// Throughput over the phase wall-clock, not the collector's
		// first-arrival span.
		delta.SpanMicros = p.DurationMicros
		dRI, dQM, dWAL := curRI, curQM, curWAL
		dRI.Sub(prevRI)
		dQM.Sub(prevQM)
		dWAL.Sub(prevWAL)
		pr := PhaseRecord{
			Name:           p.Name,
			StartMicros:    start,
			EndMicros:      end,
			DepthHighWater: cl.DepthHighWater(),
			RI:             dRI,
			QM:             dQM,
			WAL:            dWAL,
			Faults:         applied,
			delta:          delta,
		}
		fillPhaseScalars(&pr)
		prevSum, prevRI, prevQM, prevWAL = curSum, curRI, curQM, curWAL
		rec.Phases = append(rec.Phases, pr)
		phaseRec := &rec.Phases[len(rec.Phases)-1]

		ctx := &Ctx{Scenario: &sc, Cluster: cl, Run: rec, Phase: phaseRec}
		for _, chk := range p.Checks {
			runCheck(rec, phaseRec, nil, ctx, p.Name, chk)
		}
	}

	settle := sc.SettleMicros
	if settle <= 0 {
		settle = 5_000_000
	}
	cl.Eng.RunUntil(now + settle)
	res := cl.Finish()

	rec.Final = FinalRecord{
		Committed:         res.Summary.TotalCommitted(),
		Shed:              res.Summary.TotalShed(),
		Busy:              res.Summary.TotalBusy(),
		ThroughputPerSec:  res.Summary.Throughput(),
		MeanLatencyMicros: res.Summary.MeanSystemTimeMicros(),
		Unfinished:        res.Unfinished,
		Events:            res.Events,
	}
	if res.Serializability != nil {
		ok := res.Serializability.Serializable
		rec.Final.Serializable = &ok
	}
	ctx := &Ctx{Scenario: &sc, Cluster: cl, Run: rec, Final: &res}
	for _, chk := range sc.Final {
		runCheck(rec, nil, &rec.Final, ctx, "final", chk)
	}
	return rec, nil
}

// runCheck evaluates one checkpoint and files its verdict.
func runCheck(rec *RunRecord, phase *PhaseRecord, final *FinalRecord, ctx *Ctx, where string, chk Check) {
	cr := CheckRecord{Name: chk.Name, Passed: true}
	if err := chk.Eval(ctx); err != nil {
		cr.Passed = false
		cr.Detail = err.Error()
		rec.Passed = false
		rec.Failures = append(rec.Failures, fmt.Sprintf("%s/%s: %s", where, chk.Name, cr.Detail))
	}
	if phase != nil {
		phase.Checks = append(phase.Checks, cr)
	} else {
		final.Checks = append(final.Checks, cr)
	}
}

// fillPhaseScalars derives the report scalars from the phase delta.
func fillPhaseScalars(p *PhaseRecord) {
	d := p.delta
	var rejected, victims uint64
	for i := range d.Protocols {
		rejected += d.Protocols[i].Rejected
		victims += d.Protocols[i].Victims
	}
	p.Committed = d.TotalCommitted()
	p.Shed = d.TotalShed()
	p.Busy = d.TotalBusy()
	p.Rejected = rejected
	p.Victims = victims
	p.ThroughputPerSec = d.Throughput()
	h := mergedLatency(d)
	p.MeanLatencyMicros = h.Mean()
	if h.Count() > 0 {
		p.P50Micros = h.Quantile(0.50)
		p.P99Micros = h.Quantile(0.99)
	}
}
