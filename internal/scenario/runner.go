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
		pr := PhaseRecord{
			Name:           p.Name,
			StartMicros:    start,
			EndMicros:      end,
			DepthHighWater: cl.DepthHighWater(),
			RI:             subRI(curRI, prevRI),
			QM:             subQM(curQM, prevQM),
			WAL:            subWAL(curWAL, prevWAL),
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

// subRI returns cur-prev field-wise (Active is instantaneous, kept as-is).
func subRI(cur, prev ri.Stats) ri.Stats {
	return ri.Stats{
		Submitted:      cur.Submitted - prev.Submitted,
		Committed:      cur.Committed - prev.Committed,
		ROCommitted:    cur.ROCommitted - prev.ROCommitted,
		ROStale:        cur.ROStale - prev.ROStale,
		Rejects:        cur.Rejects - prev.Rejects,
		Victims:        cur.Victims - prev.Victims,
		Dropped:        cur.Dropped - prev.Dropped,
		Shed:           cur.Shed - prev.Shed,
		BusyNAKs:       cur.BusyNAKs - prev.BusyNAKs,
		ROBusyShed:     cur.ROBusyShed - prev.ROBusyShed,
		ReBackoffs:     cur.ReBackoffs - prev.ReBackoffs,
		QuorumExcluded: cur.QuorumExcluded - prev.QuorumExcluded,
		QuorumHedged:   cur.QuorumHedged - prev.QuorumHedged,
		WrongEpochNAKs: cur.WrongEpochNAKs - prev.WrongEpochNAKs,
		MapUpdates:     cur.MapUpdates - prev.MapUpdates,
		Active:         cur.Active,
	}
}

// subQM returns cur-prev field-wise.
func subQM(cur, prev qm.Counters) qm.Counters {
	return qm.Counters{
		Requests:        cur.Requests - prev.Requests,
		Grants:          cur.Grants - prev.Grants,
		PreGrants:       cur.PreGrants - prev.PreGrants,
		Promotions:      cur.Promotions - prev.Promotions,
		Rejects:         cur.Rejects - prev.Rejects,
		Backoffs:        cur.Backoffs - prev.Backoffs,
		Revokes:         cur.Revokes - prev.Revokes,
		Releases:        cur.Releases - prev.Releases,
		Conversion:      cur.Conversion - prev.Conversion,
		Aborts:          cur.Aborts - prev.Aborts,
		SnapReads:       cur.SnapReads - prev.SnapReads,
		SnapStale:       cur.SnapStale - prev.SnapStale,
		Busy:            cur.Busy - prev.Busy,
		WALSyncs:        cur.WALSyncs - prev.WALSyncs,
		Commits:         cur.Commits - prev.Commits,
		Crashes:         cur.Crashes - prev.Crashes,
		Recoveries:      cur.Recoveries - prev.Recoveries,
		Deferred:        cur.Deferred - prev.Deferred,
		ReplPulls:       cur.ReplPulls - prev.ReplPulls,
		ReplApplied:     cur.ReplApplied - prev.ReplApplied,
		ReplSkipped:     cur.ReplSkipped - prev.ReplSkipped,
		ReplResets:      cur.ReplResets - prev.ReplResets,
		WrongEpoch:      cur.WrongEpoch - prev.WrongEpoch,
		MapInstalls:     cur.MapInstalls - prev.MapInstalls,
		ItemsGained:     cur.ItemsGained - prev.ItemsGained,
		TransferPulls:   cur.TransferPulls - prev.TransferPulls,
		TransferApplied: cur.TransferApplied - prev.TransferApplied,
		TransferBytes:   cur.TransferBytes - prev.TransferBytes,
	}
}

// subWAL returns cur-prev field-wise.
func subWAL(cur, prev wal.Stats) wal.Stats {
	return wal.Stats{
		Appends:         cur.Appends - prev.Appends,
		Syncs:           cur.Syncs - prev.Syncs,
		Snapshots:       cur.Snapshots - prev.Snapshots,
		Replayed:        cur.Replayed - prev.Replayed,
		RecoveredCopies: cur.RecoveredCopies - prev.RecoveredCopies,
		Recoveries:      cur.Recoveries - prev.Recoveries,
	}
}
