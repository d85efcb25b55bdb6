package main

import (
	"fmt"
	"runtime"
	"time"

	"ucc/internal/engine"
	"ucc/internal/transport"
)

// schedule fixes the length of every part of a run. The benchmark always
// runs fullSchedule, so both sides of every comparison measure the same
// schedule; only the package's smoke tests pass a shorter one.
type schedule struct {
	// warm runs at the workload's slot count before anything is recorded:
	// connections open, pools and version chains fill.
	warm time.Duration
	// A measured run records sat at the workload's slot count, then light at
	// lightSlots. Commit counts are kept per window.
	sat, light, window time.Duration
	// A traced run records rounds pairs of one plain and one traced window
	// at the workload's slot count.
	rounds int
	// setups is how many times a measured run performs and times set-up.
	setups int
	// drillScale scales the drills' operation counts.
	drillScale float64
}

// fullSchedule measures runSeconds in either kind of run: sat + light, or
// rounds × 2 windows and about 4 s of drills.
var fullSchedule = schedule{
	warm:       2500 * time.Millisecond,
	sat:        13 * time.Second,
	light:      7 * time.Second,
	window:     time.Second,
	rounds:     8,
	setups:     25,
	drillScale: 1,
}

const (
	// runSeconds is BENCHMARK.json's run_seconds, the only -seconds accepted.
	runSeconds = 20
	lightSlots = 2
	drainLimit = 5 * time.Second
	// settle lets the periodic log-shipping pulls bring the third copy up to
	// date before replicas are compared.
	settle = 1500 * time.Millisecond
)

// result is the outcome of one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// SetupSeconds holds every timed set-up of a measured run, in order.
	SetupSeconds []float64 `json:"setup_seconds,omitempty"`
	// Samples holds the latency sample count behind each percentile.
	Samples map[string]int `json:"samples,omitempty"`
	Trace   []traceRow     `json:"trace,omitempty"`
}

// counter indexes one monotone process- or cluster-wide count read at the
// phase edges; a phase's share is the difference of two snapshots.
type counter int

const (
	cCommitted counter = iota
	cSubmitted
	cUserUs
	cSysUs
	cMallocs
	cAllocBytes
	cGCCycles
	cGCPauseNs
	cWireMsgs
	cWireBytes
	cEnvelopes
	cFlushes
	cDropped
	cMailboxNaks
	cQMRequests
	cQMGrants
	cQMRejects
	cQMBackoffs
	cQMRevokes
	cQMAborts
	cQMSnapReads
	cQMSnapStale
	cQMBusy
	cQMCommits
	cQMSyncs
	cReplPulls
	cReplApplied
	cReplSkipped
	cReplResets
	cRIRejects
	cRIVictims
	cRIBusyNAKs
	cRIRebackoffs
	cRIShed
	cRIROBusyShed
	cRIQuorumExcluded
	cRIROStale
	cWALAppends
	cWALSyncs
	cWALSnapshots
	cDetRounds
	cDetVictims
	cDetTransient
	cPruned
	numCounters
)

type snapshot [numCounters]float64

func (a snapshot) sub(b snapshot) snapshot {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

func (a snapshot) add(b snapshot) snapshot {
	for i := range a {
		a[i] += b[i]
	}
	return a
}

// snapshot reads every counter through the program's public accessors.
func (c *cluster) snapshot() snapshot {
	s := procSnapshot()
	g := c.gen.counts()
	s[cCommitted], s[cSubmitted] = float64(g.committed), float64(g.submitted)

	node := func(rt *engine.Runtime, n *transport.Node) {
		ws := n.Wire().Snapshot()
		s[cWireMsgs] += float64(ws.MsgsOut)
		s[cWireBytes] += float64(ws.BytesOut)
		envelopes, flushes := n.BatchStats()
		s[cEnvelopes] += float64(envelopes)
		s[cFlushes] += float64(flushes)
		dropped, _ := n.QueueStats()
		s[cDropped] += float64(dropped)
		naks, _ := rt.MailboxStats()
		s[cMailboxNaks] += float64(naks)
	}
	node(c.clientRT, c.client)
	for _, site := range c.sites {
		node(site.rt, site.node)

		q := site.mgr.Snapshot()
		s[cQMRequests] += float64(q.Requests)
		s[cQMGrants] += float64(q.Grants)
		s[cQMRejects] += float64(q.Rejects)
		s[cQMBackoffs] += float64(q.Backoffs)
		s[cQMRevokes] += float64(q.Revokes)
		s[cQMAborts] += float64(q.Aborts)
		s[cQMSnapReads] += float64(q.SnapReads)
		s[cQMSnapStale] += float64(q.SnapStale)
		s[cQMBusy] += float64(q.Busy)
		s[cQMCommits] += float64(q.Commits)
		s[cQMSyncs] += float64(q.WALSyncs)
		s[cReplPulls] += float64(q.ReplPulls)
		s[cReplApplied] += float64(q.ReplApplied)
		s[cReplSkipped] += float64(q.ReplSkipped)
		s[cReplResets] += float64(q.ReplResets)

		r := site.issuer.Snapshot()
		s[cRIRejects] += float64(r.Rejects)
		s[cRIVictims] += float64(r.Victims)
		s[cRIBusyNAKs] += float64(r.BusyNAKs)
		s[cRIRebackoffs] += float64(r.ReBackoffs)
		s[cRIShed] += float64(r.Shed)
		s[cRIROBusyShed] += float64(r.ROBusyShed)
		s[cRIQuorumExcluded] += float64(r.QuorumExcluded)
		s[cRIROStale] += float64(r.ROStale)

		if site.log != nil {
			w := site.log.Stats()
			s[cWALAppends] += float64(w.Appends)
			s[cWALSyncs] += float64(w.Syncs)
			s[cWALSnapshots] += float64(w.Snapshots)
		}
		s[cPruned] += float64(site.store.Pruned())
	}
	d := c.detector.Snapshot()
	s[cDetRounds], s[cDetVictims], s[cDetTransient] = float64(d.Rounds), float64(d.Victims), float64(d.TransientCycles)
	return s
}

// phase runs one recorded phase of length d at the current slot count,
// counting commits per window, and returns what the generator saw and the
// counters it moved.
func (c *cluster) phase(d, window time.Duration) (*phaseRec, snapshot) {
	rec := newPhaseRec(d, window)
	before := c.snapshot()
	c.gen.beginPhase(rec)
	time.Sleep(d)
	c.gen.endPhase()
	return rec, c.snapshot().sub(before)
}

// tracedRounds alternates plain and traced windows on the running cluster,
// so that a drift of the box's speed falls on both alike. It returns what
// the generator saw in the plain and in the traced windows, and the counters
// moved while tracing was on.
func (c *cluster) tracedRounds(tr *tracer, sched schedule) (plain, traced *phaseRec, d snapshot) {
	plain, traced = &phaseRec{window: sched.window}, &phaseRec{window: sched.window}
	for i := 0; i < sched.rounds; i++ {
		p, _ := c.phase(sched.window, sched.window)
		tr.on.Store(true)
		t, dt := c.phase(sched.window, sched.window)
		tr.on.Store(false)
		plain.merge(p)
		traced.merge(t)
		d = d.add(dt)
	}
	return plain, traced, d
}

// runWorkload performs one run: set-up, warm-up, the recorded phases, drain,
// the correctness checks and teardown. traced selects the per-layer run;
// traceOut optionally names a span dump.
func runWorkload(w workload, seed int64, sched schedule, traced bool, traceOut string) (*result, error) {
	res := &result{Workload: w.name, Seed: seed, Traced: traced, Metrics: map[string]float64{}, Samples: map[string]int{}}

	var tr *tracer
	setups := sched.setups
	if traced {
		tr = newTracer(traceOut != "")
		setups = 1 // set-up time is an end-to-end metric; a traced run reports none
	}
	var c *cluster
	defer func() {
		if c != nil {
			c.close()
		}
	}()
	setupSeconds := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		if c != nil {
			c.close()
			c = nil
		}
		// Every set-up starts from an empty heap, as the first one of a
		// process does, whatever the last one left.
		runtime.GC()
		start := time.Now()
		pool := newShapePool(w, seed, poolSize)
		var err error
		if c, err = newCluster(w, pool, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupSeconds = append(setupSeconds, time.Since(start).Seconds())
	}
	runtime.GC() // and so does the run: the last set-up's temporaries are garbage

	c.start(w.slots)
	time.Sleep(sched.warm)

	if traced {
		plain, rec, d := c.tracedRounds(tr, sched)
		c.stopAndCheck(res)
		c = nil
		layerMetrics(res, tr, rec, plain, d)
		drills, err := runDrills(sched.drillScale)
		if err != nil {
			return nil, err
		}
		for name, v := range drills {
			res.Metrics[name] = v
		}
		reconcile(res.Metrics)
		res.Trace = tr.summary()
		if traceOut != "" {
			if err := tr.dump(traceOut); err != nil {
				return nil, err
			}
		}
		return res, nil
	}

	sat, d := c.phase(sched.sat, sched.window)
	c.gen.setTarget(lightSlots)
	c.waitOutstanding(lightSlots, drainLimit)
	light, _ := c.phase(sched.light, sched.window)
	c.stopAndCheck(res)
	c = nil

	m := res.Metrics
	m["txn_per_s"] = medianRate(sat.commits, sat.window)
	m["sat_p50_ms"] = ms(quantileNs(sat.latNs, 0.50))
	m["sat_p99_ms"] = ms(quantileNs(sat.latNs, 0.99))
	m["light_p50_ms"] = ms(quantileNs(light.latNs, 0.50))
	m["light_p99_ms"] = ms(quantileNs(light.latNs, 0.99))
	m["cpu_us_per_txn"] = ratio(d[cUserUs]+d[cSysUs], d[cCommitted])
	m["allocs_per_txn"] = ratio(d[cMallocs], d[cCommitted])
	m["wire_bytes_per_txn"] = ratio(d[cWireBytes], d[cCommitted])
	m["setup_s"] = median(setupSeconds)
	res.SetupSeconds = setupSeconds
	res.Samples["sat"], res.Samples["light"] = len(sat.latNs), len(light.latNs)
	if n := sat.overflow + light.overflow; n > 0 {
		res.Correct = false
		res.Problems = append(res.Problems, fmt.Sprintf("latency buffer overflowed by %d samples", n))
	}
	return res, nil
}

// stopAndCheck stops the load, drains, runs every correctness check, tears
// the cluster down and records the verdict in res.
func (c *cluster) stopAndCheck(res *result) {
	c.gen.setTarget(0)
	c.waitOutstanding(0, drainLimit)
	if c.w.durable {
		time.Sleep(settle)
	}
	problems := c.checkLive()
	final := c.snapshot()
	c.close()
	problems = append(problems, c.checkStopped()...)
	c.gauges(res.Metrics)

	res.Attempted = uint64(final[cSubmitted])
	res.Failed = res.Attempted - uint64(final[cCommitted])
	res.Metrics["failed_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
	if res.Failed > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d submitted transactions did not commit", res.Failed, res.Attempted))
	}
	res.Correct = len(problems) == 0
	res.Problems = problems
}

// gauges reads the levels that are not differenced over a phase: high-water
// marks, the admission window and the longest version chain at the end of
// the run. Call after close — it walks the stores.
func (c *cluster) gauges(m map[string]float64) {
	_, mailbox := c.clientRT.MailboxStats()
	_, sendQueue := c.client.QueueStats()
	window := c.sites[0].issuer.Snapshot().Window
	depth, chain := 0, 0
	for _, s := range c.sites {
		if _, h := s.rt.MailboxStats(); h > mailbox {
			mailbox = h
		}
		if _, h := s.node.QueueStats(); h > sendQueue {
			sendQueue = h
		}
		if w := s.issuer.Snapshot().Window; w < window {
			window = w
		}
		if d := s.mgr.DepthHighWater(); d > depth {
			depth = d
		}
		for _, item := range s.store.Items() {
			if n := s.store.ChainLen(item); n > chain {
				chain = n
			}
		}
	}
	m["engine.mailbox_high_water"] = float64(mailbox)
	m["transport.send_queue_high_water"] = float64(sendQueue)
	m["ri.admission_window_end"] = window
	m["qm.depth_high_water"] = float64(depth)
	m["storage.chain_len_max"] = float64(chain)
}

// layerMetrics derives the per-layer metrics of a traced run: rec and d are
// what the generator saw and the counters moved in the traced windows, plain
// what it saw in the untraced windows between them.
func layerMetrics(res *result, tr *tracer, rec, plain *phaseRec, d snapshot) {
	m := res.Metrics
	n := d[cCommitted]
	per := func(v float64) float64 { return ratio(v, n) }
	elapsed := (time.Duration(len(rec.commits)) * rec.window).Seconds()

	tracedRate := medianRate(rec.commits, rec.window)
	m["traced_txn_per_s"] = tracedRate
	m["bench.sat_p50_ms"] = ms(quantileNs(plain.latNs, 0.50))
	m["bench.sat_p99_ms"] = ms(quantileNs(plain.latNs, 0.99))
	// Each traced window is held against the plain window just before it.
	kept := make([]float64, len(rec.commits))
	for i := range kept {
		kept[i] = ratio(float64(rec.commits[i]), float64(plain.commits[i]))
	}
	m["trace.overhead_frac"] = 1 - median(kept)

	riCalls, riNs := tr.layerTotals(layerRI)
	qmCalls, qmNs := tr.layerTotals(layerQM)
	_, detNs := tr.layerTotals(layerDeadlock)
	genCalls, genNs := tr.layerTotals(layerBench)
	journalNs, flushNs := float64(tr.journalNs.Load()), float64(tr.flushNs.Load())

	m["ri.busy_us_per_txn"] = per(float64(riNs) / 1e3)
	m["ri.calls_per_txn"] = per(float64(riCalls))
	m["ri.restarts_per_txn"] = per(d[cRIRejects] + d[cRIVictims] + d[cRIBusyNAKs])
	m["ri.rebackoffs_per_txn"] = per(d[cRIRebackoffs])
	m["ri.shed_frac"] = ratio(d[cRIShed], d[cSubmitted])
	m["ri.ro_busy_shed_frac"] = ratio(d[cRIROBusyShed], d[cSubmitted])
	m["ri.quorum_excluded_per_txn"] = per(d[cRIQuorumExcluded])
	m["ri.ro_stale_frac"] = ratio(d[cRIROStale], d[cQMSnapReads])

	m["qm.busy_us_per_txn"] = per((float64(qmNs) - journalNs - flushNs) / 1e3)
	m["qm.calls_per_txn"] = per(float64(qmCalls))
	m["qm.requests_per_txn"] = per(d[cQMRequests])
	m["qm.grants_per_request"] = ratio(d[cQMGrants], d[cQMRequests])
	m["qm.rejects_per_txn"] = per(d[cQMRejects])
	m["qm.backoffs_per_txn"] = per(d[cQMBackoffs])
	m["qm.revokes_per_txn"] = per(d[cQMRevokes])
	m["qm.aborts_per_txn"] = per(d[cQMAborts])
	m["qm.snap_reads_per_txn"] = per(d[cQMSnapReads])
	m["qm.snap_stale_frac"] = ratio(d[cQMSnapStale], d[cQMSnapReads])
	m["qm.busy_naks_per_txn"] = per(d[cQMBusy])
	m["qm.commits_per_sync"] = ratio(d[cQMCommits], d[cQMSyncs])

	m["deadlock.busy_us_per_txn"] = per(float64(detNs) / 1e3)
	m["deadlock.rounds"] = d[cDetRounds]
	m["deadlock.victims_per_ktxn"] = 1000 * per(d[cDetVictims])
	m["deadlock.transient_cycles"] = d[cDetTransient]

	m["engine.mailbox_naks"] = d[cMailboxNaks]
	local := float64(riCalls+qmCalls+genCalls) - d[cWireMsgs]
	if local < 0 {
		local = 0
	}
	m["engine.local_deliveries_per_txn"] = per(local)

	m["transport.msgs_per_txn"] = per(d[cWireMsgs])
	m["transport.bytes_per_msg"] = ratio(d[cWireBytes], d[cWireMsgs])
	m["transport.envelopes_per_flush"] = ratio(d[cEnvelopes], d[cFlushes])
	m["transport.dropped"] = d[cDropped]

	m["storage.pruned_per_txn"] = per(d[cPruned])

	m["wal.appends_per_txn"] = per(d[cWALAppends])
	m["wal.syncs_per_txn"] = per(d[cWALSyncs])
	m["wal.appends_per_sync"] = ratio(d[cWALAppends], d[cWALSyncs])
	m["wal.snapshots"] = d[cWALSnapshots]
	m["wal.sync_us_p50"] = float64(quantileNs(tr.syncNs, 0.5)) / 1e3
	m["wal.bytes_per_txn"] = per(float64(tr.mediaBytes.Load()))
	m["wal.flush_wait_us_per_txn"] = per(flushNs / 1e3)
	m["wal.journal_us_per_txn"] = per(journalNs / 1e3)

	m["repl.pulls_per_s"] = ratio(d[cReplPulls], elapsed)
	m["repl.applied_per_txn"] = per(d[cReplApplied])
	m["repl.skipped_per_txn"] = per(d[cReplSkipped])
	m["repl.resets"] = d[cReplResets]

	cpu := d[cUserUs] + d[cSysUs]
	m["proc.cpu_us_per_txn"] = per(cpu)
	m["proc.cpu_sys_frac"] = ratio(d[cSysUs], cpu)
	m["proc.alloc_bytes_per_txn"] = per(d[cAllocBytes])
	m["proc.gc_cycles"] = d[cGCCycles]
	m["proc.gc_pause_ms"] = d[cGCPauseNs] / 1e6
	m["bench.client_busy_us_per_txn"] = per(float64(genNs) / 1e3)
	res.Samples["plain"] = len(plain.latNs)
}

// actorTerms are the reconciliation's measured busy times, transportTerm and
// localTerm its costed message counts.
func actorBusy(m map[string]float64) float64 {
	return m["ri.busy_us_per_txn"] + m["qm.busy_us_per_txn"] + m["wal.journal_us_per_txn"] +
		m["deadlock.busy_us_per_txn"] + m["bench.client_busy_us_per_txn"]
}

func transportTerm(m map[string]float64) float64 {
	return m["transport.msgs_per_txn"] * m["transport.stream_cpu_us_per_msg"]
}

func localTerm(m map[string]float64) float64 {
	return m["engine.local_deliveries_per_txn"] * m["engine.local_hop_ns"] / 1e3
}

// reconcile states how much of the process CPU per transaction the measured
// layers explain: actor busy time, plus wire messages at the stream drill's
// CPU per message (both ends, codec included), plus local deliveries at the
// local-hop drill's cost. The remainder is reported, not hidden.
func reconcile(m map[string]float64) {
	m["proc.actor_cpu_frac"] = ratio(actorBusy(m), m["proc.cpu_us_per_txn"])
	m["proc.unattributed_us_per_txn"] = m["proc.cpu_us_per_txn"] - actorBusy(m) - transportTerm(m) - localTerm(m)
}
