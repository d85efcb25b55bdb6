package cluster

import (
	"fmt"

	"ucc/internal/deadlock"
	"ucc/internal/deploy"
	"ucc/internal/engine"
	"ucc/internal/history"
	"ucc/internal/metrics"
	"ucc/internal/model"
	"ucc/internal/placement"
	"ucc/internal/qm"
	"ucc/internal/ri"
	"ucc/internal/sim"
	"ucc/internal/storage"
	"ucc/internal/wal"
	"ucc/internal/workload"
)

// Config describes a simulated cluster: the sites (deploy.Config, the same
// description uccnode assembles its site from) plus what only the simulator
// host has — the network model, the seed, history recording, the metrics
// collector and a dynamic protocol selector.
type Config struct {
	deploy.Config

	// Latency is the network model (default: uniform 1–3ms remote, 50µs
	// local).
	Latency engine.LatencyModel
	// Seed drives every random stream.
	Seed int64

	Collector metrics.CollectorOptions

	// Choose installs a dynamic protocol selector at every RI (nil = honour
	// each transaction's preset protocol).
	Choose ri.ChooseFunc

	// Record enables history recording and serializability checking.
	Record bool
}

// Cluster is a fully wired system over the virtual-time engine.
type Cluster struct {
	Cfg       Config
	Eng       *sim.Engine
	Recorder  *history.Recorder
	Collector *metrics.Collector
	Detector  *deadlock.Detector

	// pmap is the cluster controller's authoritative versioned partition
	// map. It advances only through the publish methods (MoveItems, AddSite,
	// DrainSite, RebalanceHot), which plan a new epoch with the pure
	// planners in internal/placement and broadcast it to every queue
	// manager and issuer. Read it through CurrentMap.
	pmap *model.PartitionMap
	// epochsPublished / itemsMoved count placement changes published by
	// this controller (RebalanceStats).
	epochsPublished uint64
	itemsMoved      uint64

	Managers map[model.SiteID]*qm.Manager
	Issuers  map[model.SiteID]*ri.Issuer
	Drivers  map[model.SiteID]*workload.Driver
	Stores   map[model.SiteID]*storage.Store
	// WALs holds each site's durability pipeline when Config.Durability is
	// set (site id → site log).
	WALs map[model.SiteID]*wal.SiteLog

	started bool
}

// NewSim builds a cluster on the virtual-time engine: every site assembled
// by deploy.Site, plus the metrics collector.
func NewSim(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Latency == nil {
		// Jittered latency: without jitter every queue sees requests in
		// timestamp order and T/O never rejects, which no real network
		// provides.
		cfg.Latency = engine.UniformLatency{MinMicros: 1_000, MaxMicros: 3_000, LocalMicros: 50}
	}
	eng := sim.New(cfg.Latency)
	cl := &Cluster{
		Cfg:      cfg,
		Eng:      eng,
		pmap:     cfg.InitialMap(),
		Managers: map[model.SiteID]*qm.Manager{},
		Issuers:  map[model.SiteID]*ri.Issuer{},
		Drivers:  map[model.SiteID]*workload.Driver{},
		Stores:   map[model.SiteID]*storage.Store{},
		WALs:     map[model.SiteID]*wal.SiteLog{},
	}
	if cfg.Record {
		cl.Recorder = history.NewRecorder()
	}
	register := func(a engine.Addr, actor engine.Actor) { eng.Register(a, actor, cfg.Seed) }
	for _, s := range cfg.SiteIDs() {
		p, err := deploy.Site(cfg.Config, s, cl.pmap, cl.Recorder, cfg.Choose, register)
		if err != nil {
			return nil, err
		}
		cl.Stores[s], cl.Managers[s], cl.Issuers[s] = p.Store, p.Manager, p.Issuer
		if p.WAL != nil {
			cl.WALs[s] = p.WAL
		}
		if p.Detector != nil {
			cl.Detector = p.Detector
		}
	}
	if cfg.Collector.RISites == nil {
		cfg.Collector.RISites = cfg.SiteIDs()
	}
	cl.Collector = metrics.NewCollector(cfg.Collector)
	eng.Register(engine.CollectorAddr(), cl.Collector, cfg.Seed)
	return cl, nil
}

// AddDriver attaches a workload driver to a site's issuer.
func (c *Cluster) AddDriver(site model.SiteID, spec workload.Spec) error {
	if _, dup := c.Drivers[site]; dup {
		return fmt.Errorf("cluster: site %d already has a driver", site)
	}
	d, err := workload.NewDriver(site, spec)
	if err != nil {
		return err
	}
	c.Drivers[site] = d
	if spec.ClosedLoop > 0 {
		// Closed-loop pacing needs completion feedback from the issuer.
		c.Issuers[site].SetNotifyDriver(true)
	}
	c.Eng.Register(engine.DriverAddr(site), d, c.Cfg.Seed)
	return nil
}

// AddPhasedDriver attaches a phased workload driver to a site's issuer: the
// site walks the phase list in order from engine time zero, switching specs
// at each boundary (see workload.NewPhasedDriver). Phases are open-loop
// only, so no completion feedback is wired.
func (c *Cluster) AddPhasedDriver(site model.SiteID, phases []workload.Phase) error {
	if _, dup := c.Drivers[site]; dup {
		return fmt.Errorf("cluster: site %d already has a driver", site)
	}
	d, err := workload.NewPhasedDriver(site, phases)
	if err != nil {
		return err
	}
	c.Drivers[site] = d
	c.Eng.Register(engine.DriverAddr(site), d, c.Cfg.Seed)
	return nil
}

// SetLatency swaps the network latency model mid-run (sim only; call between
// engine steps — the scenario runner applies it at fault points). Messages
// already in flight keep their scheduled delivery times.
func (c *Cluster) SetLatency(m engine.LatencyModel) {
	c.Eng.SetLatency(m)
}

// SetGroupCommitWindow changes one site's group-commit window mid-run — the
// slow-disk fault hook (qm.Manager.SetGroupCommitMicros; safe while traffic
// flows, on either engine). No-op for an unknown site.
func (c *Cluster) SetGroupCommitWindow(site model.SiteID, windowMicros int64) {
	if m, ok := c.Managers[site]; ok {
		m.SetGroupCommitMicros(windowMicros)
	}
}

// ReplicaValues returns the current value of every live physical copy of
// item, primary first (replica-divergence checks after a run). Copies are
// resolved against the cluster's CURRENT partition map — after a rebalance
// the old owners are no longer copies and their leftover state (already
// released or mid-deletion) must not count as divergence. Copies on sites
// still crashed are skipped.
func (c *Cluster) ReplicaValues(item model.ItemID) []int64 {
	sites := c.pmap.Replicas(item)
	out := make([]int64, 0, len(sites))
	for _, s := range sites {
		if st := c.Stores[s]; st.Has(item) {
			v, _ := st.Read(item)
			out = append(out, v)
		}
	}
	return out
}

// CurrentMap returns the controller's current partition map. Callers must
// treat it as immutable — publish methods replace it wholesale.
func (c *Cluster) CurrentMap() *model.PartitionMap { return c.pmap }

// RebalanceStats reports the placement changes published by this controller.
type RebalanceStats struct {
	// EpochsPublished counts partition-map epochs broadcast (AddSite,
	// DrainSite, MoveItems, RebalanceHot each publish one).
	EpochsPublished uint64
	// ItemsMoved counts items whose primary changed across those epochs.
	ItemsMoved uint64
}

// Rebalance returns the controller-side placement counters.
func (c *Cluster) Rebalance() RebalanceStats {
	return RebalanceStats{EpochsPublished: c.epochsPublished, ItemsMoved: c.itemsMoved}
}

// publish adopts next as the authoritative map and schedules its broadcast
// (deploy.Publish) atMicros into the virtual future. Counters track
// primaries that changed.
func (c *Cluster) publish(atMicros int64, next *model.PartitionMap) {
	for item := 0; item < next.Items() && item < c.pmap.Items(); item++ {
		if next.Primary(model.ItemID(item)) != c.pmap.Primary(model.ItemID(item)) {
			c.itemsMoved++
		}
	}
	c.pmap = next
	c.epochsPublished++
	deploy.Publish(c.Cfg.Config, next, func(to engine.Addr, m model.Message) { c.Eng.PostAfter(atMicros, to, m) })
}

// MoveItems publishes an epoch that makes dst the primary for items
// (filling dst's new copies from the old owners' logs); items already
// primaried at dst are left alone. Like CrashSite, call between engine
// steps — atMicros is relative to current virtual time.
func (c *Cluster) MoveItems(atMicros int64, items []model.ItemID, dst model.SiteID) error {
	next, err := placement.PlanMove(c.pmap, items, dst)
	if err != nil {
		return err
	}
	c.publish(atMicros, next)
	return nil
}

// AddSite publishes an epoch that brings site into the active set, seeding
// it with its share of items by fills. The site must already
// exist in the cluster (Config.Sites covers it; use Config.DataSites to
// start it empty).
func (c *Cluster) AddSite(atMicros int64, site model.SiteID) error {
	if int(site) < 0 || int(site) >= c.Cfg.Sites {
		return fmt.Errorf("cluster: AddSite: site %d outside configured sites [0,%d)", site, c.Cfg.Sites)
	}
	next, err := placement.PlanAdd(c.pmap, site)
	if err != nil {
		return err
	}
	c.publish(atMicros, next)
	return nil
}

// DrainSite publishes an epoch with site removed from every assignment:
// surviving copies are promoted and replacement copies are seeded on other
// active sites by fills. The site's actors stay registered —
// they just stop owning data.
func (c *Cluster) DrainSite(atMicros int64, site model.SiteID) error {
	next, err := placement.PlanDrain(c.pmap, site)
	if err != nil {
		return err
	}
	c.publish(atMicros, next)
	return nil
}

// RebalanceHot moves the hottest fraction of items — by grant counts
// aggregated across every queue manager — to dst, or to the least-loaded
// active site when dst is negative. Returns the moved items (empty when
// there is no load to act on). Call between engine steps.
func (c *Cluster) RebalanceHot(atMicros int64, frac float64, dst model.SiteID) ([]model.ItemID, error) {
	counts := map[model.ItemID]uint64{}
	for _, s := range c.Cfg.SiteIDs() {
		for item, n := range c.Managers[s].GrantCounts() {
			counts[item] += n
		}
	}
	items, pick := placement.PlanHotMoves(counts, c.pmap, frac)
	if len(items) == 0 {
		return nil, nil
	}
	if dst < 0 {
		dst = pick
	}
	if err := c.MoveItems(atMicros, items, dst); err != nil {
		return nil, err
	}
	return items, nil
}

// Start posts the initial timer ticks: deploy.Start's chains (detector
// probes, QM stats pushes, catch-up pulls) with the collector's estimate
// broadcasts in its host slot, then the driver arrivals.
func (c *Cluster) Start() {
	if c.started {
		return
	}
	c.started = true
	var hosted []engine.Addr
	if c.Cfg.Collector.EstimatePeriodMicros > 0 {
		hosted = append(hosted, engine.CollectorAddr())
	}
	deploy.Start(c.Cfg.Config, c.Cfg.SiteIDs(), c.Eng.Post, hosted...)
	for _, s := range c.Cfg.SiteIDs() {
		if _, ok := c.Drivers[s]; ok {
			c.Eng.Post(engine.DriverAddr(s), model.TickMsg{})
		}
	}
}

// Submit injects a single transaction at its issuer (examples/tests).
func (c *Cluster) Submit(t *model.Txn) {
	c.Eng.Post(engine.RIAddr(t.ID.Site), model.SubmitTxnMsg{Txn: t})
}

// CrashSite schedules a site crash atMicros into the virtual future: the
// site's volatile store and unsynced WAL tail are destroyed; until recovery
// the site defers every message. Requires Config.Durability. Call before
// Run (events are scheduled relative to the current virtual time).
func (c *Cluster) CrashSite(site model.SiteID, atMicros int64) {
	c.Eng.PostAfter(atMicros, engine.QMAddr(site), model.CrashMsg{})
}

// RecoverSite schedules the site's recovery atMicros into the virtual
// future: the store is rebuilt from snapshot + WAL replay and deferred
// messages are processed in arrival order.
func (c *Cluster) RecoverSite(site model.SiteID, atMicros int64) {
	c.Eng.PostAfter(atMicros, engine.QMAddr(site), model.RecoverMsg{})
}

// Result summarizes one complete run.
type Result struct {
	Summary metrics.Summary
	// Unfinished counts transactions still live after the drain (stuck
	// deadlocks after the detector stopped, or dropped attempts).
	Unfinished int
	// Events is the number of delivered engine events.
	Events uint64
	// Serializability holds the history check when recording was enabled.
	Serializability *history.Result
}

// Run executes the standard experiment schedule: start everything, run the
// workload until its horizon plus a settle window, stop periodic actors,
// drain in-flight work, and summarize.
func (c *Cluster) Run(horizonMicros, settleMicros int64) Result {
	c.Start()
	c.Eng.RunUntil(horizonMicros + settleMicros)
	return c.Finish()
}

// Finish ends a run the caller has been driving manually (Start + RunUntil
// steps, the scenario harness's phase loop): it stops the periodic actors,
// drains in-flight work to quiescence, and summarizes. Call once.
func (c *Cluster) Finish() Result {
	// Stop periodic work so the event heap can drain.
	c.Eng.Post(engine.DetectorAddr(), model.StopMsg{})
	c.Eng.Post(engine.CollectorAddr(), model.StopMsg{})
	for _, s := range c.Cfg.SiteIDs() {
		c.Eng.Post(engine.QMAddr(s), model.StopMsg{})
	}
	for _, s := range c.Cfg.SiteIDs() {
		if _, ok := c.Drivers[s]; ok {
			c.Eng.Post(engine.DriverAddr(s), model.StopMsg{})
		}
	}
	c.Eng.Drain(0)

	// Settle: the periodic pull chain stopped with the StopMsgs above, so
	// writes that committed during the drain never shipped, and a rebalance
	// published late in the run may still have fills open. Run one-shot
	// pull rounds until no fill is open and applies stop changing, so the
	// final store state reflects full convergence — bounded, because each
	// round can only move watermarks forward, the logs are now quiet, and
	// each fill either completes or meets an old owner whose next round
	// serves it.
	applied := func() uint64 { t := c.QMTotals(); return t.ReplApplied + t.TransferApplied }
	for round := 0; round < 32 && (c.Cfg.CatchUp() || c.fillsOpen()); round++ {
		before := applied()
		for _, s := range c.Cfg.SiteIDs() {
			c.Eng.Post(engine.QMAddr(s), model.TickMsg{Tag: qm.ReplSettleTickTag})
		}
		c.Eng.Drain(0)
		if !c.fillsOpen() && applied() == before {
			break
		}
	}

	var res Result
	res.Summary = c.Collector.Summarize()
	res.Events = c.Eng.Delivered
	for _, iss := range c.Issuers {
		res.Unfinished += iss.Snapshot().Active
	}
	if c.Recorder != nil {
		r := c.Recorder.Check()
		res.Serializability = &r
	}
	return res
}

// fillsOpen reports whether any queue manager is still filling a copy it
// gained.
func (c *Cluster) fillsOpen() bool {
	for _, s := range c.Cfg.SiteIDs() {
		if c.Managers[s].FillsOpen() {
			return true
		}
	}
	return false
}

// QMTotals sums queue-manager counters across sites.
func (c *Cluster) QMTotals() qm.Counters {
	var t qm.Counters
	for _, m := range c.Managers {
		t.Add(m.Snapshot())
	}
	return t
}

// ReplWatermarks returns each site's per-peer catch-up watermarks (site →
// peer → highest applied WAL sequence); empty when the catch-up plane does
// not run (deploy.Config.CatchUp). The convergence probe: after a settle
// window, a recovered site's watermark for every peer must have caught up
// to that peer's durable log.
func (c *Cluster) ReplWatermarks() map[model.SiteID]map[model.SiteID]uint64 {
	out := map[model.SiteID]map[model.SiteID]uint64{}
	for s, m := range c.Managers {
		if w := m.ReplWatermarks(); w != nil {
			out[s] = w
		}
	}
	return out
}

// WALTotals sums durability counters across sites (zero when durability is
// disabled).
func (c *Cluster) WALTotals() wal.Stats {
	var t wal.Stats
	for _, sl := range c.WALs {
		t.Add(sl.Stats())
	}
	return t
}

// RITotals sums issuer counters across sites.
func (c *Cluster) RITotals() ri.Stats {
	var t ri.Stats
	for _, iss := range c.Issuers {
		s := iss.Snapshot()
		t.Submitted += s.Submitted
		t.Committed += s.Committed
		t.ROCommitted += s.ROCommitted
		t.ROStale += s.ROStale
		t.Rejects += s.Rejects
		t.Victims += s.Victims
		t.Dropped += s.Dropped
		t.Shed += s.Shed
		t.BusyNAKs += s.BusyNAKs
		t.ROBusyShed += s.ROBusyShed
		t.ReBackoffs += s.ReBackoffs
		t.QuorumExcluded += s.QuorumExcluded
		t.QuorumHedged += s.QuorumHedged
		t.WrongEpochNAKs += s.WrongEpochNAKs
		t.MapUpdates += s.MapUpdates
		t.Active += s.Active
	}
	return t
}

// DepthHighWater returns the deepest data queue observed at any site. With
// qm.Options.MaxQueueDepth configured it must never exceed that bound — the
// invariant the overload experiment asserts.
func (c *Cluster) DepthHighWater() int {
	high := 0
	for _, m := range c.Managers {
		if d := m.DepthHighWater(); d > high {
			high = d
		}
	}
	return high
}
