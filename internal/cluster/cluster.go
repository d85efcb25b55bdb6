package cluster

import (
	"fmt"
	"path/filepath"

	"ucc/internal/deadlock"
	"ucc/internal/engine"
	"ucc/internal/history"
	"ucc/internal/metrics"
	"ucc/internal/model"
	"ucc/internal/placement"
	"ucc/internal/qm"
	"ucc/internal/repl"
	"ucc/internal/ri"
	"ucc/internal/sim"
	"ucc/internal/storage"
	"ucc/internal/wal"
	"ucc/internal/workload"
)

// Config describes a cluster. User site i and data site i share a site id
// (each site hosts both an RI and a QM), as in the paper's model where every
// computer site may hold data and issue transactions.
type Config struct {
	// Sites is the number of computer sites (each hosts an RI and a QM).
	Sites int
	// Items is the number of logical data items.
	Items int
	// Replicas is the number of physical copies per item (read-one/write-all).
	Replicas int
	// Shards partitions every site's queue manager into this many
	// independent shards (hash of item → shard): per-shard queue tables,
	// lock state, and group-commit batches, each registered at its own
	// engine address so conflict-free operations at one site execute in
	// parallel on the real-time runtime. Default 1 (unsharded). The
	// simulator delivers to one event loop regardless, so Shards changes
	// no sim outcome except message addressing — which is exactly what the
	// sharded correctness tests rely on.
	Shards int
	// InitialValue seeds every item's copies.
	InitialValue int64
	// Placement selects the epoch-0 layout policy (round-robin, range, or
	// hash; empty = round-robin, the historical layout). See
	// placement.Build.
	Placement placement.Policy
	// DataSites bounds the initial placement to sites 0..DataSites-1; the
	// remaining sites start empty (standby) and join via Cluster.AddSite.
	// Zero places data on every site.
	DataSites int

	// Latency is the network model (default: fixed 2ms remote).
	Latency engine.LatencyModel
	// Seed drives every random stream.
	Seed int64

	QM        qm.Options
	RI        ri.Options
	Detector  deadlock.Options
	Collector metrics.CollectorOptions

	// Choose installs a dynamic protocol selector at every RI (nil = honour
	// each transaction's preset protocol).
	Choose ri.ChooseFunc

	// Record enables history recording and serializability checking.
	Record bool

	// Chain bounds each store's per-copy version chain (zero fields select
	// storage.DefaultChainPolicy: 16 versions, 250ms of history). KeepMicros
	// must exceed RI.SnapshotStalenessMicros plus the maximum network delay
	// or snapshot reads can outlive their versions; Validate raises the
	// window (and scales the version cap) to 2× the configured staleness
	// when the policy would otherwise undercut it.
	Chain storage.ChainPolicy

	// Durability attaches a per-site write-ahead log + snapshots (nil =
	// volatile sites, the paper's failure-free model). Required for
	// CrashSite/RecoverSite fault injection.
	Durability *Durability

	// Quorum switches replica access from read-one/write-all to quorum mode
	// (model.Quorum: writes commit on any W of N copies, reads consult R and
	// take the highest commit stamp) and wires the log-shipping catch-up
	// plane (internal/repl) that converges lagging copies. Requires
	// Durability — catch-up streams the WAL — and N must equal Replicas.
	Quorum *model.Quorum
	// ReplPeriodMicros is the catch-up pull period (default
	// repl.DefaultPeriodMicros, 150ms). Only meaningful with Quorum.
	ReplPeriodMicros int64
	// ReplBatchRecords bounds records per catch-up reply (default
	// repl.DefaultBatchRecords). Only meaningful with Quorum.
	ReplBatchRecords int
}

// Durability configures the per-site WAL (internal/wal).
type Durability struct {
	// Dir, when set, stores each site's log under Dir/site<N> as real files;
	// empty uses deterministic in-memory media (the simulator's fault
	// injection, where CrashMsg discards exactly the unsynced bytes).
	Dir string
	// SegmentBytes is the log segment roll threshold (default 1 MiB).
	SegmentBytes int
	// SnapshotEvery takes a store snapshot and truncates the log after this
	// many journaled writes (0 disables automatic snapshots).
	SnapshotEvery uint64
	// GroupCommitMicros is how long a queue-manager shard waits after
	// journaling a write before the WAL sync that covers it; zero syncs as
	// soon as the shard has drained its pending deliveries. See
	// qm.Options.GroupCommitMicros.
	//
	// With CrashSite: the write-ahead rule holds at every window — a
	// journaled write parks its item, and no grant, promotion or snapshot
	// reply leaves the site past it before its sync returns. A crash inside
	// the window therefore destroys only writes nobody observed through
	// that site; the site recovers to a state consistent with everything it
	// ever exposed, and the history log retracts the destroyed writes'
	// entries, so Record + CrashSite + any window is inside the checked
	// envelope. What a crash cannot do is un-commit the transaction — the
	// protocol has no release-ack — so the copy that lost the write stays
	// behind its peers until something re-ships it. Quorum catch-up does
	// (a recovered site re-pulls every peer's log); write-all replication
	// has no such plane, and a copy that lost a write this way stays stale
	// until the item is written again. (Under the simulator a zero window
	// leaves no instant for a crash to land in: the sync is scheduled at
	// the release's own virtual time.)
	GroupCommitMicros int64
}

// Validate fills defaults.
func (c *Config) Validate() error {
	if c.Sites <= 0 {
		return fmt.Errorf("cluster: Sites must be positive")
	}
	if c.Items <= 0 {
		return fmt.Errorf("cluster: Items must be positive")
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.Replicas > c.Sites {
		c.Replicas = c.Sites
	}
	if err := c.Placement.Validate(); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	if c.DataSites < 0 || c.DataSites > c.Sites {
		return fmt.Errorf("cluster: DataSites=%d out of range [0, Sites=%d]", c.DataSites, c.Sites)
	}
	if c.DataSites > 0 && c.Replicas > c.DataSites {
		c.Replicas = c.DataSites
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Shards > 256 {
		// engine.Addr carries the shard index in a byte and QMShardAddr
		// truncates with uint8(shard), while model.ShardOfItem returns up to
		// Shards-1: above 256 the high shards would silently alias low shard
		// mailboxes and misroute traffic. Refuse loudly rather than clamp —
		// a clamp here would disagree with the item→shard hash everywhere
		// else and split one shard's queue table across two mailboxes.
		return fmt.Errorf("cluster: Shards=%d exceeds 256 (engine addresses carry the shard index in one byte)", c.Shards)
	}
	if c.Quorum != nil {
		if c.Durability == nil {
			return fmt.Errorf("cluster: Quorum requires Durability — a lagging replica catches up by streaming peers' WALs")
		}
		if err := c.Quorum.Validate(c.Replicas); err != nil {
			return fmt.Errorf("cluster: %w", err)
		}
		if c.ReplPeriodMicros < 0 {
			return fmt.Errorf("cluster: ReplPeriodMicros must be non-negative (zero selects the default)")
		}
		if c.ReplBatchRecords < 0 {
			return fmt.Errorf("cluster: ReplBatchRecords must be non-negative (zero selects the default)")
		}
	}
	if c.Latency == nil {
		// Jittered latency: without jitter every queue sees requests in
		// timestamp order and T/O never rejects, which no real network
		// provides.
		c.Latency = engine.UniformLatency{MinMicros: 1_000, MaxMicros: 3_000, LocalMicros: 50}
	}
	if c.RI.PAIntervalMicros == 0 && c.RI.RestartDelayMicros == 0 &&
		c.RI.DefaultComputeMicros == 0 && c.RI.MaxAttempts == 0 &&
		c.RI.SwitchOnRestart == nil {
		// All the protocol-timing knobs are unset: fill their defaults
		// field by field. Every other Options field — Admission, the backoff
		// cap, DisableROFastPath, QMShards, an explicitly chosen snapshot
		// staleness — keeps whatever the caller set: a wholesale Options
		// replacement here would silently clobber any non-timing knob
		// configured on its own (and every future Options field would have
		// to remember to be spared from it).
		def := ri.DefaultOptions()
		c.RI.PAIntervalMicros = def.PAIntervalMicros
		c.RI.RestartDelayMicros = def.RestartDelayMicros
		c.RI.DefaultComputeMicros = def.DefaultComputeMicros
		if c.RI.SnapshotStalenessMicros == 0 {
			c.RI.SnapshotStalenessMicros = def.SnapshotStalenessMicros
		}
	}
	if c.Detector == (deadlock.Options{}) {
		c.Detector = deadlock.DefaultOptions()
	}
	// The chain retention window must cover the snapshot staleness margin
	// (plus in-flight releases), or ReadAt falls off the chain and serves a
	// version newer than the snapshot — a serializability violation waiting
	// to happen. Size the policy up to the staleness the issuers will use,
	// scaling the hard cap with the window so it does not silently undo the
	// extension.
	def := storage.DefaultChainPolicy()
	staleness := c.RI.SnapshotStalenessMicros
	if staleness <= 0 {
		staleness = ri.DefaultOptions().SnapshotStalenessMicros
	}
	effective := c.Chain.KeepMicros
	if effective <= 0 {
		effective = def.KeepMicros
	}
	if needed := 2 * staleness; effective < needed {
		effective = needed
		c.Chain.KeepMicros = needed
	}
	// Scale the hard cap with the effective window, or the default cap
	// silently undoes the retention under write pressure. An explicitly
	// configured MaxVersions is respected as-is: ChainPolicy documents it
	// as the bound where memory safety wins over retention.
	if c.Chain.MaxVersions <= 0 {
		if minVersions := int(int64(def.MaxVersions) * effective / def.KeepMicros); minVersions > def.MaxVersions {
			c.Chain.MaxVersions = minVersions
		}
	}
	return nil
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

// NewSim builds a cluster on the virtual-time engine.
func NewSim(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := sim.New(cfg.Latency)
	cl := &Cluster{
		Cfg:      cfg,
		Eng:      eng,
		Managers: map[model.SiteID]*qm.Manager{},
		Issuers:  map[model.SiteID]*ri.Issuer{},
		Drivers:  map[model.SiteID]*workload.Driver{},
		Stores:   map[model.SiteID]*storage.Store{},
		WALs:     map[model.SiteID]*wal.SiteLog{},
	}
	if cfg.Record {
		cl.Recorder = history.NewRecorder()
	}

	sites := make([]model.SiteID, cfg.Sites)
	for i := range sites {
		sites[i] = model.SiteID(i)
	}
	dataSites := sites
	if cfg.DataSites > 0 {
		dataSites = sites[:cfg.DataSites]
	}
	cl.pmap = placement.Build(cfg.Placement, cfg.Items, dataSites, cfg.Replicas)

	// Stores + queue managers (+ per-site durability when configured).
	if cfg.Durability != nil {
		cfg.QM.GroupCommitMicros = cfg.Durability.GroupCommitMicros
	}
	cfg.QM.Shards = cfg.Shards
	cfg.QM.InitialValue = cfg.InitialValue
	cfg.RI.QMShards = cfg.Shards
	cfg.RI.Quorum = cfg.Quorum
	for _, s := range sites {
		st := storage.NewStore(s)
		st.SetChainPolicy(cfg.Chain)
		for _, item := range cl.pmap.CopiesAt(s) {
			st.Create(item, cfg.InitialValue)
		}
		cl.Stores[s] = st
		if cfg.Durability != nil {
			var media wal.Media
			if cfg.Durability.Dir != "" {
				m, err := wal.NewDirMedia(filepath.Join(cfg.Durability.Dir, fmt.Sprintf("site%d", s)))
				if err != nil {
					return nil, err
				}
				media = m
			} else {
				media = wal.NewMemMedia()
			}
			sl, err := wal.Open(media, st, wal.Options{
				SegmentBytes:  cfg.Durability.SegmentBytes,
				SnapshotEvery: cfg.Durability.SnapshotEvery,
			})
			if err != nil {
				return nil, fmt.Errorf("cluster: site %d wal: %w", s, err)
			}
			st.SetJournal(sl)
			cl.WALs[s] = sl
		}
		mgr := qm.New(s, st, cl.Recorder, cfg.QM)
		if sl := cl.WALs[s]; sl != nil {
			mgr.SetDurable(sl)
		}
		mgr.SetPartitionMap(cl.pmap)
		cl.Managers[s] = mgr
		// One registration per shard: issuers address per-item traffic to
		// the shard mailbox its item hashes to (QMShardAddr), and the
		// manager routes by content, so this works unchanged whether the
		// engine gives each address a goroutine (runtime) or one event
		// loop serves them all (simulator). Shard 0 is also QMAddr(s), the
		// control address for crash/recovery/probes/ticks.
		for i := 0; i < mgr.NumShards(); i++ {
			eng.Register(engine.QMShardAddr(s, i), mgr, cfg.Seed)
		}
	}
	// Catch-up pullers: every site pulls from each peer it shares at least
	// one item with (with round-robin placement and Replicas > 1 that is
	// usually every other site, but the partition map is the source of
	// truth — and the managers re-derive the peer sets themselves whenever
	// a later epoch is installed).
	if cfg.Quorum != nil {
		peers := replPeers(cl.pmap, sites)
		for _, s := range sites {
			cl.Managers[s].SetReplication(repl.NewPuller(repl.Options{
				Site:         s,
				Peers:        peers[s],
				PeriodMicros: cfg.ReplPeriodMicros,
				BatchRecords: cfg.ReplBatchRecords,
			}), cl.WALs[s])
		}
	}
	// Request issuers.
	for _, s := range sites {
		iss := ri.New(s, cl.pmap, cl.Recorder, cfg.RI, cfg.Choose)
		cl.Issuers[s] = iss
		eng.Register(engine.RIAddr(s), iss, cfg.Seed)
	}
	// Deadlock coordinator.
	cl.Detector = deadlock.New(sites, cfg.Detector)
	eng.Register(engine.DetectorAddr(), cl.Detector, cfg.Seed)
	// Metrics collector.
	if cfg.Collector.RISites == nil {
		cfg.Collector.RISites = sites
	}
	cl.Collector = metrics.NewCollector(cfg.Collector)
	eng.Register(engine.CollectorAddr(), cl.Collector, cfg.Seed)
	return cl, nil
}

// replPeers maps each site to the ascending list of other sites it shares at
// least one replicated item with — the set worth pulling WAL records from.
func replPeers(pm *model.PartitionMap, sites []model.SiteID) map[model.SiteID][]model.SiteID {
	shared := map[model.SiteID]map[model.SiteID]bool{}
	for _, s := range sites {
		shared[s] = map[model.SiteID]bool{}
	}
	for item := 0; item < pm.Items(); item++ {
		reps := pm.Replicas(model.ItemID(item))
		for _, a := range reps {
			for _, b := range reps {
				if a != b {
					shared[a][b] = true
				}
			}
		}
	}
	out := map[model.SiteID][]model.SiteID{}
	for _, s := range sites {
		for _, p := range sites { // sites is ascending; keep that order
			if shared[s][p] {
				out[s] = append(out[s], p)
			}
		}
	}
	return out
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
// atMicros into the virtual future: a MapInstallMsg to every queue manager
// (shard-0 control address) and a MapUpdateMsg to every issuer, in sorted
// site order for seed stability. Counters track primaries that changed.
func (c *Cluster) publish(atMicros int64, next *model.PartitionMap) {
	for item := 0; item < next.Items() && item < c.pmap.Items(); item++ {
		if next.Primary(model.ItemID(item)) != c.pmap.Primary(model.ItemID(item)) {
			c.itemsMoved++
		}
	}
	c.pmap = next
	c.epochsPublished++
	for _, s := range c.sortedSites(c.Cfg.Sites) {
		c.Eng.PostAfter(atMicros, engine.QMAddr(s), model.MapInstallMsg{Map: *next})
	}
	for _, s := range c.sortedSites(c.Cfg.Sites) {
		c.Eng.PostAfter(atMicros, engine.RIAddr(s), model.MapUpdateMsg{Map: *next})
	}
}

// MoveItems publishes an epoch that makes dst the primary for items
// (snapshot-transferring their state from the old owners); items already
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
// it with its share of items via snapshot transfer. The site must already
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
// active sites via snapshot transfer. The site's actors stay registered —
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
	for _, s := range c.sortedSites(c.Cfg.Sites) {
		m, ok := c.Managers[s]
		if !ok {
			continue
		}
		for item, n := range m.GrantCounts() {
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

// Start posts the initial timer ticks (detector probes, collector estimate
// broadcasts, QM stats pushes, driver arrivals).
func (c *Cluster) Start() {
	if c.started {
		return
	}
	c.started = true
	if c.Cfg.Detector.PeriodMicros > 0 {
		c.Eng.Post(engine.DetectorAddr(), model.TickMsg{})
	}
	if c.Cfg.Collector.EstimatePeriodMicros > 0 {
		c.Eng.Post(engine.CollectorAddr(), model.TickMsg{})
	}
	if c.Cfg.QM.StatsPeriodMicros > 0 {
		for _, s := range c.sortedSites(len(c.Managers)) {
			if _, ok := c.Managers[s]; ok {
				c.Eng.Post(engine.QMAddr(s), model.TickMsg{})
			}
		}
	}
	if c.Cfg.Quorum != nil {
		for _, s := range c.sortedSites(len(c.Managers)) {
			if _, ok := c.Managers[s]; ok {
				c.Eng.Post(engine.QMAddr(s), model.TickMsg{Tag: qm.ReplTickTag})
			}
		}
	}
	for _, s := range c.sortedSites(c.Cfg.Sites) {
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
	for _, s := range c.sortedSites(c.Cfg.Sites) {
		if _, ok := c.Managers[s]; ok {
			c.Eng.Post(engine.QMAddr(s), model.StopMsg{})
		}
	}
	for _, s := range c.sortedSites(c.Cfg.Sites) {
		if _, ok := c.Drivers[s]; ok {
			c.Eng.Post(engine.DriverAddr(s), model.StopMsg{})
		}
	}
	c.Eng.Drain(0)

	// Transfer settle: the transfer retry tick chain stopped with the
	// StopMsgs above, so a rebalance published late in the run may still
	// have sessions mid-stream. Pump one-shot transfer ticks until no
	// manager reports pending sessions (bounded — each round either
	// completes pulls or hits a drained old owner whose next round serves).
	for round := 0; round < 32 && c.transfersPending(); round++ {
		for _, s := range c.sortedSites(c.Cfg.Sites) {
			if _, ok := c.Managers[s]; ok {
				c.Eng.Post(engine.QMAddr(s), model.TickMsg{Tag: qm.TransferTickTag})
			}
		}
		c.Eng.Drain(0)
	}

	// Quorum settle: the periodic pull chain stopped with the StopMsgs
	// above, so writes that committed during the drain never shipped. Run
	// one-shot pull rounds to a fixpoint (applies stop changing) so the
	// final store state reflects full convergence — bounded, because each
	// round can only move watermarks forward and the logs are now quiet.
	if c.Cfg.Quorum != nil {
		for round := 0; round < 8; round++ {
			before := c.QMTotals().ReplApplied
			for _, s := range c.sortedSites(c.Cfg.Sites) {
				if _, ok := c.Managers[s]; ok {
					c.Eng.Post(engine.QMAddr(s), model.TickMsg{Tag: qm.ReplSettleTickTag})
				}
			}
			c.Eng.Drain(0)
			if c.QMTotals().ReplApplied == before {
				break
			}
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

// transfersPending reports whether any queue manager still has an open
// snapshot-transfer session.
func (c *Cluster) transfersPending() bool {
	for _, s := range c.sortedSites(c.Cfg.Sites) {
		if m, ok := c.Managers[s]; ok && m.TransfersPending() {
			return true
		}
	}
	return false
}

// sortedSites returns site ids 0..n-1 (deterministic iteration order for
// Post calls: map iteration would reorder same-timestamp events between
// runs).
func (c *Cluster) sortedSites(n int) []model.SiteID {
	out := make([]model.SiteID, 0, n)
	for i := 0; i < c.Cfg.Sites; i++ {
		out = append(out, model.SiteID(i))
	}
	return out
}

// QMTotals sums queue-manager counters across sites.
func (c *Cluster) QMTotals() qm.Counters {
	var t qm.Counters
	for _, m := range c.Managers {
		s := m.Snapshot()
		t.Requests += s.Requests
		t.Grants += s.Grants
		t.PreGrants += s.PreGrants
		t.Promotions += s.Promotions
		t.Rejects += s.Rejects
		t.Backoffs += s.Backoffs
		t.Revokes += s.Revokes
		t.Releases += s.Releases
		t.Conversion += s.Conversion
		t.Aborts += s.Aborts
		t.SnapReads += s.SnapReads
		t.SnapStale += s.SnapStale
		t.Busy += s.Busy
		t.WALSyncs += s.WALSyncs
		t.Commits += s.Commits
		t.Crashes += s.Crashes
		t.Recoveries += s.Recoveries
		t.Deferred += s.Deferred
		t.ReplPulls += s.ReplPulls
		t.ReplApplied += s.ReplApplied
		t.ReplSkipped += s.ReplSkipped
		t.ReplResets += s.ReplResets
		t.WrongEpoch += s.WrongEpoch
		t.MapInstalls += s.MapInstalls
		t.ItemsGained += s.ItemsGained
		t.TransferPulls += s.TransferPulls
		t.TransferApplied += s.TransferApplied
		t.TransferBytes += s.TransferBytes
	}
	return t
}

// ReplWatermarks returns each site's per-peer catch-up watermarks (site →
// peer → highest applied WAL sequence); empty when quorum replication is
// off. The convergence probe: after a settle window, a recovered site's
// watermark for every peer must have caught up to that peer's durable log.
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
		s := sl.Stats()
		t.Appends += s.Appends
		t.Syncs += s.Syncs
		t.Snapshots += s.Snapshots
		t.Replayed += s.Replayed
		t.RecoveredCopies += s.RecoveredCopies
		t.Recoveries += s.Recoveries
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
