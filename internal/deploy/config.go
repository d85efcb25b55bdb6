package deploy

import (
	"fmt"

	"ucc/internal/deadlock"
	"ucc/internal/model"
	"ucc/internal/placement"
	"ucc/internal/qm"
	"ucc/internal/ri"
	"ucc/internal/storage"
)

// Config describes the sites of one deployment; every process of a real
// deployment must build the same one. User site i and data site i share a
// site id (each site hosts both an RI and a QM), as in the paper's model
// where every computer site may hold data and issue transactions.
type Config struct {
	// Sites is the number of computer sites (each hosts an RI and a QM).
	Sites int
	// Items is the number of logical data items.
	Items int
	// Replicas is the number of physical copies per item.
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
	// remaining sites start empty (standby) and join by a later epoch
	// (cluster.Cluster.AddSite). Zero places data on every site.
	DataSites int

	QM       qm.Options
	RI       ri.Options
	Detector deadlock.Options

	// Durability attaches a per-site write-ahead log + snapshots (nil =
	// volatile sites, the paper's failure-free model). Required for the
	// simulator's CrashSite/RecoverSite fault injection.
	Durability *Durability

	// Quorum is the replica-access discipline (model.Quorum: writes commit
	// on any W of N copies, reads consult R and take the highest commit
	// stamp); nil is read-one/write-all, Quorum{N, N, 1}. N must equal
	// Replicas. A first attempt asks only a quorum of copies and hedges to
	// the rest when it stalls (ri.Options.Quorum). W < N requires
	// Durability: a copy a write quorum left out converges only through
	// the log-shipping catch-up plane (CatchUp), which streams the WAL.
	// Under W < N read-only snapshot transactions run as PA: the snapshot
	// fast path reads the primary copy alone, which a write quorum may have
	// left out.
	Quorum *model.Quorum
	// ReplPeriodMicros is the catch-up pull period (default
	// repl.DefaultPeriodMicros, 150ms); without catch-up peers it is also
	// how often an open fill is pulled again.
	ReplPeriodMicros int64
	// ReplBatchRecords bounds records per catch-up or fill reply (default
	// repl.DefaultBatchRecords).
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
	// journaling a write before the WAL sync that covers it starts; zero
	// starts it as soon as the shard has drained its pending deliveries.
	// The sync runs off the shard's mailbox loop, which keeps serving
	// items nobody wrote meanwhile. See qm.Options.GroupCommitMicros.
	//
	// With a site crash: the write-ahead rule holds at every window — a
	// journaled write parks its item, and no grant, promotion or snapshot
	// reply leaves the site past it before its sync returns. A crash inside
	// the window therefore destroys only writes nobody observed through
	// that site; the site recovers to a state consistent with everything it
	// ever exposed, and the history log retracts the destroyed writes'
	// entries, so recording + crashes + any window is inside the checked
	// envelope. What a crash cannot do is un-commit the transaction — the
	// protocol has no release-ack — so the copy that lost the write stays
	// behind its peers until the catch-up plane re-ships it: a recovered
	// site re-pulls every peer's log (Config.CatchUp). (Under the simulator
	// a zero window leaves no instant for a crash to land in: the sync is
	// scheduled at the release's own virtual time.)
	GroupCommitMicros int64
}

// Validate checks the configuration and fills its defaults. Every entry
// point — the simulator, the ucc facade and uccnode's flags — goes through
// it, so a shape one of them refuses, all of them refuse.
func (c *Config) Validate() error {
	if c.Sites <= 0 {
		return fmt.Errorf("deploy: Sites must be positive")
	}
	if c.Items <= 0 {
		return fmt.Errorf("deploy: Items must be positive")
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.Replicas > c.Sites {
		c.Replicas = c.Sites
	}
	if err := c.Placement.Validate(); err != nil {
		return fmt.Errorf("deploy: %w", err)
	}
	if c.DataSites < 0 || c.DataSites > c.Sites {
		return fmt.Errorf("deploy: DataSites=%d out of range [0, Sites=%d]", c.DataSites, c.Sites)
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
		return fmt.Errorf("deploy: Shards=%d exceeds 256 (engine addresses carry the shard index in one byte)", c.Shards)
	}
	if c.Quorum != nil {
		if c.Quorum.W < c.Quorum.N && c.Durability == nil {
			return fmt.Errorf("deploy: a Quorum with W < N requires Durability — a replica a write left out catches up by streaming peers' WALs")
		}
		// Replicas is clamped above, so N is checked against the copies
		// the partition map will really hold.
		if err := c.Quorum.Validate(c.Replicas); err != nil {
			return fmt.Errorf("deploy: %w", err)
		}
	}
	if c.ReplPeriodMicros < 0 {
		return fmt.Errorf("deploy: ReplPeriodMicros must be non-negative (zero selects the default)")
	}
	if c.ReplBatchRecords < 0 {
		return fmt.Errorf("deploy: ReplBatchRecords must be non-negative (zero selects the default)")
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
	return nil
}

// chainPolicy bounds each store's per-copy version chain for issuers whose
// snapshot reads may be staleness µs old. The retention window must cover
// the staleness margin plus in-flight releases, or ReadAt falls off the
// chain and serves a version newer than the snapshot: it is
// storage.DefaultChainPolicy's 250ms, raised to 2× the staleness where that
// is longer. The version cap scales with the window, or under write
// pressure the default 16 versions would undo the retention.
func chainPolicy(staleness int64) storage.ChainPolicy {
	def := storage.DefaultChainPolicy()
	if staleness <= 0 {
		staleness = ri.DefaultOptions().SnapshotStalenessMicros
	}
	keep := max(def.KeepMicros, 2*staleness)
	return storage.ChainPolicy{
		KeepMicros:  keep,
		MaxVersions: max(def.MaxVersions, int(int64(def.MaxVersions)*keep/def.KeepMicros)),
	}
}

// CatchUp reports whether the sites run the log-shipping catch-up plane
// (internal/repl): whenever a copy can miss a write that its peers keep —
// a quorum's W < N leaves one out, and a crash inside the group-commit
// window loses one under any quorum — and a peer's WAL can re-ship it.
func (c *Config) CatchUp() bool {
	return c.Durability != nil && c.Replicas > 1
}

// SiteIDs returns the site ids 0..Sites-1 in ascending order.
func (c *Config) SiteIDs() []model.SiteID {
	out := make([]model.SiteID, c.Sites)
	for i := range out {
		out[i] = model.SiteID(i)
	}
	return out
}

// InitialMap builds the epoch-0 partition map: Items spread by Placement
// over the data sites (all, or the first DataSites), Replicas copies each.
func (c *Config) InitialMap() *model.PartitionMap {
	sites := c.SiteIDs()
	if c.DataSites > 0 {
		sites = sites[:c.DataSites]
	}
	return placement.Build(c.Placement, c.Items, sites, c.Replicas)
}
