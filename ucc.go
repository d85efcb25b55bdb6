// Package ucc is a from-scratch Go implementation of the unified
// concurrency control algorithm of C. P. Wang and Victor O. K. Li (ICDE
// 1988): a distributed database concurrency control subsystem in which every
// transaction chooses — or is dynamically assigned — its own protocol among
// Two-Phase Locking, Basic Timestamp Ordering, and Precedence Agreement,
// while the system guarantees one conflict-serializable execution across the
// mix.
//
// The package is a facade over the internal engine. A Cluster simulates a
// multi-site distributed database in deterministic virtual time: each site
// hosts a Request Issuer and a Data Queue Manager; items may be replicated
// (read-one/write-all); a coordinator detects 2PL deadlocks; the STL cost
// model (§5 of the paper) drives optional per-transaction protocol
// selection.
//
// Quick start:
//
//	c, _ := ucc.New(ucc.Config{Sites: 3, Items: 64})
//	c.Workload(ucc.Workload{Rate: 25, Duration: 2 * time.Second, Mix: ucc.Mix{TO: 1}})
//	res := c.Run()
//	fmt.Println(res.MeanSystemTime(), res.Serializable())
//
// For a real multi-process deployment over TCP, see cmd/uccnode and
// cmd/uccclient.
package ucc

import (
	"fmt"
	"runtime"
	"time"

	"ucc/internal/cluster"
	"ucc/internal/deadlock"
	"ucc/internal/engine"
	"ucc/internal/metrics"
	"ucc/internal/model"
	"ucc/internal/placement"
	"ucc/internal/qm"
	"ucc/internal/ri"
	"ucc/internal/selector"
	"ucc/internal/workload"
)

// Protocol selects a member concurrency control algorithm.
type Protocol = model.Protocol

// The member protocols of the unified scheme, plus the read-only snapshot
// class layered on top of it.
const (
	TwoPL = model.TwoPL // static two-phase locking (deadlock-prone, FCFS)
	TO    = model.TO    // basic timestamp ordering (restart-prone)
	PA    = model.PA    // precedence agreement (negotiated, restart-free)
	// ROSnapshot runs a pure-read transaction on the snapshot fast path: it
	// reads committed versions at a recent snapshot timestamp straight from
	// the multi-version store — no queueing, no locks, no restarts. A
	// transaction with writes tagged ROSnapshot silently runs under PA.
	ROSnapshot = model.ROSnapshot
)

// ItemID names a logical data item.
type ItemID = model.ItemID

// TxnID identifies a transaction.
type TxnID = model.TxnID

// Config describes a simulated cluster.
type Config struct {
	// Sites is the number of computer sites; each hosts a request issuer
	// and a queue manager (default 3).
	Sites int
	// Items is the number of logical data items (default 64).
	Items int
	// Replicas is the number of physical copies per item, accessed
	// read-one/write-all (default 1).
	Replicas int
	// Placement selects the epoch-0 layout policy: "round-robin" (the
	// default, the historical layout), "range" (contiguous balanced
	// splits), or "hash" (FNV of the item id). Items can move afterwards:
	// AddSite, DrainSite, and MoveItems publish new partition-map epochs
	// and rebalance online.
	Placement string
	// DataSites restricts the initial placement to sites 0..DataSites-1,
	// leaving the rest standby (join them later with AddSite). 0 places
	// data everywhere.
	DataSites int
	// Shards partitions each site's queue manager into this many
	// independent shards (hash of item → shard), each with its own queue
	// table, lock state, and WAL group-commit batch, so conflict-free
	// operations at one site execute in parallel on multi-core hardware
	// (default 1, maximum 256 — engine addresses carry the shard index in
	// one byte, and New returns an error rather than misroute above it).
	// Sharding never changes what commits — only which mailbox serves an
	// item — so any Shards value yields the same serializable executions;
	// EXP-11 measures the wall-clock scaling.
	Shards int
	// InitialValue seeds every item (default 0).
	InitialValue int64
	// Seed makes the whole run reproducible (default 1).
	Seed int64

	// NetDelayMin/Max bound the uniformly jittered one-way network delay
	// (defaults 1ms/3ms). Jitter matters: it is what makes requests arrive
	// out of timestamp order, exercising T/O rejections and PA back-offs.
	NetDelayMin time.Duration
	NetDelayMax time.Duration

	// DeadlockPeriod is the detection probe period for the 2PL member
	// (default 50ms; 0 disables detection).
	DeadlockPeriod time.Duration
	// PAInterval is the back-off interval INT attached to PA transactions
	// (default 2ms).
	PAInterval time.Duration
	// RestartDelay is the base delay before retrying a rejected, victimized,
	// or busy-NAK'd transaction (default 10ms). The delay doubles with every
	// failed attempt (±50% jitter throughout) up to RestartDelayCap.
	RestartDelay time.Duration
	// RestartDelayCap bounds the exponential restart backoff (default 32×
	// RestartDelay). A flat restart delay is a restart storm under
	// contention: every loser of a conflict round retries at the same rate
	// and the round re-collides forever.
	RestartDelayCap time.Duration
	// SemiLocks selects the §4.2 semi-lock enforcement; disabling it falls
	// back to the paper's simpler lock-everything unification (default on).
	DisableSemiLocks bool

	// DisableReadOnlyFastPath demotes every ROSnapshot transaction to a PA
	// read-only transaction that queues and locks like everyone else — the
	// measured baseline of EXP-10 and an operational escape hatch. Default
	// off: read-only transactions tagged (or routed) ROSnapshot use the
	// multi-version snapshot fast path.
	DisableReadOnlyFastPath bool
	// SnapshotStaleness is how far in the past ROSnapshot transactions
	// read (default 15ms). It must exceed the maximum network delay so a
	// snapshot is a consistent cut of committed transactions; larger values
	// trade staleness for safety margin.
	SnapshotStaleness time.Duration

	// DynamicSelection installs the min-STL per-transaction protocol
	// selector (§5.2); transactions' preset protocols are then ignored —
	// except that pure-read transactions are routed to the ROSnapshot fast
	// path (unless DisableReadOnlyFastPath).
	DynamicSelection bool
	// SelectionFallback is used before estimates warm up (default PA).
	SelectionFallback Protocol
	// EscalateRestartsToPA switches a T/O transaction to PA after two
	// rejected attempts (the paper's future-work item §6(4): transactions
	// changing their concurrency control method). PA cannot be rejected, so
	// escalation bounds restart storms.
	EscalateRestartsToPA bool

	// MaxQueueDepth bounds every per-item data queue at every queue manager:
	// a request arriving at a full queue is refused with a BusyMsg NAK (the
	// issuer aborts the attempt and retries under backoff) instead of
	// queueing without bound. 0 (the default) keeps queues unbounded — the
	// paper's failure-free, overload-free model.
	MaxQueueDepth int
	// Admission enables per-site admission control: a token bucket plus an
	// AIMD in-flight window gate every new-transaction start, shedding
	// arrivals beyond capacity (reported per-protocol as Shed) so goodput
	// plateaus near peak instead of latency and memory diverging. EXP-12
	// measures the effect.
	Admission bool
	// AdmissionWindow is the initial in-flight window per site (default 64).
	AdmissionWindow int
	// AdmissionRate, when positive, caps new-transaction starts per site at
	// this many per second (the token bucket; burst = max(16, rate/4)).
	AdmissionRate float64
	// AdmissionTargetLatency, when positive, also treats commits slower than
	// this as congestion (multiplicative window decrease).
	AdmissionTargetLatency time.Duration
	// MaxAttempts caps how many times a rejected, victimized, or busy-NAK'd
	// transaction is restarted; past the cap it is dropped and counted
	// (never silently retried forever). 0 = unlimited, the paper's model.
	MaxAttempts int

	// Durability attaches a write-ahead log + snapshots to every site
	// (deterministic in-memory media) and enables CrashSite/RecoverSite
	// fault injection. Default off — the paper's failure-free model.
	Durability bool
	// QuorumN/W/R, when all set, switch replicated items from
	// read-one/write-all to quorum replication: writes commit on any W of N
	// grants, reads consult R copies and adopt the highest commit stamp, and
	// copies outside a write's quorum converge through WAL log shipping from
	// their peers. Requires Durability (the catch-up plane streams the WAL)
	// and N == Replicas; W+R > N and 2W > N are enforced. A single dead
	// site of a 3-way quorum is masked: commits continue on the surviving
	// pair and the dead site catches up after recovery.
	QuorumN, QuorumW, QuorumR int
	// ReplPullPeriod is the catch-up pull period (default 150ms).
	ReplPullPeriod time.Duration
	// GroupCommitWindow, with Durability, is how long a site waits after
	// journaling a write before the WAL sync that covers it, so
	// concurrently committing transactions share one sync. The written
	// item's grants and snapshot replies are held until that sync at every
	// value (0, the default, syncs as soon as the site has drained its
	// pending deliveries), so a CrashSite inside the window destroys only
	// writes nobody observed through that site; a copy that lost one is
	// re-shipped by quorum catch-up (write-all replication has no such
	// repair path — see cluster.Durability.GroupCommitMicros).
	GroupCommitWindow time.Duration
}

func (c *Config) fill() {
	if c.Sites <= 0 {
		c.Sites = 3
	}
	if c.Items <= 0 {
		c.Items = 64
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.NetDelayMin <= 0 {
		c.NetDelayMin = time.Millisecond
	}
	if c.NetDelayMax < c.NetDelayMin {
		c.NetDelayMax = 3 * time.Millisecond
	}
	if c.DeadlockPeriod == 0 {
		c.DeadlockPeriod = 50 * time.Millisecond
	}
	if c.PAInterval <= 0 {
		c.PAInterval = 2 * time.Millisecond
	}
	if c.RestartDelay <= 0 {
		c.RestartDelay = 10 * time.Millisecond
	}
	if c.SnapshotStaleness <= 0 {
		c.SnapshotStaleness = 15 * time.Millisecond
	}
}

// Mix is a protocol share vector for generated workloads. ReadOnly is the
// share of pure-read snapshot transactions (the ROSnapshot class); the other
// three split the read-write remainder.
type Mix struct {
	TwoPL, TO, PA, ReadOnly float64
}

// AllWrites is the ReadFrac sentinel for a 0% read (all-write) workload.
// The zero value of Workload.ReadFrac selects the default of 0.6, so "no
// reads" needs an explicit marker; any negative value works.
const AllWrites = -1.0

// Workload describes one site-spanning generated workload.
type Workload struct {
	// Rate is the Poisson arrival rate per site (txn/s; default 20).
	// Ignored when Concurrency is set.
	Rate float64
	// Concurrency switches to closed-loop load: this many transactions are
	// kept in flight per site, each completion launching the next. Use it
	// to measure capacity — an open-loop run that drains to quiescence
	// commits every arrival eventually, whatever the path costs.
	Concurrency int
	// Duration is how long arrivals continue (default 2s).
	Duration time.Duration
	// Size is the number of items per transaction (default 4).
	Size int
	// ReadFrac is the probability an accessed item is read. The zero value
	// selects the default of 0.6; pass AllWrites (or any negative value)
	// for an all-write workload, which a literal 0 cannot express.
	ReadFrac float64
	// Mix sets the protocol shares (default all-PA). Ignored when the
	// cluster uses DynamicSelection — except Mix.ReadOnly, which still
	// shapes generation (the selector routes pure reads to the fast path).
	Mix Mix
	// ReadOnlySize is the item count of read-only snapshot transactions
	// (default: Size); analytic scans are typically larger than updates.
	ReadOnlySize int
	// Compute is the local computing phase duration (default 1ms).
	Compute time.Duration
	// Hotspot, if >0, sends 80% of accesses to the first Hotspot items.
	Hotspot int
}

// Cluster is a wired simulated system.
type Cluster struct {
	cfg   Config
	inner *cluster.Cluster
	dyn   *selector.Dynamic
	wl    *Workload
	seq   uint64
	ran   bool
}

// New builds a cluster. Shards above 256 are rejected (by the cluster
// layer's validation, surfaced here): engine addresses carry the shard index
// in one byte, so a larger count would silently alias shard mailboxes and
// misroute traffic.
func New(cfg Config) (*Cluster, error) {
	cfg.fill()
	policy, err := placement.ParsePolicy(cfg.Placement)
	if err != nil {
		return nil, fmt.Errorf("ucc: %w", err)
	}
	var dyn *selector.Dynamic
	var choose ri.ChooseFunc
	if cfg.DynamicSelection {
		dyn = selector.NewDynamic(selector.Options{
			Fallback:         cfg.SelectionFallback,
			ReadOnlyFastPath: !cfg.DisableReadOnlyFastPath,
		})
		choose = dyn.Choose
	}
	var durability *cluster.Durability
	if cfg.Durability {
		durability = &cluster.Durability{
			SnapshotEvery:     500,
			GroupCommitMicros: cfg.GroupCommitWindow.Microseconds(),
		}
	}
	var quorum *model.Quorum
	if cfg.QuorumN != 0 || cfg.QuorumW != 0 || cfg.QuorumR != 0 {
		quorum = &model.Quorum{N: cfg.QuorumN, W: cfg.QuorumW, R: cfg.QuorumR}
	}
	inner, err := cluster.NewSim(cluster.Config{
		Sites:            cfg.Sites,
		Items:            cfg.Items,
		Replicas:         cfg.Replicas,
		Placement:        policy,
		DataSites:        cfg.DataSites,
		Shards:           cfg.Shards,
		InitialValue:     cfg.InitialValue,
		Seed:             cfg.Seed,
		Record:           true,
		Durability:       durability,
		Quorum:           quorum,
		ReplPeriodMicros: cfg.ReplPullPeriod.Microseconds(),
		Latency: engine.UniformLatency{
			MinMicros:   cfg.NetDelayMin.Microseconds(),
			MaxMicros:   cfg.NetDelayMax.Microseconds(),
			LocalMicros: 50,
		},
		QM: qm.Options{
			DisableSemiLocks:  cfg.DisableSemiLocks,
			StatsPeriodMicros: 100_000,
			MaxQueueDepth:     cfg.MaxQueueDepth,
		},
		RI: ri.Options{
			PAIntervalMicros:        model.Timestamp(cfg.PAInterval.Microseconds()),
			RestartDelayMicros:      cfg.RestartDelay.Microseconds(),
			RestartDelayCapMicros:   cfg.RestartDelayCap.Microseconds(),
			DefaultComputeMicros:    1000,
			SwitchOnRestart:         escalation(cfg.EscalateRestartsToPA),
			SnapshotStalenessMicros: cfg.SnapshotStaleness.Microseconds(),
			DisableROFastPath:       cfg.DisableReadOnlyFastPath,
			MaxAttempts:             cfg.MaxAttempts,
			Admission: ri.AdmissionOptions{
				Enabled:             cfg.Admission,
				InitialWindow:       cfg.AdmissionWindow,
				TokensPerSec:        cfg.AdmissionRate,
				TargetLatencyMicros: cfg.AdmissionTargetLatency.Microseconds(),
			},
		},
		Detector: deadlock.Options{
			PeriodMicros:  cfg.DeadlockPeriod.Microseconds(),
			PersistRounds: 2,
		},
		Collector: metrics.CollectorOptions{EstimatePeriodMicros: 100_000},
		Choose:    choose,
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{cfg: cfg, inner: inner, dyn: dyn}, nil
}

// Workload attaches a generated workload to every site. Call before Run.
func (c *Cluster) Workload(w Workload) error {
	if c.ran {
		return fmt.Errorf("ucc: cluster already ran")
	}
	if w.Rate <= 0 {
		w.Rate = 20
	}
	if w.Duration <= 0 {
		w.Duration = 2 * time.Second
	}
	if w.Size <= 0 {
		w.Size = 4
	}
	if w.ReadFrac < 0 {
		w.ReadFrac = 0 // AllWrites sentinel: a genuine 0% read share
	} else if w.ReadFrac == 0 {
		w.ReadFrac = 0.6 // unset: the documented default
	}
	if w.Mix == (Mix{}) {
		w.Mix = Mix{PA: 1}
	}
	if w.Compute <= 0 {
		w.Compute = time.Millisecond
	}
	c.wl = &w
	spec := workload.Spec{
		ArrivalPerSec: w.Rate,
		ClosedLoop:    w.Concurrency,
		HorizonMicros: w.Duration.Microseconds(),
		Items:         c.cfg.Items,
		Size:          w.Size,
		ROSize:        w.ReadOnlySize,
		ReadFrac:      w.ReadFrac,
		Share2PL:      w.Mix.TwoPL,
		ShareTO:       w.Mix.TO,
		SharePA:       w.Mix.PA,
		ShareRO:       w.Mix.ReadOnly,
		ComputeMicros: w.Compute.Microseconds(),
	}
	if w.Hotspot > 0 {
		spec.Access = workload.AccessHotspot
		spec.HotItems = w.Hotspot
		spec.HotFrac = 0.8
	}
	for s := 0; s < c.cfg.Sites; s++ {
		if err := c.inner.AddDriver(model.SiteID(s), spec); err != nil {
			return err
		}
	}
	return nil
}

// Submit injects one hand-built transaction (see NewTxn). Submitted
// transactions run alongside any attached workload when Run is called.
func (c *Cluster) Submit(t *Txn) {
	c.inner.Submit(t.inner)
}

// CrashSite schedules a site crash `at` into the simulated run: the site's
// volatile store and any unsynced WAL tail are destroyed, and the site
// defers all traffic until RecoverSite. Requires Config.Durability. Call
// before Run.
func (c *Cluster) CrashSite(site int, at time.Duration) {
	c.inner.CrashSite(model.SiteID(site), at.Microseconds())
}

// RecoverSite schedules the site's recovery `at` into the simulated run:
// its partition is rebuilt from the durable snapshot plus WAL replay, then
// traffic deferred during the outage is processed in order. Call before Run.
func (c *Cluster) RecoverSite(site int, at time.Duration) {
	c.inner.RecoverSite(model.SiteID(site), at.Microseconds())
}

// MoveItems schedules an online rebalance `at` into the simulated run: a new
// partition-map epoch making `to` the primary owner of items is published to
// every site, the old owners drain their in-flight transactions and
// snapshot-transfer the item state, and stale routers are corrected by
// wrong-epoch NAKs carrying the new map. Call before Run.
func (c *Cluster) MoveItems(items []ItemID, to int, at time.Duration) error {
	return c.inner.MoveItems(at.Microseconds(), items, model.SiteID(to))
}

// AddSite schedules site's entry into the active placement `at` into the
// simulated run: a new epoch assigns it a share of items, seeded by snapshot
// transfer from the current owners. Pair with Config.DataSites to start the
// site empty. Call before Run.
func (c *Cluster) AddSite(site int, at time.Duration) error {
	return c.inner.AddSite(at.Microseconds(), model.SiteID(site))
}

// DrainSite schedules site's removal from the active placement `at` into the
// simulated run: surviving copies are promoted, replacement copies are
// seeded elsewhere, and the site keeps serving until each item's in-flight
// transactions drain. Call before Run.
func (c *Cluster) DrainSite(site int, at time.Duration) error {
	return c.inner.DrainSite(at.Microseconds(), model.SiteID(site))
}

// SubmitAt injects a transaction that arrives `at` into the simulated run
// (Submit arrives at time zero; staggering arrivals gives meaningful system
// times).
func (c *Cluster) SubmitAt(t *Txn, at time.Duration) {
	c.inner.Eng.PostAfter(at.Microseconds(),
		engineRIAddr(t.inner.ID.Site), model.SubmitTxnMsg{Txn: t.inner})
}

// NewTxn builds a transaction issued at the given site.
func (c *Cluster) NewTxn(site int, p Protocol) *Txn {
	c.seq++
	return &Txn{
		cluster: c,
		inner: &model.Txn{
			ID:       model.TxnID{Site: model.SiteID(site), Seq: c.seq},
			Protocol: p,
		},
	}
}

// Run executes everything to quiescence and returns the results.
func (c *Cluster) Run() Result {
	c.ran = true
	horizon := int64(0)
	if c.wl != nil {
		horizon = c.wl.Duration.Microseconds()
	}
	// Mallocs delta across the run feeds Result.AllocsPerCommittedTxn. The
	// counter is process-wide, so concurrent non-cluster work inflates it —
	// acceptable for a facade-level observability number (benchmarks run one
	// cluster at a time).
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := c.inner.Run(horizon, 2_000_000)
	runtime.ReadMemStats(&after)
	return Result{inner: res, cl: c.inner, dyn: c.dyn, allocs: after.Mallocs - before.Mallocs}
}

// Value returns the current value of an item's primary copy (after Run),
// resolved against the cluster's current partition map — after a rebalance
// that is the new owner. If the primary site is still crashed (CrashSite
// without RecoverSite), the first surviving replica answers instead.
func (c *Cluster) Value(item ItemID) int64 {
	for _, s := range c.inner.CurrentMap().Replicas(item) {
		if st := c.inner.Stores[s]; st.Has(item) {
			v, _ := st.Read(item)
			return v
		}
	}
	panic(fmt.Sprintf("ucc: no live copy of %v (every replica site crashed and unrecovered)", item))
}

// ReplicaValues returns the current value of every live physical copy of
// item, primary first (after Run; replica-divergence checks). Copies on
// sites still crashed at the end of the run are skipped.
func (c *Cluster) ReplicaValues(item ItemID) []int64 {
	return c.inner.ReplicaValues(model.ItemID(item))
}

func engineRIAddr(s model.SiteID) engine.Addr { return engine.RIAddr(s) }

// escalation returns the §6(4) restart-protocol policy: T/O transactions
// switch to PA after two rejected attempts.
func escalation(enabled bool) func(model.Protocol, int) model.Protocol {
	if !enabled {
		return nil
	}
	return func(cur model.Protocol, failedAttempts int) model.Protocol {
		if cur == model.TO && failedAttempts >= 2 {
			return model.PA
		}
		return cur
	}
}

// Txn is a fluent transaction builder.
type Txn struct {
	cluster *Cluster
	inner   *model.Txn
}

// Read adds items to the read set.
func (t *Txn) Read(items ...ItemID) *Txn {
	t.inner.ReadSet = append(t.inner.ReadSet, items...)
	return t
}

// Write adds items to the write set (installing pre-image+1 unless a Set or
// Add spec overrides it).
func (t *Txn) Write(items ...ItemID) *Txn {
	t.inner.WriteSet = append(t.inner.WriteSet, items...)
	return t
}

// Set makes the write phase install a constant value for item.
func (t *Txn) Set(item ItemID, value int64) *Txn {
	t.inner.WriteSet = append(t.inner.WriteSet, item)
	t.inner.Specs = append(t.inner.Specs, model.WriteSpec{Item: item, AddConst: value})
	return t
}

// Add makes the write phase install read(source)+delta for item (transfer
// and increment patterns).
func (t *Txn) Add(item ItemID, source ItemID, delta int64) *Txn {
	t.inner.WriteSet = append(t.inner.WriteSet, item)
	t.inner.Specs = append(t.inner.Specs, model.WriteSpec{
		Item: item, UseSource: true, Source: source, AddConst: delta,
	})
	return t
}

// Compute sets the local computing phase duration.
func (t *Txn) Compute(d time.Duration) *Txn {
	t.inner.ComputeMicros = d.Microseconds()
	return t
}

// Class labels the transaction for per-class STL caching.
func (t *Txn) Class(name string) *Txn {
	t.inner.Class = name
	return t
}

// Build normalizes the transaction (dedup, overlap → write set) and returns
// it for Submit.
func (t *Txn) Build() *Txn {
	n := model.NewTxn(t.inner.ID, t.inner.Protocol, t.inner.ReadSet, t.inner.WriteSet, t.inner.ComputeMicros)
	n.Specs = t.inner.Specs
	n.Class = t.inner.Class
	t.inner = n
	return t
}

// ID returns the transaction id.
func (t *Txn) ID() TxnID { return t.inner.ID }
