package deploy

import (
	"fmt"
	"path/filepath"
	"slices"

	"ucc/internal/deadlock"
	"ucc/internal/engine"
	"ucc/internal/history"
	"ucc/internal/model"
	"ucc/internal/qm"
	"ucc/internal/repl"
	"ucc/internal/ri"
	"ucc/internal/storage"
	"ucc/internal/wal"
)

// Parts is one assembled site.
type Parts struct {
	Store   *storage.Store
	WAL     *wal.SiteLog // nil without Config.Durability
	Manager *qm.Manager
	Issuer  *ri.Issuer
	// Detector is the system's one deadlock detector; only site 0 hosts it.
	Detector *deadlock.Detector
}

// Site builds site self of a validated cfg on the epoch-0 map pmap and hands
// each actor, complete, to register: the queue manager once per shard, the
// issuer, and on site 0 the deadlock detector. rec and choose may be nil.
// An existing log under Durability.Dir is recovered. No tick is posted:
// call Start once the host can carry traffic.
func Site(cfg Config, self model.SiteID, pmap *model.PartitionMap, rec *history.Recorder,
	choose ri.ChooseFunc, register func(engine.Addr, engine.Actor)) (*Parts, error) {
	p := &Parts{Store: storage.NewStore(self)}
	p.Store.SetChainPolicy(cfg.Chain)
	for _, item := range pmap.CopiesAt(self) {
		p.Store.Create(item, cfg.InitialValue)
	}

	qmOpts := cfg.QM
	qmOpts.Shards = cfg.Shards
	qmOpts.InitialValue = cfg.InitialValue
	if d := cfg.Durability; d != nil {
		var media wal.Media = wal.NewMemMedia()
		if d.Dir != "" {
			m, err := wal.NewDirMedia(filepath.Join(d.Dir, fmt.Sprintf("site%d", self)))
			if err != nil {
				return nil, err
			}
			media = m
		}
		sl, err := wal.Open(media, p.Store, wal.Options{SegmentBytes: d.SegmentBytes, SnapshotEvery: d.SnapshotEvery})
		if err != nil {
			return nil, fmt.Errorf("deploy: site %d wal: %w", self, err)
		}
		p.Store.SetJournal(sl)
		p.WAL = sl
		qmOpts.GroupCommitMicros = d.GroupCommitMicros
	}
	p.Manager = qm.New(self, p.Store, rec, qmOpts)
	if p.WAL != nil {
		p.Manager.SetDurable(p.WAL)
	}
	p.Manager.SetPartitionMap(pmap)
	// Every site pulls the copies it gains at a map install; only catch-up
	// (Config.CatchUp) pulls from peers, and serves from the log.
	var peers []model.SiteID
	var src repl.Source
	if cfg.CatchUp() {
		peers, src = pmap.Sharing(self), p.WAL
	}
	p.Manager.SetReplication(repl.NewPuller(repl.Options{
		Site:         self,
		Peers:        peers,
		PeriodMicros: cfg.ReplPeriodMicros,
		BatchRecords: cfg.ReplBatchRecords,
	}), src)
	// One registration per shard: issuers address per-item traffic to the
	// shard mailbox its item hashes to (QMShardAddr), and the manager routes
	// by content, so this works unchanged whether the engine gives each
	// address a goroutine (runtime) or one event loop serves them all
	// (simulator). Shard 0 is also QMAddr(self), the control address for
	// crash/recovery/probes/ticks.
	for i := 0; i < p.Manager.NumShards(); i++ {
		register(engine.QMShardAddr(self, i), p.Manager)
	}

	riOpts := cfg.RI
	riOpts.QMShards = cfg.Shards
	riOpts.Quorum = cfg.Quorum
	p.Issuer = ri.New(self, pmap, rec, riOpts, choose)
	register(engine.RIAddr(self), p.Issuer)

	if self == 0 {
		p.Detector = deadlock.New(cfg.SiteIDs(), cfg.Detector)
		register(engine.DetectorAddr(), p.Detector)
	}
	return p, nil
}

// Start posts the first tick of every periodic chain the given sites run, in
// a fixed order: the detector's probe rounds (when site 0 is among sites and
// detection is on), then one plain tick to each of hosted (the host's own
// periodic actors, such as the simulator's metrics collector), then each
// site's queue-manager stats push, then each site's catch-up pull chain when
// it runs (Config.CatchUp). Ticks posted at one instant run in posting
// order, and seeded simulator runs depend on this one. post delivers a
// message to a local actor.
func Start(cfg Config, sites []model.SiteID, post func(engine.Addr, model.Message), hosted ...engine.Addr) {
	if cfg.Detector.PeriodMicros > 0 && slices.Contains(sites, 0) {
		post(engine.DetectorAddr(), model.TickMsg{})
	}
	for _, a := range hosted {
		post(a, model.TickMsg{})
	}
	if cfg.QM.StatsPeriodMicros > 0 {
		for _, s := range sites {
			post(engine.QMAddr(s), model.TickMsg{})
		}
	}
	if cfg.CatchUp() {
		for _, s := range sites {
			post(engine.QMAddr(s), model.TickMsg{Tag: qm.ReplTickTag})
		}
	}
}

// Publish broadcasts next as the new partition-map epoch: a MapInstallMsg to
// every queue manager (shard-0 control address) first, so owners flip and
// open their fills, then a MapUpdateMsg to every issuer, so routers
// re-aim — in ascending site order. post must reach remote sites too (on
// the runtime, Runtime.Post: local mailbox or transport uplink).
func Publish(cfg Config, next *model.PartitionMap, post func(engine.Addr, model.Message)) {
	for _, s := range cfg.SiteIDs() {
		post(engine.QMAddr(s), model.MapInstallMsg{Map: *next})
	}
	for _, s := range cfg.SiteIDs() {
		post(engine.RIAddr(s), model.MapUpdateMsg{Map: *next})
	}
}
