package main

import (
	"fmt"
	"time"

	"ucc/internal/deadlock"
	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/placement"
	"ucc/internal/qm"
	"ucc/internal/repl"
	"ucc/internal/ri"
	"ucc/internal/storage"
	"ucc/internal/transport"
	"ucc/internal/wal"
)

// Deployment constants: cmd/uccnode's flag defaults, except computeMicros
// (uccnode hard-codes a 1 ms default computing phase; the benchmark measures
// concurrency control, not a sleep) — see README.md.
const (
	mailboxDepth       = 8192
	queueDepth         = 1024
	sendQueueCap       = 65536
	admissionWindow    = 128
	paIntervalMicros   = 2000
	restartDelayMicros = 10_000
	detectorPeriodUs   = 50_000
	detectorPersist    = 2
	qmStatsPeriodUs    = 200_000
	computeMicros      = 0

	durableReplicas  = 3
	walSyncDelay     = 200 * time.Microsecond
	walSegmentBytes  = 1 << 20
	walSnapshotEvery = 10_000
	replPeriodMicros = 150_000
	replBatchRecords = 512
)

var (
	durableQuorum = model.Quorum{N: 3, W: 2, R: 2}
	walOptions    = wal.Options{SegmentBytes: walSegmentBytes, SnapshotEvery: walSnapshotEvery, GroupCommit: true}
)

// siteNode is one uccnode: a runtime with its queue manager, issuer and (on
// site 0) the deadlock detector, behind its own transport node.
type siteNode struct {
	id     model.SiteID
	rt     *engine.Runtime
	node   *transport.Node
	store  *storage.Store
	mgr    *qm.Manager
	issuer *ri.Issuer
	media  *wal.MemMedia // nil on volatile workloads
	log    *wal.SiteLog
}

// cluster is the whole deployment in one process: three site nodes and the
// client node hosting the load generator, each behind its own loopback TCP
// listener.
type cluster struct {
	w        workload
	pmap     *model.PartitionMap
	sites    [numSites]*siteNode
	detector *deadlock.Detector
	clientRT *engine.Runtime
	client   *transport.Node
	gen      *generator
	tr       *tracer // nil unless this is a traced run
}

// newCluster assembles the deployment cmd/uccnode and cmd/uccclient describe
// and starts its timers. tr may be nil.
func newCluster(w workload, pool *shapePool, tr *tracer) (*cluster, error) {
	c := &cluster{w: w, tr: tr, gen: newGenerator(pool, w.slots)}
	siteIDs := make([]model.SiteID, numSites)
	for i := range siteIDs {
		siteIDs[i] = model.SiteID(i)
	}
	replicas := 1
	if w.durable {
		replicas = durableReplicas
	}
	c.pmap = placement.Build(placement.RoundRobin, numItems, siteIDs, replicas)

	// Every node listens on an ephemeral port, so the peer tables are filled
	// in once all four listeners exist and before any traffic flows.
	peers := map[string]string{}
	topology := func() transport.Topology {
		return transport.Topology{Peers: peers, Assign: transport.StandardAssign("client")}
	}
	for i := range c.sites {
		s, err := c.newSite(model.SiteID(i), siteIDs)
		if err != nil {
			c.close()
			return nil, err
		}
		c.sites[i] = s
		s.node, err = transport.NewNode(s.rt, fmt.Sprintf("site%d", i), "127.0.0.1:0", topology())
		if err != nil {
			c.close()
			return nil, err
		}
		s.node.SetSendQueueCap(sendQueueCap)
	}
	c.clientRT = engine.NewRuntime(engine.FixedLatency{}, 42)
	c.clientRT.Register(engine.CollectorAddr(), tr.wrap(layerBench, -1, c.gen))
	for _, id := range siteIDs {
		c.clientRT.Register(engine.DriverAddr(id), tr.wrap(layerBench, int(id), c.gen))
	}
	var err error
	c.client, err = transport.NewNode(c.clientRT, "client", "127.0.0.1:0", topology())
	if err != nil {
		c.close()
		return nil, err
	}
	c.client.SetSendQueueCap(sendQueueCap)
	for i, s := range c.sites {
		peers[fmt.Sprintf("site%d", i)] = s.node.Addr()
	}
	peers["client"] = c.client.Addr()

	// Start the timer chains uccnode starts: detector probes (site 0), the
	// QM stats push, and the catch-up pulls under quorum replication.
	s0 := c.sites[0]
	s0.rt.Post(engine.Envelope{From: engine.DetectorAddr(), To: engine.DetectorAddr(), Msg: model.TickMsg{}})
	for _, s := range c.sites {
		self := engine.QMAddr(s.id)
		s.rt.Post(engine.Envelope{From: self, To: self, Msg: model.TickMsg{}})
		if w.durable {
			s.rt.Post(engine.Envelope{From: self, To: self, Msg: model.TickMsg{Tag: qm.ReplTickTag}})
		}
	}
	return c, nil
}

func (c *cluster) newSite(self model.SiteID, siteIDs []model.SiteID) (*siteNode, error) {
	s := &siteNode{id: self}
	s.rt = engine.NewRuntime(engine.FixedLatency{}, int64(self)+1)
	s.rt.SetMailboxDepth(mailboxDepth)

	s.store = storage.NewStore(self)
	for _, item := range c.pmap.CopiesAt(self) {
		s.store.Create(item, initialValue)
	}
	qmOpts := qm.Options{
		StatsPeriodMicros: qmStatsPeriodUs,
		Shards:            1,
		MaxQueueDepth:     queueDepth,
		InitialValue:      initialValue,
		// GroupCommitMicros stays 0: sync each write before exposing it.
	}
	if c.w.durable {
		s.media = wal.NewMemMedia()
		s.media.SyncDelay = walSyncDelay
		var err error
		s.log, err = wal.Open(c.tr.media(s.media), s.store, walOptions)
		if err != nil {
			return nil, fmt.Errorf("site %d: open wal: %w", self, err)
		}
		s.store.SetJournal(c.tr.journal(s.log))
	}
	s.mgr = qm.New(self, s.store, nil, qmOpts)
	if s.log != nil {
		s.mgr.SetDurable(c.tr.durable(s.log))
	}
	s.mgr.SetPartitionMap(c.pmap)
	var quorum *model.Quorum
	if c.w.durable {
		q := durableQuorum
		quorum = &q
		var peers []model.SiteID
		for _, p := range siteIDs {
			if p != self {
				peers = append(peers, p) // 3 copies on 3 sites: every site shares items with every other
			}
		}
		s.mgr.SetReplication(repl.NewPuller(repl.Options{
			Site: self, Peers: peers, PeriodMicros: replPeriodMicros, BatchRecords: replBatchRecords,
		}), s.log)
	}
	s.rt.Register(engine.QMShardAddr(self, 0), c.tr.wrap(layerQM, int(self), s.mgr))

	s.issuer = ri.New(self, c.pmap, nil, ri.Options{
		PAIntervalMicros:     paIntervalMicros,
		RestartDelayMicros:   restartDelayMicros,
		DefaultComputeMicros: computeMicros,
		QMShards:             1,
		Quorum:               quorum,
		Admission:            ri.AdmissionOptions{Enabled: true, InitialWindow: admissionWindow},
	}, nil)
	s.issuer.SetNotifyDriver(true)
	s.rt.Register(engine.RIAddr(self), c.tr.wrap(layerRI, int(self), s.issuer))

	if self == 0 {
		c.detector = deadlock.New(siteIDs, deadlock.Options{PeriodMicros: detectorPeriodUs, PersistRounds: detectorPersist})
		s.rt.Register(engine.DetectorAddr(), c.tr.wrap(layerDeadlock, 0, c.detector))
	}
	return s, nil
}

// start opens n closed-loop slots.
func (c *cluster) start(n int) {
	c.gen.setTarget(n)
	self := engine.DriverAddr(0)
	c.clientRT.Post(engine.Envelope{From: self, To: self, Msg: model.TickMsg{}})
}

// waitOutstanding polls until at most n transactions are outstanding and
// every finished one has reported its outcome, or the deadline passes (the
// checks then report what is unfinished).
func (c *cluster) waitOutstanding(n int, deadline time.Duration) {
	for end := time.Now().Add(deadline); time.Now().Before(end); time.Sleep(time.Millisecond) {
		g := c.gen.counts()
		if g.outstanding <= n && g.committed+g.terminalFailed+uint64(g.outstanding) >= g.submitted {
			return
		}
	}
}

// close stops every node and runtime. It deliberately performs no final WAL
// flush: the durability check recovers from exactly what was synced.
func (c *cluster) close() {
	if c.client != nil {
		c.client.Close()
	}
	for _, s := range c.sites {
		if s != nil && s.node != nil {
			s.node.Close()
		}
	}
	if c.clientRT != nil {
		c.clientRT.Shutdown()
	}
	for _, s := range c.sites {
		if s != nil {
			s.rt.Shutdown()
		}
	}
}

// checkLive runs the checks that need the cluster up: nothing is unfinished.
func (c *cluster) checkLive() []string {
	var bad []string
	g := c.gen.counts()
	if g.outstanding != 0 {
		bad = append(bad, fmt.Sprintf("unfinished: %d transactions had no terminal event at the drain deadline", g.outstanding))
	}
	if g.strayFins != 0 {
		bad = append(bad, fmt.Sprintf("unfinished: %d finish events for unknown transactions", g.strayFins))
	}
	for _, s := range c.sites {
		if a := s.issuer.Snapshot().Active; a != 0 {
			bad = append(bad, fmt.Sprintf("unfinished: issuer %d still has %d active transactions", s.id, a))
		}
	}
	return bad
}

// checkStopped runs after close. Conservation: every committed write is a
// read-modify-write increment, so each copy must hold the initial value plus
// the number of committed transactions that wrote its item; a lost update or
// a serializability break shows as a miscount. With replication every copy
// must agree, and the same must hold for stores rebuilt from only the bytes
// each site had synced.
func (c *cluster) checkStopped() []string {
	var bad []string
	stores := make([]*storage.Store, numSites)
	for i, s := range c.sites {
		stores[i] = s.store
	}
	bad = append(bad, c.checkCopies("live", stores)...)
	if !c.w.durable {
		return bad
	}
	for i, s := range c.sites {
		s.media.Crash() // discard everything not synced
		fresh := storage.NewStore(s.id)
		if _, err := wal.Open(s.media, fresh, walOptions); err != nil {
			return append(bad, fmt.Sprintf("durability: site %d: recover: %v", s.id, err))
		}
		stores[i] = fresh
	}
	return append(bad, c.checkCopies("recovered", stores)...)
}

func (c *cluster) checkCopies(what string, stores []*storage.Store) []string {
	wrong, first := 0, ""
	for item := 0; item < numItems; item++ {
		id := model.ItemID(item)
		want := int64(initialValue) + int64(c.gen.writes[item])
		for _, site := range c.pmap.Replicas(id) {
			st := stores[site]
			if !st.Has(id) {
				wrong++
				if first == "" {
					first = fmt.Sprintf("%v missing at site %d", id, site)
				}
				continue
			}
			if got, _ := st.Read(id); got != want {
				wrong++
				if first == "" {
					first = fmt.Sprintf("%v at site %d holds %d, want %d", id, site, got, want)
				}
			}
		}
	}
	if wrong == 0 {
		return nil
	}
	return []string{fmt.Sprintf("conservation (%s stores): %d copies wrong, first: %s", what, wrong, first)}
}
