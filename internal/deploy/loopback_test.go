package deploy

import (
	"fmt"
	"testing"
	"time"

	"ucc/internal/deadlock"
	"ucc/internal/engine"
	"ucc/internal/metrics"
	"ucc/internal/model"
	"ucc/internal/qm"
	"ucc/internal/ri"
	"ucc/internal/transport"
	"ucc/internal/workload"
)

// TestLoopbackSites assembles three sites the way uccnode does — each on
// its own engine.Runtime behind its own transport.Node on a loopback port —
// plus a client runtime hosting the collector and the drivers, the way
// uccclient does, and drives mixed 2PL/T/O/PA traffic through them. Every
// protocol must commit, and once the traffic has settled every issuer must
// be idle with each submitted transaction accounted for, and every queue
// manager's queues must drain empty: a release or withdrawal lost on the
// wire would strand its entry there. In "durable quorum, dead peer" site
// 2's node is closed before traffic starts: the transport NAKs every
// request to it busy, the quorum excludes the dead copy and hedges the
// spare in, and every transaction of the live sites' drivers commits.
func TestLoopbackSites(t *testing.T) {
	base := Config{
		Sites: 3, Items: 48,
		QM:       qm.Options{StatsPeriodMicros: 50_000},
		RI:       ri.Options{PAIntervalMicros: 1_000, RestartDelayMicros: 2_000, DefaultComputeMicros: 200},
		Detector: deadlock.Options{PeriodMicros: 20_000, PersistRounds: 2},
	}
	t.Run("volatile write-all", func(t *testing.T) {
		cfg := base
		cfg.Replicas = 2
		runLoopback(t, cfg, -1)
	})
	t.Run("durable quorum", func(t *testing.T) {
		cfg := base
		cfg.Replicas = 3
		cfg.Durability = &Durability{Dir: t.TempDir()}
		cfg.Quorum = &model.Quorum{N: 3, W: 2, R: 2}
		runLoopback(t, cfg, -1)
	})
	t.Run("durable quorum, dead peer", func(t *testing.T) {
		cfg := base
		cfg.Replicas = 3
		cfg.Durability = &Durability{Dir: t.TempDir()}
		cfg.Quorum = &model.Quorum{N: 3, W: 2, R: 2}
		runLoopback(t, cfg, 2)
	})
}

// runLoopback runs perSite transactions from each site's driver through a
// loopback deployment of cfg and checks the outcome. A dead site other than
// -1 has its node closed and its runtime shut down before traffic starts;
// it runs no driver, and every transaction of the live sites' drivers must
// commit.
func runLoopback(t *testing.T, cfg Config, dead model.SiteID) {
	const perSite = 100
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	pmap := cfg.InitialMap()
	// Every node listens on an ephemeral port, so the shared peer table is
	// filled in once all listeners exist and before any traffic flows.
	peers := map[string]string{}
	topo := transport.Topology{Peers: peers, Assign: transport.StandardAssign("client")}
	var (
		rts    []*engine.Runtime
		nodes  []*transport.Node
		issuer []*ri.Issuer
		mgrs   []*qm.Manager
	)
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
		for _, rt := range rts {
			rt.Shutdown()
		}
	}()
	listen := func(rt *engine.Runtime, name string) {
		rts = append(rts, rt)
		n, err := transport.NewNode(rt, name, "127.0.0.1:0", topo)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		peers[name] = n.Addr()
	}
	for _, s := range cfg.SiteIDs() {
		rt := engine.NewRuntime(engine.FixedLatency{}, int64(s)+1)
		p, err := Site(cfg, s, pmap, nil, nil, rt.Register)
		if err != nil {
			t.Fatal(err)
		}
		issuer, mgrs = append(issuer, p.Issuer), append(mgrs, p.Manager)
		listen(rt, fmt.Sprintf("site%d", s))
	}
	client := engine.NewRuntime(engine.FixedLatency{}, 42)
	collector := metrics.NewCollector(metrics.CollectorOptions{})
	client.Register(engine.CollectorAddr(), collector)
	for _, s := range cfg.SiteIDs() {
		d, err := workload.NewDriver(s, workload.Spec{
			ArrivalPerSec: 400, MaxTxns: perSite, Items: cfg.Items, Size: 3, ReadFrac: 0.5,
			Share2PL: 1, ShareTO: 1, SharePA: 1, ComputeMicros: 200,
		})
		if err != nil {
			t.Fatal(err)
		}
		client.Register(engine.DriverAddr(s), d)
	}
	listen(client, "client")
	if dead >= 0 {
		nodes[dead].Close()
		rts[dead].Shutdown()
	}

	live := func(s model.SiteID) bool { return s != dead }
	for i, s := range cfg.SiteIDs() {
		if !live(s) {
			continue
		}
		rt := rts[i]
		Start(cfg, []model.SiteID{s}, func(to engine.Addr, m model.Message) {
			rt.Post(engine.Envelope{From: to, To: to, Msg: m})
		})
		client.Post(engine.Envelope{From: engine.DriverAddr(s), To: engine.DriverAddr(s), Msg: model.TickMsg{}})
	}

	want := uint64(0)
	for _, s := range cfg.SiteIDs() {
		if live(s) {
			want += perSite
		}
	}
	var tot ri.Stats
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		tot = ri.Stats{}
		for i, iss := range issuer {
			if !live(model.SiteID(i)) {
				continue
			}
			st := iss.Snapshot()
			tot.Submitted += st.Submitted
			tot.Active += st.Active
		}
		if tot.Submitted == want && tot.Active == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("not settled: %d of %d submitted, %d active", tot.Submitted, want, tot.Active)
		}
	}
	var excluded, hedged uint64
	for i, iss := range issuer {
		if !live(model.SiteID(i)) {
			continue
		}
		st := iss.Snapshot()
		excluded, hedged = excluded+st.QuorumExcluded, hedged+st.QuorumHedged
		if dead >= 0 && st.Committed != st.Submitted {
			t.Errorf("site %d: committed %d of %d with site %d dead (shed %d, dropped %d)",
				i, st.Committed, st.Submitted, dead, st.Shed, st.Dropped)
		}
		if st.Active != 0 {
			t.Errorf("site %d: %d active after settling", i, st.Active)
		}
		if done := st.Committed + st.Shed + st.ROBusyShed + st.Dropped; done != st.Submitted {
			t.Errorf("site %d: submitted %d != committed %d + shed %d + RO busy-shed %d + dropped %d",
				i, st.Submitted, st.Committed, st.Shed, st.ROBusyShed, st.Dropped)
		}
	}
	if dead >= 0 && (excluded == 0 || hedged == 0) {
		t.Errorf("site %d dead: %d copies excluded and %d attempts hedged, want both nonzero", dead, excluded, hedged)
	}
	// The last releases and withdrawals may still be on the wire when the
	// issuers go idle.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		site, item, depth := queuedEntry(mgrs, cfg.Items, dead)
		if depth == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("site %d: item %d keeps %d queue entries after the issuers settled", site, item, depth)
		}
	}
	sum := collector.Summarize()
	for _, p := range model.Protocols {
		if sum.Protocols[p].Committed == 0 {
			t.Errorf("%v: nothing committed", p)
		}
	}
}

// queuedEntry returns a site, an item and its queue depth there, the depth
// nonzero when any of the managers but the dead site's still queues an
// entry for any item.
func queuedEntry(mgrs []*qm.Manager, items int, dead model.SiteID) (site, item, depth int) {
	for s, m := range mgrs {
		if model.SiteID(s) == dead {
			continue
		}
		for i := 0; i < items; i++ {
			if d := m.QueueDepth(model.ItemID(i)); d != 0 {
				return s, i, d
			}
		}
	}
	return 0, 0, 0
}
