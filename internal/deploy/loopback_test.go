package deploy

import (
	"fmt"
	"reflect"
	"sync"
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
// wire would strand its entry there. "durable write-all" runs the catch-up
// plane beside write-all replication (no Quorum). In "durable quorum, dead
// peer" site 2's node is closed before traffic starts: the transport NAKs
// every request to it busy, the quorum excludes the dead copy and hedges
// the spare in, and every transaction of the live sites' drivers commits.
// With no site dead, no node drops an envelope.
func TestLoopbackSites(t *testing.T) {
	for _, c := range loopbackCases() {
		t.Run(c.name, func(t *testing.T) { runLoopback(t, c.cfg(t), c.dead, nil) })
	}
}

// TestLoopbackDeliveryForms runs TestLoopbackSites' deployments with every
// issuer and queue manager wrapped: over TCP as in the simulator, each must
// receive every message in its one delivery form — never a single per-copy
// message (a batch of one decodes as the batch), never the value of a type
// that travels pooled — and each run must still pass its checks.
func TestLoopbackDeliveryForms(t *testing.T) {
	for _, c := range loopbackCases() {
		t.Run(c.name, func(t *testing.T) {
			forms := &formCheck{off: map[string]int{}}
			runLoopback(t, c.cfg(t), c.dead, forms)
			forms.mu.Lock()
			defer forms.mu.Unlock()
			if len(forms.off) != 0 {
				t.Fatalf("issuers and queue managers received messages in another form: %v", forms.off)
			}
		})
	}
}

// loopbackCase is one deployment the loopback tests run: cfg builds its
// configuration (a durable one in the test's own directory), and dead is
// the site whose node is closed before traffic starts, or -1.
type loopbackCase struct {
	name string
	cfg  func(t *testing.T) Config
	dead model.SiteID
}

func loopbackCases() []loopbackCase {
	base := Config{
		Sites: 3, Items: 48,
		QM:       qm.Options{StatsPeriodMicros: 50_000},
		RI:       ri.Options{PAIntervalMicros: 1_000, RestartDelayMicros: 2_000, DefaultComputeMicros: 200},
		Detector: deadlock.Options{PeriodMicros: 20_000, PersistRounds: 2},
	}
	durable := func(q *model.Quorum) func(t *testing.T) Config {
		return func(t *testing.T) Config {
			cfg := base
			cfg.Replicas = 3
			cfg.Durability = &Durability{Dir: t.TempDir()}
			cfg.Quorum = q
			return cfg
		}
	}
	quorum := &model.Quorum{N: 3, W: 2, R: 2}
	return []loopbackCase{
		{"volatile write-all", func(*testing.T) Config {
			cfg := base
			cfg.Replicas = 2
			return cfg
		}, -1},
		{"durable write-all", durable(nil), -1},
		{"durable quorum", durable(quorum), -1},
		{"durable quorum, dead peer", durable(quorum), 2},
	}
}

// formCheck wraps the actors registered with it and counts, by type, the
// messages an issuer or a queue manager receives in a form other than the
// one delivery form.
type formCheck struct {
	mu  sync.Mutex
	off map[string]int
}

// wrap registers a through register, wrapped when it is an issuer or a
// queue manager.
func (f *formCheck) wrap(register func(engine.Addr, engine.Actor)) func(engine.Addr, engine.Actor) {
	return func(addr engine.Addr, a engine.Actor) {
		if addr.Kind == engine.KindRI || addr.Kind == engine.KindQM {
			a = checkedActor{Actor: a, f: f}
		}
		register(addr, a)
	}
}

type checkedActor struct {
	engine.Actor
	f *formCheck
}

func (c checkedActor) OnMessage(ctx engine.Context, from engine.Addr, msg model.Message) {
	if offForm(msg) {
		c.f.mu.Lock()
		c.f.off[fmt.Sprintf("%T", msg)]++
		c.f.mu.Unlock()
	}
	c.Actor.OnMessage(ctx, from, msg)
}

// offForm reports whether msg is a single per-copy message, in either form,
// or the value of a type that travels pooled: one whose pointer
// model.RetainMessage copies. A submit is a value by design (it pools its
// Txn, not its struct).
func offForm(msg model.Message) bool {
	switch msg.(type) {
	case model.RequestMsg, *model.RequestMsg, model.ReleaseMsg, *model.ReleaseMsg,
		model.AbortMsg, *model.AbortMsg, model.GrantMsg, *model.GrantMsg,
		model.SnapReadMsg, *model.SnapReadMsg, model.SnapReadReplyMsg, *model.SnapReadReplyMsg:
		return true
	case model.SubmitTxnMsg:
		return false
	}
	t := reflect.TypeOf(msg)
	if t.Kind() == reflect.Pointer {
		return false
	}
	p := reflect.New(t).Interface().(model.Message)
	kept := model.RetainMessage(p)
	model.RecycleMessage(kept)
	return kept != p
}

// runLoopback runs perSite transactions from each site's driver through a
// loopback deployment of cfg and checks the outcome. A dead site other than
// -1 has its node closed and its runtime shut down before traffic starts;
// it runs no driver, and every transaction of the live sites' drivers must
// commit. A non-nil forms wraps the sites' actors.
func runLoopback(t *testing.T, cfg Config, dead model.SiteID, forms *formCheck) {
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
		register := rt.Register
		if forms != nil {
			register = forms.wrap(register)
		}
		p, err := Site(cfg, s, pmap, nil, nil, register)
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
	// With every site up no node drops an envelope: none is refused as
	// unencodable, so no process-local message is addressed to a peer.
	if dead < 0 {
		for i, n := range nodes {
			if dropped, _ := n.QueueStats(); dropped != 0 {
				t.Errorf("node %d (of %d sites and the client) dropped %d envelopes", i, len(issuer), dropped)
			}
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
