package deadlock

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"ucc/internal/engine"
	"ucc/internal/model"
)

// Options configure the detector.
type Options struct {
	// PeriodMicros is the probe period; <=0 disables detection.
	PeriodMicros int64
	// PersistRounds is how many consecutive rounds a cycle must appear in
	// before a victim is chosen (default 2).
	PersistRounds int
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{PeriodMicros: 50_000, PersistRounds: 2}
}

// Stats snapshot of detector activity.
type Stats struct {
	Rounds          uint64
	CyclesSeen      uint64 // non-trivial SCCs observed (incl. transient)
	TransientCycles uint64 // cycles that disappeared before persisting
	No2PLCycles     uint64 // persistent-candidate cycles without a 2PL member
	Victims         uint64
	// PartialRounds counts rounds analyzed without every site's report — a
	// crashed or partitioned site defers its probe, and deadlocks among the
	// live sites must still be broken during the outage.
	PartialRounds uint64
}

// Detector is the coordinator actor.
type Detector struct {
	mu      sync.Mutex
	opts    Options
	qmSites []model.SiteID

	round    uint64
	expect   map[model.SiteID]bool
	edges    []model.WaitEdge
	lastSeen map[string]int // cycle fingerprint → consecutive rounds seen
	// victims remembers attempts already told to abort, keyed by
	// (transaction, attempt): a restarted attempt that deadlocks again is a
	// fresh victim candidate (keying by transaction alone would make a
	// cycle of ex-victims unbreakable).
	victims map[victimKey]bool

	// drainMode keeps the detector probing after StopMsg until a probe
	// round reports zero edges (so residual deadlocks are still resolved
	// while the system drains), then stops re-arming so the engine can
	// quiesce.
	drainMode bool
	idle      bool

	// Per-round scratch, kept so a round allocates nothing once it has
	// grown: the graph, and the cycles seen and attempts still waiting.
	graph wfg
	seen  map[string]bool
	live  map[victimKey]bool

	stats Stats
}

type victimKey struct {
	txn     model.TxnID
	attempt model.Attempt
}

// New creates a detector probing the given QM sites.
func New(qmSites []model.SiteID, opts Options) *Detector {
	if opts.PersistRounds <= 0 {
		opts.PersistRounds = 2
	}
	return &Detector{
		opts:     opts,
		qmSites:  qmSites,
		expect:   map[model.SiteID]bool{},
		lastSeen: map[string]int{},
		victims:  map[victimKey]bool{},
		graph:    wfg{index: map[model.TxnID]int32{}},
		seen:     map[string]bool{},
		live:     map[victimKey]bool{},
	}
}

// Snapshot returns detector statistics.
func (d *Detector) Snapshot() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// OnMessage implements engine.Actor. The cluster posts the first TickMsg.
func (d *Detector) OnMessage(ctx engine.Context, from engine.Addr, msg model.Message) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch v := msg.(type) {
	case model.TickMsg:
		d.probe(ctx)
	case *model.WFGReportMsg:
		// Pooled; the delivery layer recycles it.
		d.onReport(ctx, *v)
	case model.StopMsg:
		d.drainMode = true
	default:
		panic(fmt.Sprintf("deadlock: unexpected message %T", msg))
	}
}

func (d *Detector) probe(ctx engine.Context) {
	if d.opts.PeriodMicros <= 0 || (d.drainMode && d.idle) {
		return
	}
	if d.round > 0 && len(d.expect) > 0 && len(d.edges) > 0 {
		// The round timed out with sites still silent — a crashed site
		// defers its probe until recovery. Analyze the partial graph from
		// the sites that did answer instead of never analyzing: a 2PL
		// deadlock among live sites must still be broken mid-outage (under
		// quorum replication the live sites keep committing, so a frozen
		// detector would turn one dead site into an unbounded 2PL stall).
		// Edges at the silent site are invisible, which can only delay a
		// cycle spanning it, never misidentify one among the reporters.
		d.stats.PartialRounds++
		d.analyze(ctx)
	}
	d.round++
	d.stats.Rounds++
	clear(d.expect)
	d.edges = d.edges[:0]
	for _, s := range d.qmSites {
		d.expect[s] = true
		ctx.Send(engine.QMAddr(s), model.PooledProbeWFG(model.ProbeWFGMsg{Round: d.round}))
	}
	ctx.SetTimer(d.opts.PeriodMicros, model.TickMsg{})
}

func (d *Detector) onReport(ctx engine.Context, v model.WFGReportMsg) {
	if v.Round != d.round || !d.expect[v.From] {
		return // late report from a superseded round
	}
	delete(d.expect, v.From)
	d.edges = append(d.edges, v.Edges...)
	if len(d.expect) == 0 {
		d.analyze(ctx)
	}
}

// analyze builds the global wait-for graph, finds non-trivial SCCs, and
// victimizes cycles that persisted for PersistRounds rounds.
func (d *Detector) analyze(ctx engine.Context) {
	d.idle = len(d.edges) == 0
	g := &d.graph
	g.build(d.edges)
	g.findSCCs()
	clear(d.seen)
	for i, start := range g.sccStart {
		scc := g.sccs[start:g.sccEnd(i)]
		if len(scc) < 2 {
			continue
		}
		d.stats.CyclesSeen++
		members := make([]model.TxnID, len(scc))
		has2PL := false
		for i, v := range scc {
			members[i] = g.nodes[v]
			has2PL = has2PL || g.is2PL[v]
		}
		fp := fingerprint(members)
		d.seen[fp] = true
		d.lastSeen[fp]++
		if d.lastSeen[fp] < d.opts.PersistRounds {
			continue
		}
		// Persistent cycle: pick the youngest 2PL member as victim.
		slices.SortFunc(members, model.TxnID.Compare)
		if !has2PL {
			// Corollary 2 says this cannot be a genuine deadlock; it must
			// resolve on its own. Count and keep watching.
			d.stats.No2PLCycles++
			continue
		}
		victim, victimAttempt, issuer := model.TxnID{}, model.Attempt(0), model.SiteID(0)
		for i := range members {
			m := members[len(members)-1-i] // youngest first
			v := g.index[m]
			if !g.is2PL[v] || g.waits[v] < 0 {
				continue // can only abort a 2PL member seen waiting
			}
			e := d.edges[g.waits[v]]
			if d.victims[victimKey{txn: m, attempt: e.WaiterSeq}] {
				continue // this attempt was already told to abort
			}
			victim, victimAttempt, issuer = m, e.WaiterSeq, e.WaiterIssuer
			break
		}
		if victim.IsZero() {
			continue // every eligible member's abort is already in flight
		}
		d.victims[victimKey{txn: victim, attempt: victimAttempt}] = true
		d.stats.Victims++
		ctx.Send(engine.RIAddr(issuer), model.VictimMsg{
			Txn: victim, Attempt: victimAttempt, Cycle: members,
		})
		delete(d.lastSeen, fp)
	}
	// Cycles that vanished were transient; forget them.
	for fp := range d.lastSeen {
		if !d.seen[fp] {
			d.stats.TransientCycles++
			delete(d.lastSeen, fp)
		}
	}
	// Forget victim attempts that no longer appear as waiters (their aborts
	// landed, or the attempt was superseded by a restart).
	clear(d.live)
	for _, e := range d.edges {
		d.live[victimKey{txn: e.Waiter, attempt: e.WaiterSeq}] = true
	}
	for k := range d.victims {
		if !d.live[k] {
			delete(d.victims, k)
		}
	}
}

func fingerprint(scc []model.TxnID) string {
	ids := make([]string, len(scc))
	for i, t := range scc {
		ids[i] = t.String()
	}
	sort.Strings(ids)
	return strings.Join(ids, ",")
}

// wfg is one round's global wait-for graph, in arrays the detector keeps
// across rounds. Nodes are the transactions on any edge, numbered in
// ascending TxnID order, and each node's arcs are in ascending order of the
// node they lead to, so the SCCs come out in the same order every run.
type wfg struct {
	nodes []model.TxnID
	index map[model.TxnID]int32
	// arcs holds every distinct (waiter, holder) pair, sorted; a node's arcs
	// are arcs[first[v]:first[v+1]].
	arcs  []arc
	first []int32
	// waits is the index in the round's edges of the first edge with the
	// node as its waiter (-1 for none); is2PL is whether the node is a 2PL
	// transaction, as the round's edges said last.
	waits []int32
	is2PL []bool

	// Tarjan's state, and its output: the SCCs' members concatenated in
	// the order found, SCC i starting at sccs[sccStart[i]].
	order, low []int32 // order -1: not visited yet
	onStack    []bool
	stack      []int32
	visited    int32
	sccs       []int32
	sccStart   []int32
}

type arc struct{ from, to int32 }

// sccEnd returns where SCC i ends in g.sccs.
func (g *wfg) sccEnd(i int) int32 {
	if i+1 < len(g.sccStart) {
		return g.sccStart[i+1]
	}
	return int32(len(g.sccs))
}

// build makes g the graph of edges.
func (g *wfg) build(edges []model.WaitEdge) {
	clear(g.index)
	g.nodes = g.nodes[:0]
	for _, e := range edges {
		for _, t := range [2]model.TxnID{e.Waiter, e.Holder} {
			if _, ok := g.index[t]; !ok {
				g.index[t] = 0
				g.nodes = append(g.nodes, t)
			}
		}
	}
	slices.SortFunc(g.nodes, model.TxnID.Compare)
	for i, t := range g.nodes {
		g.index[t] = int32(i)
	}
	n := len(g.nodes)
	g.waits = resize(g.waits, n, -1)
	g.is2PL = resize(g.is2PL, n, false)
	g.arcs = g.arcs[:0]
	for i, e := range edges {
		w, h := g.index[e.Waiter], g.index[e.Holder]
		g.arcs = append(g.arcs, arc{w, h})
		if g.waits[w] < 0 {
			g.waits[w] = int32(i)
		}
		g.is2PL[w] = e.Waiter2PL
		if e.Holder2PL {
			g.is2PL[h] = true
		}
	}
	slices.SortFunc(g.arcs, func(a, b arc) int {
		if a.from != b.from {
			return int(a.from - b.from)
		}
		return int(a.to - b.to)
	})
	g.arcs = slices.Compact(g.arcs)
	g.first = resize(g.first, n+1, 0)
	for _, a := range g.arcs {
		g.first[a.from+1]++
	}
	for v := 0; v < n; v++ {
		g.first[v+1] += g.first[v]
	}
}

// findSCCs runs Tarjan's algorithm over g, visiting nodes and arcs in
// ascending order.
func (g *wfg) findSCCs() {
	n := len(g.nodes)
	g.order = resize(g.order, n, -1)
	g.low = resize(g.low, n, 0)
	g.onStack = resize(g.onStack, n, false)
	g.stack, g.sccs, g.sccStart = g.stack[:0], g.sccs[:0], g.sccStart[:0]
	g.visited = 0
	for v := int32(0); v < int32(n); v++ {
		if g.order[v] < 0 {
			g.strongConnect(v)
		}
	}
}

func (g *wfg) strongConnect(v int32) {
	g.order[v], g.low[v] = g.visited, g.visited
	g.visited++
	g.stack = append(g.stack, v)
	g.onStack[v] = true
	for _, a := range g.arcs[g.first[v]:g.first[v+1]] {
		w := a.to
		if g.order[w] < 0 {
			g.strongConnect(w)
			g.low[v] = min(g.low[v], g.low[w])
		} else if g.onStack[w] {
			g.low[v] = min(g.low[v], g.order[w])
		}
	}
	if g.low[v] != g.order[v] {
		return
	}
	g.sccStart = append(g.sccStart, int32(len(g.sccs)))
	for {
		w := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		g.onStack[w] = false
		g.sccs = append(g.sccs, w)
		if w == v {
			return
		}
	}
}

// resize returns s with length n, every element set to fill, reusing its
// array when it has room.
func resize[E any](s []E, n int, fill E) []E {
	s = slices.Grow(s[:0], n)[:n]
	for i := range s {
		s[i] = fill
	}
	return s
}
