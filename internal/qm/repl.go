package qm

import (
	"fmt"

	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/repl"
	"ucc/internal/wal"
)

// ReplTickTag is the TickMsg.Tag of the periodic pull timer (the stats tick
// keeps the zero tag). It is armed while catch-up runs or a fill is open:
// the cluster posts the first tagged tick of catch-up, a map install that
// opens a fill arms it if it is not armed, and the manager re-arms it.
const ReplTickTag = 1

// ReplSettleTickTag is the TickMsg.Tag of a one-shot settle round: one pull
// to every catch-up peer and one per open fill, with no timer re-arm, posted
// by the cluster after the main drain so writes that committed while the
// periodic chain was already stopped still ship, and fills still finish,
// before the run is summarized. It ignores replStopped for exactly that
// reason.
const ReplSettleTickTag = 2

// SetReplication attaches the log-shipping plane: the puller that tracks
// this site's pulls, and the source (the site's wal.SiteLog) catch-up pulls
// and fills are served from. A nil source means no catch-up: the site
// serves fills from an image of its store. Call before the engine starts
// delivering messages; the cluster posts the first catch-up tick.
func (m *Manager) SetReplication(p *repl.Puller, src repl.Source) {
	m.puller = p
	m.replSrc = src
}

// ReplWatermarks returns a copy of the per-peer catch-up watermarks (nil
// when catch-up is not configured) — the convergence probe the cluster and
// the experiments assert on.
func (m *Manager) ReplWatermarks() map[model.SiteID]uint64 {
	m.ctlMu.Lock()
	defer m.ctlMu.Unlock()
	if m.replSrc == nil {
		return nil
	}
	return m.puller.Watermarks()
}

// FillsOpen reports whether a copy this site gained is still being filled
// (the cluster's settle loop runs until no site has a fill open).
func (m *Manager) FillsOpen() bool {
	m.ctlMu.Lock()
	defer m.ctlMu.Unlock()
	return m.puller.FillsOpen()
}

// armReplTick arms the pull tick unless it is armed already, the run is
// stopping, or there is nothing to pull. Caller holds ctlMu.
func (m *Manager) armReplTick(ctx engine.Context) {
	if m.replTickArmed || m.replStopped || (len(m.puller.Peers()) == 0 && !m.puller.FillsOpen()) {
		return
	}
	m.replTickArmed = true
	ctx.SetTimer(m.puller.TickMicros(), model.TickMsg{Tag: ReplTickTag})
}

// onReplTick sends one catch-up pull to the next peer in the round robin,
// re-pulls every open fill (a NotReady answer or a lost pull resolves
// here), and re-arms the timer for the next, so each peer is pulled once
// per period and the pulls of one period are spread across it: a write
// that missed this site ships from the first holder pulled, and the pull to
// the second already names it. The timer chain keeps running through an
// outage (a down site neither pulls nor serves, but must resume pulling the
// moment it recovers — catch-up after the crash is the whole point).
func (m *Manager) onReplTick(ctx engine.Context) {
	m.ctlMu.Lock()
	defer m.ctlMu.Unlock()
	m.replTickArmed = false
	m.armReplTick(ctx)
	if !m.replTickArmed || m.Down() {
		return
	}
	// Only the periodic pulls carry the journal digest: what this site
	// journaled since its previous pull to that peer.
	if peer, pull, ok := m.puller.NextPull(m.replSrc, m.pmap.Load()); ok {
		ctx.Send(engine.QMAddr(peer), model.PooledReplPull(pull))
	}
	m.sendFillPulls(ctx)
}

// onReplSettle sends one pull to every catch-up peer and every open fill
// without re-arming anything — the drain-time convergence sweep. Safe to
// post repeatedly; each post is one round.
func (m *Manager) onReplSettle(ctx engine.Context) {
	m.ctlMu.Lock()
	defer m.ctlMu.Unlock()
	if m.Down() {
		return
	}
	for _, peer := range m.puller.Peers() {
		ctx.Send(engine.QMAddr(peer), model.PooledReplPull(m.puller.Pull(peer, 0)))
	}
	m.sendFillPulls(ctx)
}

// sendFillPulls re-pulls every open fill. Caller holds ctlMu.
func (m *Manager) sendFillPulls(ctx engine.Context) {
	for peer, pull := range m.puller.FillPulls() {
		ctx.Send(engine.QMAddr(peer), model.PooledReplPull(pull))
	}
}

// onReplPull serves one peer's pull from the durable log (a site without
// catch-up serves fills from an image of its store). A catch-up pull is
// served less what that peer is known to hold (repl.Known) and the items
// the installed map gives it no copy of; a fill, only the items of its
// scope, and only once this site has installed the fill's epoch, drained
// every item it lost under it, and filled the scope's items it gained under
// an earlier map — until then the answer is NotReady. That handoff
// discipline makes the flip atomic per item: an item's state is served only
// after the last in-flight transaction's writes are in it, even when the
// item moves again before it has arrived. A down site stays silent — the
// puller simply retries on its tick.
func (m *Manager) onReplPull(ctx engine.Context, v model.ReplPullMsg) {
	m.ctlMu.Lock()
	defer m.ctlMu.Unlock()
	if m.Down() {
		return
	}
	if v.Epoch != 0 {
		if cur := m.pmap.Load(); cur == nil || cur.Epoch < v.Epoch || m.retiringAny() || m.puller.Filling(v.Epoch, v.Scope) {
			ctx.Send(engine.QMAddr(v.From), model.PooledReplRecords(model.ReplRecordsMsg{From: m.site, Epoch: v.Epoch, NotReady: true, Incarnation: v.Incarnation}))
			return
		}
	}
	src := m.replSrc
	if src == nil {
		src = storeSource{m.store}
	}
	batch, ok, err := m.known.Serve(m.site, src, v, m.pmap.Load(), m.puller.BatchRecords(), m.serveFrames[:0])
	if err != nil {
		// The durable log is unreadable on an up site: the same broken
		// contract flushNow panics on.
		panic(fmt.Sprintf("qm: site %d: repl pull from site %d after seq %d: %v", m.site, v.From, v.AfterSeq, err))
	}
	if !ok {
		return // a fill scope that does not decode: no answer, never the whole log
	}
	m.serveFrames = batch.Frames
	m.shards[0].mu.Lock()
	if v.Epoch != 0 {
		m.shards[0].counters.TransferPulls++
	} else {
		m.shards[0].counters.ReplPulls++
	}
	m.shards[0].mu.Unlock()
	// The pooled reply copies the frames out of the scratch they were built in.
	ctx.Send(engine.QMAddr(v.From), model.PooledReplRecords(batch))
}

// onReplRecords replays one shipped batch: each record is applied under the
// owning shard's lock through the store's stamp-gated ApplyShipped (stale
// and duplicate records skip — the idempotence the protocol leans on) and
// parks its item like any journaled write. A record whose writer still holds
// an entry in the copy's queue ends the batch like a tear: it and the rest
// skip, and the watermark stays, so the next pull ships them again. By then
// the writer's release has installed the write at its place in the queue's
// order, or a withdrawal has retired the entry and the record applies (see
// the race envelope in package repl). Every shard is then flushed in
// place so shipped progress is itself durable, and only then does the
// watermark advance. Only one shard lock is ever held at a time, so
// there is no cycle against crash/recovery's lockAll. Every decoded catch-up
// record, installed or not, is durable at its sender and is noted as such,
// so it is never shipped back. A torn batch applies its intact prefix but
// does not advance the watermark — the tail re-ships next period. More (a
// batch cut at the bound, or a Reset image) re-pulls immediately instead of
// waiting out a period per batch, but only when the watermark moved: the
// same pull again would only fetch the same batch again. A reply to a pull
// sent before this site's last crash is dropped whole
// (repl.Puller.Incarnation), and so is a fill's NotReady or a reply to a
// fill no longer open. A fill is done at its first reply with neither More
// nor NotReady: its items open for traffic, and a durable site snapshots so
// the filled state survives a crash without its log tail.
func (m *Manager) onReplRecords(ctx engine.Context, v model.ReplRecordsMsg) {
	m.ctlMu.Lock()
	defer m.ctlMu.Unlock()
	if m.Down() || v.Incarnation != m.puller.Incarnation() {
		return // a down site's applies would be wiped anyway; marks re-zero at crash
	}
	fill := v.Epoch != 0
	if fill && (v.NotReady || !m.puller.FillOpen(v.From, v.Epoch)) {
		return
	}
	live := false
	st := repl.Apply(v.Frames, func(r wal.Record) bool {
		if !fill {
			m.known.Note(v.From, r.Item, r.CommitMicros)
		}
		if live {
			return false
		}
		sh := m.shardFor(r.Item)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		q := m.queue(r.Item)
		if q != nil && q.find(r.Txn) != nil {
			live = true
			return false
		}
		if !m.store.ApplyShipped(r.Item, r.Txn, r.Value, r.CommitMicros) {
			return false
		}
		sh.park(q)
		return true
	})
	// Counted before the flush whose un-park exposes the applies, so a
	// reader who saw a grant the flush sent sees them counted.
	m.shards[0].mu.Lock()
	if c := &m.shards[0].counters; fill {
		c.TransferApplied += uint64(st.Applied)
		c.TransferBytes += uint64(len(v.Frames))
	} else {
		c.ReplApplied += uint64(st.Applied)
		c.ReplSkipped += uint64(st.Skipped)
		if v.Reset {
			c.ReplResets++
		}
	}
	m.shards[0].mu.Unlock()
	m.flushAll(ctx)
	if st.Torn > 0 || live {
		return
	}
	moved := m.puller.Advance(v.From, v.Epoch, v.NextAfterSeq)
	switch {
	case v.More && moved:
		ctx.Send(engine.QMAddr(v.From), model.PooledReplPull(m.puller.Pull(v.From, v.Epoch)))
	case fill && !v.More:
		m.clearPending(m.puller.CloseFill(v.From, v.Epoch))
		if m.dur != nil {
			m.snapshot("after a fill")
		}
	}
}
