package qm

import (
	"fmt"

	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/repl"
	"ucc/internal/wal"
)

// ReplTickTag is the TickMsg.Tag of the periodic pull timer (the stats tick
// keeps the zero tag). The cluster posts the first tagged tick; the manager
// re-arms it.
const ReplTickTag = 1

// ReplSettleTickTag is the TickMsg.Tag of a one-shot settle pull: one fan-out
// to every peer with no timer re-arm, posted by the cluster after the main
// drain so writes that committed while the periodic chain was already
// stopped still ship before the run is summarized. It ignores replStopped
// for exactly that reason.
const ReplSettleTickTag = 2

// SetReplication attaches the log-shipping catch-up plane: the puller that
// tracks this site's per-peer watermarks, and the source (the site's
// wal.SiteLog) its peers' pulls are served from. Call before the engine
// starts delivering messages; the cluster posts the first pull tick.
func (m *Manager) SetReplication(p *repl.Puller, src repl.Source) {
	m.puller = p
	m.replSrc = src
}

// ReplWatermarks returns a copy of the per-peer catch-up watermarks (nil
// when replication is not configured) — the convergence probe the cluster
// and the experiments assert on.
func (m *Manager) ReplWatermarks() map[model.SiteID]uint64 {
	m.ctlMu.Lock()
	defer m.ctlMu.Unlock()
	if m.puller == nil {
		return nil
	}
	return m.puller.Watermarks()
}

// onReplTick sends one pull to the next peer in the round robin and re-arms
// the timer for the next, so each peer is pulled once per period and the
// pulls of one period are spread across it: a write that missed this site
// ships from the first holder pulled, and the pull to the second already
// names it. The timer chain keeps running through an outage (a down site
// neither pulls nor serves, but must resume pulling the moment it recovers
// — catch-up after the crash is the whole point).
func (m *Manager) onReplTick(ctx engine.Context) {
	m.ctlMu.Lock()
	defer m.ctlMu.Unlock()
	if m.puller == nil || m.replStopped {
		return
	}
	ctx.SetTimer(m.puller.TickMicros(), model.TickMsg{Tag: ReplTickTag})
	if m.Down() {
		return
	}
	// Only the periodic pulls carry the journal digest: what this site
	// journaled since its previous pull to that peer.
	if peer, have, ok := m.puller.NextPull(m.replSrc); ok {
		ctx.Send(engine.QMAddr(peer), model.PooledReplPull(model.ReplPullMsg{From: m.site, AfterSeq: m.puller.Mark(peer), Have: have, Incarnation: m.puller.Incarnation()}))
	}
}

// onReplSettle sends one pull to every peer without re-arming anything —
// the drain-time convergence sweep. Safe to post repeatedly; each post is
// one round.
func (m *Manager) onReplSettle(ctx engine.Context) {
	m.ctlMu.Lock()
	defer m.ctlMu.Unlock()
	if m.puller == nil || m.Down() {
		return
	}
	for _, peer := range m.puller.Peers() {
		ctx.Send(engine.QMAddr(peer), model.PooledReplPull(model.ReplPullMsg{From: m.site, AfterSeq: m.puller.Mark(peer), Incarnation: m.puller.Incarnation()}))
	}
}

// onReplPull serves one peer's pull from the durable log, less what that
// peer is known to hold (repl.Known). A down or unconfigured site stays
// silent — the puller simply retries next period.
func (m *Manager) onReplPull(ctx engine.Context, v model.ReplPullMsg) {
	m.ctlMu.Lock()
	defer m.ctlMu.Unlock()
	if m.replSrc == nil || m.Down() {
		return
	}
	max := repl.DefaultBatchRecords
	if m.puller != nil {
		max = m.puller.BatchRecords()
	}
	batch, err := m.known.Serve(m.site, m.replSrc, v, max, m.serveFrames[:0])
	if err != nil {
		// The durable log is unreadable on an up site: the same broken
		// contract flushNow panics on.
		panic(fmt.Sprintf("qm: site %d: repl pull from site %d after seq %d: %v", m.site, v.From, v.AfterSeq, err))
	}
	m.serveFrames = batch.Frames
	m.shards[0].mu.Lock()
	m.shards[0].counters.ReplPulls++
	m.shards[0].mu.Unlock()
	// The pooled reply copies the frames out of the scratch they were built in.
	ctx.Send(engine.QMAddr(v.From), model.PooledReplRecords(batch))
}

// onReplRecords replays one shipped batch: each record is applied under the
// owning shard's lock through the store's stamp-gated ApplyShipped (stale
// and duplicate records skip — the idempotence the protocol leans on) and
// parks its item like any journaled write, every shard is then flushed in
// place so catch-up progress is itself durable, and only then does the
// peer's watermark advance. Only one shard lock is ever held at a time, so
// there is no cycle against crash/recovery's lockAll. Every decoded record,
// installed or not, is durable at its sender and is noted as such, so it is
// never shipped back. A torn batch applies its intact prefix but does not
// advance the watermark — the tail re-ships next period. More (a batch cut
// at the bound, or a Reset image) re-pulls immediately instead of waiting
// out a period per batch, but only when the watermark moved: the same pull
// again would only fetch the same batch again. A reply to a pull sent before
// this site's last crash is dropped whole (repl.Puller.Incarnation).
func (m *Manager) onReplRecords(ctx engine.Context, v model.ReplRecordsMsg) {
	m.ctlMu.Lock()
	defer m.ctlMu.Unlock()
	if m.puller == nil || m.Down() {
		return // a down site's applies would be wiped anyway; marks re-zero at crash
	}
	if v.Incarnation != m.puller.Incarnation() {
		return
	}
	st := repl.Apply(v.Frames, func(r wal.Record) bool {
		m.known.Note(v.From, r.Item, r.CommitMicros)
		sh := m.shardFor(r.Item)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		if !m.store.ApplyShipped(r.Item, r.Txn, r.Value, r.CommitMicros) {
			return false
		}
		sh.park(sh.queues[r.Item])
		return true
	})
	m.flushAll(ctx)
	m.shards[0].mu.Lock()
	m.shards[0].counters.ReplApplied += uint64(st.Applied)
	m.shards[0].counters.ReplSkipped += uint64(st.Skipped)
	if v.Reset {
		m.shards[0].counters.ReplResets++
	}
	m.shards[0].mu.Unlock()
	moved := st.Torn == 0 && m.puller.Advance(v.From, v.NextAfterSeq)
	if v.More && moved {
		ctx.Send(engine.QMAddr(v.From), model.PooledReplPull(model.ReplPullMsg{From: m.site, AfterSeq: m.puller.Mark(v.From), Incarnation: m.puller.Incarnation()}))
	}
}
