package qm

import (
	"fmt"
	"sort"

	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/repl"
	"ucc/internal/storage"
	"ucc/internal/wal"
)

// TransferTickTag is the TickMsg.Tag of the snapshot-transfer retry timer:
// while this site has incomplete transfer sessions, the timer re-pulls each
// one (covering NotReady answers and lost pulls) and re-arms itself. Posted
// one-shot by the cluster's settle loop too, which — like ReplSettleTickTag
// — fans out one round without re-arming after StopMsg.
const TransferTickTag = 3

// transferRetryMicros is the pull retry period while a transfer session is
// incomplete. Shorter than the repl pull period: a transfer gates an item
// opening for traffic, so the refusal window is latency we want bounded.
const transferRetryMicros = 100_000

// transferSession tracks one in-progress snapshot transfer: the items this
// site gained at epoch whose state streams from peer (their old primary).
// Guarded by the manager's ctlMu.
type transferSession struct {
	peer     model.SiteID
	epoch    uint64
	afterSeq uint64
	items    []model.ItemID
	done     bool
}

// SetPartitionMap installs the initial partition map before the engine starts
// delivering messages (the store and queues were seeded to match it, so no
// transition runs). Later maps arrive as MapInstallMsg.
func (m *Manager) SetPartitionMap(pm *model.PartitionMap) {
	m.pmap.Store(pm)
}

// CurrentMap returns the installed partition map (nil when the manager runs
// in legacy mode and owns exactly the items its store was seeded with).
func (m *Manager) CurrentMap() *model.PartitionMap {
	return m.pmap.Load()
}

// TransfersPending reports whether any snapshot-transfer session is still
// incomplete (the cluster's settle loop keeps posting transfer rounds until
// this goes false).
func (m *Manager) TransfersPending() bool {
	m.ctlMu.Lock()
	defer m.ctlMu.Unlock()
	for _, s := range m.sessions {
		if !s.done {
			return true
		}
	}
	return false
}

// GrantCounts returns the cumulative per-item grant counts (reads + writes)
// at this site — the hotness signal the rebalancer ranks items by.
func (m *Manager) GrantCounts() map[model.ItemID]uint64 {
	out := map[model.ItemID]uint64{}
	for _, sh := range m.shards {
		sh.mu.Lock()
		for item, q := range sh.queues {
			out[item] += q.readGrants + q.writeGrants
		}
		sh.mu.Unlock()
	}
	return out
}

// wrongEpoch NAKs one operation whose routing disagreed with the installed
// map, attaching that map so the sender repairs itself. Callers hold sh.mu.
func (sh *shard) wrongEpoch(ctx engine.Context, to model.SiteID, txn model.TxnID, at model.Attempt, copy model.CopyID) {
	sh.counters.WrongEpoch++
	pm := sh.m.pmap.Load()
	if pm == nil {
		// Legacy mode has no map to attach; an empty map (epoch 0) tells the
		// issuer only that the attempt must restart.
		pm = &model.PartitionMap{}
	}
	sh.send(ctx, engine.RIAddr(to), model.WrongEpochMsg{Txn: txn, Attempt: at, Copy: copy, Map: *pm})
}

// owns reports whether this site holds item under the installed map (legacy
// nil map: ownership is queue existence, the pre-placement behaviour).
func (sh *shard) owns(item model.ItemID) bool {
	pm := sh.m.pmap.Load()
	if pm == nil {
		return sh.queues[item] != nil
	}
	return pm.Owns(item, sh.m.site)
}

// maybeRetire deletes a drained retiring queue: the item moved away at a map
// install while transactions were still resident, the last one just left,
// and from here on completions for it get the wrong-epoch NAK. A parked
// queue is not drained yet — its last write is not durable, and the transfer
// that hands the item off is served from the durable log (onTransferPull
// answers NotReady while anything is retiring) — so it retires at its
// un-park instead. Callers hold sh.mu and pass the queue already looked up.
func (sh *shard) maybeRetire(item model.ItemID, q *dataQueue) {
	if sh.retiring[item] && len(q.entries) == 0 && !q.parked {
		delete(sh.queues, item)
		delete(sh.retiring, item)
	}
}

// onMapInstall runs the ownership transition for a newer map: items this
// site lost stop admitting new work (their queues drain, then delete); items
// it gained are created sealed ("pending") and filled by snapshot transfer
// from their old primary; the catch-up puller's peer set follows the new
// sharing graph. Site-wide critical section, same discipline as crash.
func (m *Manager) onMapInstall(ctx engine.Context, v model.MapInstallMsg) {
	m.ctlMu.Lock()
	defer m.ctlMu.Unlock()
	cur := m.pmap.Load()
	if cur != nil && v.Map.Epoch <= cur.Epoch {
		return // stale or duplicate publish
	}
	// Clone: under the simulator one message value (and its backing arrays)
	// fans out to every site; the installed map must be this site's own.
	next := v.Map.Clone()

	m.lockAll()
	var gained []model.ItemID
	for i := 0; i < next.Items(); i++ {
		item := model.ItemID(i)
		sh := m.shardFor(item)
		hasQueue := sh.queues[item] != nil
		ownsNow := next.Owns(item, m.site)
		switch {
		case ownsNow && !hasQueue:
			gained = append(gained, item)
		case !ownsNow && hasQueue:
			sh.retiring[item] = true
			delete(sh.pending, item)
			sh.maybeRetire(item, sh.queues[item])
		case ownsNow && hasQueue:
			// Still owned; if it was mid-retirement under a previous epoch
			// that has now been superseded, keep it.
			delete(sh.retiring, item)
		}
	}
	for _, item := range gained {
		sh := m.shardFor(item)
		if !m.store.Has(item) {
			// Fresh copy at the initial value, stamp 0: every shipped record
			// with a real commit stamp supersedes it, and if the old owner
			// never wrote the item the stamp-gated apply skips harmlessly —
			// the values are identical by construction.
			m.store.Create(item, m.opts.InitialValue)
		}
		sh.queues[item] = newDataQueue(model.CopyID{Item: item, Site: m.site}, !m.opts.DisableSemiLocks)
		if cur != nil {
			sh.pending[item] = true
		}
	}
	m.shards[0].counters.MapInstalls++
	m.shards[0].counters.ItemsGained += uint64(len(gained))
	m.unlockAll()

	if len(gained) > 0 && m.dur != nil {
		// The WAL's last snapshot predates the gained items; a crash after
		// transfer records are journaled would replay writes to items the
		// snapshot does not know. Re-snapshot now so recovery always finds
		// them.
		if snap, ok := m.dur.(interface{ Snapshot() error }); ok {
			if err := snap.Snapshot(); err != nil {
				panic(fmt.Sprintf("qm: site %d: snapshot at map install: %v", m.site, err))
			}
		}
	}

	// One transfer session per old primary of the gained items. No previous
	// map means no old owner to stream from — the items open immediately
	// (fresh copies, the bootstrap path).
	if cur != nil && len(gained) > 0 {
		byPeer := map[model.SiteID][]model.ItemID{}
		for _, item := range gained {
			byPeer[cur.Primary(item)] = append(byPeer[cur.Primary(item)], item)
		}
		peers := make([]model.SiteID, 0, len(byPeer))
		for p := range byPeer {
			peers = append(peers, p)
		}
		sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
		for _, p := range peers {
			if p == m.site {
				// This site already held a non-primary copy... cannot happen
				// for gained items (no queue existed), but guard anyway: no
				// self-transfer.
				m.clearPending(byPeer[p])
				continue
			}
			m.sessions = append(m.sessions, &transferSession{peer: p, epoch: next.Epoch, items: byPeer[p]})
			ctx.Send(engine.QMAddr(p), model.TransferPullMsg{From: m.site, Epoch: next.Epoch})
		}
		if !m.transferTickArmed && len(m.sessions) > 0 {
			m.transferTickArmed = true
			ctx.SetTimer(transferRetryMicros, model.TickMsg{Tag: TransferTickTag})
		}
	}

	// The catch-up peer set follows the sharing graph of the new map. What
	// the peers were known to hold is dropped: a copy that moves away and
	// back is refilled by transfer, not from the state it once reported.
	if m.puller != nil {
		m.puller.SetPeers(replSharing(next, m.site))
	}
	m.known.ForgetAll()
	m.pmap.Store(next)
}

// replSharing lists the sites (ascending) sharing at least one item with
// site under pm — the catch-up pull targets.
func replSharing(pm *model.PartitionMap, site model.SiteID) []model.SiteID {
	seen := map[model.SiteID]bool{}
	for _, reps := range pm.Assignments {
		mine := false
		for _, s := range reps {
			if s == site {
				mine = true
				break
			}
		}
		if !mine {
			continue
		}
		for _, s := range reps {
			if s != site {
				seen[s] = true
			}
		}
	}
	out := make([]model.SiteID, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// clearPending opens items for traffic (their transfer completed, or never
// needed). Caller holds ctlMu; takes shard locks itself.
func (m *Manager) clearPending(items []model.ItemID) {
	for _, item := range items {
		sh := m.shardFor(item)
		sh.mu.Lock()
		delete(sh.pending, item)
		sh.mu.Unlock()
	}
}

// retiringAny reports whether any item is still draining out of this site.
// Caller holds ctlMu.
func (m *Manager) retiringAny() bool {
	for _, sh := range m.shards {
		sh.mu.Lock()
		n := len(sh.retiring)
		sh.mu.Unlock()
		if n > 0 {
			return true
		}
	}
	return false
}

// onTransferPull serves one new owner's pull from this site's durable log
// (volatile sites serve a synthetic snapshot image of the live store). The
// server answers NotReady until it has installed the transfer's epoch and
// drained every item it lost under it — the handoff discipline that makes
// the flip atomic per item: transfer state is only served after the last
// in-flight transaction's writes are in it.
func (m *Manager) onTransferPull(ctx engine.Context, v model.TransferPullMsg) {
	m.ctlMu.Lock()
	defer m.ctlMu.Unlock()
	if m.Down() {
		return // silent; the puller's retry tick covers the outage
	}
	cur := m.pmap.Load()
	if cur == nil || cur.Epoch < v.Epoch || m.retiringAny() {
		ctx.Send(engine.QMAddr(v.From), model.TransferRecordsMsg{From: m.site, Epoch: v.Epoch, NotReady: true})
		return
	}
	src := m.replSrc
	if src == nil {
		src = storeSource{m.store}
	}
	max := repl.DefaultBatchRecords
	if m.puller != nil {
		max = m.puller.BatchRecords()
	}
	batch, err := repl.BuildBatch(m.site, src, v.AfterSeq, max, nil)
	if err != nil {
		panic(fmt.Sprintf("qm: site %d: transfer pull from site %d after seq %d: %v", m.site, v.From, v.AfterSeq, err))
	}
	m.shards[0].mu.Lock()
	m.shards[0].counters.TransferPulls++
	m.shards[0].mu.Unlock()
	ctx.Send(engine.QMAddr(v.From), model.TransferRecordsMsg{
		From:         m.site,
		Epoch:        v.Epoch,
		Frames:       batch.Frames,
		NextAfterSeq: batch.NextAfterSeq,
		Reset:        batch.Reset,
		More:         batch.More,
		Done:         !batch.More,
	})
}

// onTransferRecords replays one transfer batch through the same stamp-gated
// apply as catch-up (records for items this site does not hold skip — the
// old owner streams its whole log, the new owner keeps what it owns), then
// advances the session and, on Done, opens the items for traffic.
func (m *Manager) onTransferRecords(ctx engine.Context, v model.TransferRecordsMsg) {
	m.ctlMu.Lock()
	defer m.ctlMu.Unlock()
	if m.Down() {
		return // applies would be wiped; the session re-pulls after recovery
	}
	var sess *transferSession
	for _, s := range m.sessions {
		if s.peer == v.From && s.epoch == v.Epoch && !s.done {
			sess = s
			break
		}
	}
	if sess == nil {
		return // stale reply for a completed or unknown session
	}
	if v.NotReady {
		return // the retry tick re-pulls
	}
	st := repl.Apply(v.Frames, func(r wal.Record) bool {
		sh := m.shardFor(r.Item)
		sh.mu.Lock()
		defer sh.mu.Unlock()
		q := sh.queues[r.Item]
		if q == nil || !m.store.ApplyShipped(r.Item, r.Txn, r.Value, r.CommitMicros) {
			return false
		}
		sh.park(q)
		return true
	})
	m.flushAll(ctx)
	m.shards[0].mu.Lock()
	m.shards[0].counters.TransferApplied += uint64(st.Applied)
	m.shards[0].counters.TransferBytes += uint64(len(v.Frames))
	m.shards[0].mu.Unlock()
	if st.Torn > 0 {
		return // intact prefix applied; the tail re-ships on the retry tick
	}
	if v.NextAfterSeq > sess.afterSeq {
		sess.afterSeq = v.NextAfterSeq
	}
	switch {
	case v.More:
		ctx.Send(engine.QMAddr(sess.peer), model.TransferPullMsg{From: m.site, Epoch: sess.epoch, AfterSeq: sess.afterSeq})
	case v.Done:
		sess.done = true
		m.clearPending(sess.items)
		if m.dur != nil {
			// Make the transferred state snapshot-durable and truncate the
			// shipped tail out of the local log.
			if snap, ok := m.dur.(interface{ Snapshot() error }); ok {
				if err := snap.Snapshot(); err != nil {
					panic(fmt.Sprintf("qm: site %d: snapshot after transfer: %v", m.site, err))
				}
			}
		}
	}
}

// onTransferTick re-pulls every incomplete session (NotReady answers and
// in-flight losses resolve here) and re-arms while any remains — unless the
// run is stopping, in which case each posted tick is one settle round, the
// same contract as ReplSettleTickTag.
func (m *Manager) onTransferTick(ctx engine.Context) {
	m.ctlMu.Lock()
	defer m.ctlMu.Unlock()
	live := m.sessions[:0]
	for _, s := range m.sessions {
		if !s.done {
			live = append(live, s)
		}
	}
	m.sessions = live
	if len(m.sessions) == 0 {
		m.transferTickArmed = false
		return
	}
	if !m.replStopped {
		ctx.SetTimer(transferRetryMicros, model.TickMsg{Tag: TransferTickTag})
	} else {
		m.transferTickArmed = false
	}
	if m.Down() {
		return
	}
	for _, s := range m.sessions {
		ctx.Send(engine.QMAddr(s.peer), model.TransferPullMsg{From: m.site, Epoch: s.epoch, AfterSeq: s.afterSeq})
	}
}

// storeSource adapts a volatile store to the repl.Source contract for
// transfer serving: any pull below sequence 1 takes the Reset path and gets
// a synthetic snapshot image of every copy's latest version (appliedSeq 1);
// above it the log is empty — volatile sites have no tail to stream.
type storeSource struct {
	store *storage.Store
}

func (s storeSource) RecordsSince(afterSeq uint64, max int, _ func(model.ItemID, int64) bool) (frames []byte, next uint64, more, gap bool, err error) {
	if afterSeq < 1 {
		return nil, 0, false, true, nil
	}
	return nil, afterSeq, false, false, nil
}

// TakeHave reports nothing: a volatile site journals nothing.
func (s storeSource) TakeHave(dst []wal.Have) []wal.Have { return dst }

func (s storeSource) SnapshotRecords() (frames []byte, appliedSeq uint64, err error) {
	for _, item := range s.store.Items() {
		ver := s.store.Latest(item)
		frames = wal.AppendRecordFrame(frames, wal.Record{
			Item:         item,
			Txn:          ver.Writer,
			Value:        ver.Value,
			Version:      ver.Version,
			CommitMicros: ver.CommitMicros,
		})
	}
	return frames, 1, nil
}
