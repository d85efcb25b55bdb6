package qm

import (
	"fmt"
	"maps"
	"slices"

	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/storage"
	"ucc/internal/wal"
)

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
// queue is not drained yet — its last write is not durable, and the fill
// that hands the item off is served from the durable log (onReplPull answers
// a fill NotReady while anything is retiring) — so it retires at its un-park
// instead. Callers hold sh.mu and pass the queue already looked up.
func (sh *shard) maybeRetire(item model.ItemID, q *dataQueue) {
	if sh.retiring[item] && len(q.entries) == 0 && !q.parked {
		delete(sh.queues, item)
		sh.m.byItem[item] = nil
		delete(sh.retiring, item)
	}
}

// onMapInstall runs the ownership transition for a newer map: items this
// site lost stop admitting new work (their queues drain, then delete); items
// it gained are created sealed ("pending") and filled from their old
// primary's log, one fill per old primary; the catch-up puller's peer set
// follows the new sharing graph. Site-wide critical section, same discipline
// as crash. A down site keeps the maps it is sent and installs them in
// order at recovery, before it replays what it deferred: the store it would
// seed the gained copies in, and the log it would snapshot them to, are
// gone until then.
func (m *Manager) onMapInstall(ctx engine.Context, v model.MapInstallMsg) {
	m.ctlMu.Lock()
	defer m.ctlMu.Unlock()
	if m.Down() {
		m.downMaps = append(m.downMaps, v)
		return
	}
	m.installMap(ctx, v)
}

// installMap is onMapInstall on an up site. Caller holds ctlMu.
func (m *Manager) installMap(ctx engine.Context, v model.MapInstallMsg) {
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
		m.addQueue(item)
		if cur != nil {
			sh.pending[item] = true
		}
	}
	m.shards[0].counters.MapInstalls++
	m.shards[0].counters.ItemsGained += uint64(len(gained))
	m.unlockAll()

	if len(gained) > 0 && m.dur != nil {
		// The WAL's last snapshot predates the gained items; a crash after
		// fill records are journaled would replay writes to items the
		// snapshot does not know. Re-snapshot now so recovery always finds
		// them.
		m.snapshot("map install")
	}

	// One fill per old primary of the gained items. No previous map means no
	// old owner to pull from — the items open immediately (fresh copies, the
	// bootstrap path).
	if cur != nil {
		byPeer := map[model.SiteID][]model.ItemID{}
		for _, item := range gained {
			byPeer[cur.Primary(item)] = append(byPeer[cur.Primary(item)], item)
		}
		for _, p := range slices.Sorted(maps.Keys(byPeer)) {
			ctx.Send(engine.QMAddr(p), model.PooledReplPull(m.puller.OpenFill(p, next.Epoch, byPeer[p])))
		}
	}

	// The catch-up peer set follows the sharing graph of the new map. What
	// the peers were known to hold is dropped: a copy that moves away and
	// back is refilled by a fill, not from the state it once reported.
	if m.replSrc != nil {
		m.puller.SetPeers(next.Sharing(m.site))
	}
	m.known.ForgetAll()
	m.pmap.Store(next)
	m.armReplTick(ctx)
}

// snapshot takes a WAL snapshot, which makes everything applied so far
// snapshot-durable; a durable site that cannot snapshot is broken. Caller
// holds ctlMu; the site is durable.
func (m *Manager) snapshot(why string) {
	if snap, ok := m.dur.(interface{ Snapshot() error }); ok {
		if err := snap.Snapshot(); err != nil {
			panic(fmt.Sprintf("qm: site %d: snapshot %s: %v", m.site, why, err))
		}
	}
}

// clearPending opens items for traffic (their fill is done). Caller holds
// ctlMu; takes shard locks itself.
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

// storeSource adapts a volatile store to the repl.Source contract for
// serving fills: any pull below sequence 1 takes the Reset path and gets a
// synthetic snapshot image of the latest version of every copy the skip
// keeps (appliedSeq 1); above it the log is empty — volatile sites have no
// tail to stream.
type storeSource struct {
	store *storage.Store
}

func (s storeSource) RecordsSince(afterSeq uint64, max int, _ func(model.ItemID, int64) bool, dst []byte) (frames []byte, next uint64, more, gap bool, err error) {
	if afterSeq < 1 {
		return dst, 0, false, true, nil
	}
	return dst, afterSeq, false, false, nil
}

// HaveSince reports nothing: a volatile site journals nothing.
func (s storeSource) HaveSince(afterSeq uint64, dst []wal.Have) ([]wal.Have, uint64) {
	return dst, afterSeq
}

func (s storeSource) SnapshotRecords(skip func(model.ItemID, int64) bool, dst []byte) (frames []byte, appliedSeq uint64, err error) {
	frames = dst
	var prev int64
	for _, item := range s.store.Items() {
		ver := s.store.Latest(item)
		if skip != nil && skip(item, ver.CommitMicros) {
			continue
		}
		frames = wal.AppendShipped(frames, prev, wal.Record{Item: item, Txn: ver.Writer, Value: ver.Value, CommitMicros: ver.CommitMicros})
		prev = ver.CommitMicros
	}
	return frames, 1, nil
}
