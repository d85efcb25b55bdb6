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

// SetPartitionMap installs the initial partition map, which a manager
// requires: call it before the engine starts delivering messages, with the
// store seeded to match it (every item the map gives this site has a copy
// there, so no transition runs). Later maps arrive as MapInstallMsg.
func (m *Manager) SetPartitionMap(pm *model.PartitionMap) {
	m.known.Reset(pm.Items())
	m.pmap.Store(pm)
}

// CurrentMap returns the installed partition map.
func (m *Manager) CurrentMap() *model.PartitionMap {
	return m.pmap.Load()
}

// GrantCounts returns the cumulative per-item grant counts (reads + writes)
// at this site — the hotness signal the rebalancer ranks items by.
func (m *Manager) GrantCounts() map[model.ItemID]uint64 {
	out := map[model.ItemID]uint64{}
	for _, sh := range m.shards {
		sh.mu.Lock()
		sh.eachQueue(func(q *dataQueue) {
			out[q.copyID.Item] += q.readGrants + q.writeGrants
		})
		sh.mu.Unlock()
	}
	return out
}

// wrongEpoch NAKs one operation whose routing disagreed with the installed
// map, attaching that map so the sender repairs itself. Callers hold sh.mu.
func (sh *shard) wrongEpoch(ctx engine.Context, to model.SiteID, txn model.TxnID, at model.Attempt, copy model.CopyID) {
	sh.counters.WrongEpoch++
	sh.send(ctx, engine.RIAddr(to), model.WrongEpochMsg{Txn: txn, Attempt: at, Copy: copy, Map: *sh.m.pmap.Load()})
}

// owns reports whether this site holds item under the installed map.
func (sh *shard) owns(item model.ItemID) bool {
	return sh.m.pmap.Load().Owns(item, sh.m.site)
}

// maybeRetire deletes a drained retiring queue: the item moved away at a map
// install while transactions were still resident, the last one just left,
// and from here on completions for it get the wrong-epoch NAK. A parked
// queue is not drained yet — its last write is not durable, and the fill
// that hands the item off is served from the durable log (onReplPull answers
// a fill NotReady while anything is retiring) — so it retires at its un-park
// instead. Callers hold sh.mu and pass the queue already looked up.
func (sh *shard) maybeRetire(q *dataQueue) {
	if q.retiring && len(q.entries) == 0 && !q.parked {
		sh.setRetiring(q, false)
		sh.m.byItem[q.copyID.Item] = nil
	}
}

// setRetiring flags q retiring or not, keeping the shard's count. Callers
// hold sh.mu.
func (sh *shard) setRetiring(q *dataQueue, on bool) {
	if q.retiring == on {
		return
	}
	q.retiring = on
	if on {
		sh.retiring++
	} else {
		sh.retiring--
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
	if v.Map.Epoch <= cur.Epoch {
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
		q := m.queue(item)
		ownsNow := next.Owns(item, m.site)
		switch {
		case ownsNow && q == nil:
			gained = append(gained, item)
		case !ownsNow && q != nil:
			sh.setRetiring(q, true)
			q.pending = false
			sh.maybeRetire(q)
		case ownsNow && q != nil:
			// Still owned; if it was mid-retirement under a previous epoch
			// that has now been superseded, keep it.
			sh.setRetiring(q, false)
		}
	}
	for _, item := range gained {
		if !m.store.Has(item) {
			// Fresh copy at the initial value, stamp 0: every shipped record
			// with a real commit stamp supersedes it, and if the old owner
			// never wrote the item the stamp-gated apply skips harmlessly —
			// the values are identical by construction.
			m.store.Create(item, m.opts.InitialValue)
		}
		m.addQueue(item).pending = true
	}
	m.shards[0].counters.MapInstalls++
	m.shards[0].counters.ItemsGained += uint64(len(gained))
	// Publish the map before any shard runs again: the shards read it
	// without a lock, and one that judged ownership by the old map would
	// queue work for a retired copy or refuse a gained one with the
	// superseded map.
	m.pmap.Store(next)
	m.unlockAll()

	if len(gained) > 0 && m.dur != nil {
		// The WAL's last snapshot predates the gained items; a crash after
		// fill records are journaled would replay writes to items the
		// snapshot does not know. Re-snapshot now so recovery always finds
		// them.
		m.snapshot("map install")
	}

	// One fill per old primary of the gained items.
	byPeer := map[model.SiteID][]model.ItemID{}
	for _, item := range gained {
		byPeer[cur.Primary(item)] = append(byPeer[cur.Primary(item)], item)
	}
	for _, p := range slices.Sorted(maps.Keys(byPeer)) {
		ctx.Send(engine.QMAddr(p), model.PooledReplPull(m.puller.OpenFill(p, next.Epoch, byPeer[p])))
	}

	// The catch-up peer set follows the sharing graph of the new map. What
	// the peers were known to hold is dropped: a copy that moves away and
	// back is refilled by a fill, not from the state it once reported.
	if m.replSrc != nil {
		m.puller.SetPeers(next.Sharing(m.site))
	}
	m.known.Reset(next.Items())
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
		if q := m.queue(item); q != nil {
			q.pending = false
		}
		sh.mu.Unlock()
	}
}

// retiringAny reports whether any item is still draining out of this site.
// Caller holds ctlMu.
func (m *Manager) retiringAny() bool {
	for _, sh := range m.shards {
		sh.mu.Lock()
		n := sh.retiring
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

// SnapshotRecords builds the image inside Store.EachChain, under the store's
// barrier, as a durability snapshot does: the shards keep writing the
// copies outside the fill's scope meanwhile, and no chain may be read while
// one of them pushes or prunes it.
func (s storeSource) SnapshotRecords(skip func(model.ItemID, int64) bool, dst []byte) (frames []byte, appliedSeq uint64, err error) {
	frames = dst
	var prev wal.Record
	s.store.EachChain(func(id model.CopyID, vs []storage.Version) {
		ver := vs[len(vs)-1]
		if skip != nil && skip(id.Item, ver.CommitMicros) {
			return
		}
		r := wal.Record{Item: id.Item, Txn: ver.Writer, Value: ver.Value, CommitMicros: ver.CommitMicros}
		frames = wal.AppendShipped(frames, prev, r)
		prev = r
	})
	return frames, 1, nil
}
