package wal

import "sync"

// GroupCommitter amortizes sync cost across concurrently committing
// transactions. Each committer appends its records first, then calls Commit;
// Commit returns once a sync that began after the call covers those records.
// One caller at a time becomes the leader and performs the sync for everyone
// waiting, so N concurrent commits cost far fewer than N syncs — the classic
// group-commit batching.
type GroupCommitter struct {
	mu   sync.Mutex
	cond *sync.Cond
	sync func() error
	busy bool
	gen  uint64 // completed sync generations
	err  error  // result of the most recent sync

	commits uint64
	syncs   uint64
}

// NewGroupCommitter wraps a sync function (SiteLog.flush, or a queue
// manager's Durable.Flush, which its shards drain through).
func NewGroupCommitter(syncFn func() error) *GroupCommitter {
	g := &GroupCommitter{sync: syncFn}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Commit blocks until every record appended before the call is durable.
func (g *GroupCommitter) Commit() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.commits++
	// A sync that begins after this point covers our records. One already in
	// flight may have snapshotted the buffer before our append, so it does
	// not count — we then need the generation after it.
	need := g.gen + 1
	if g.busy {
		need = g.gen + 2
	}
	for g.gen < need {
		if g.busy {
			g.cond.Wait()
			continue
		}
		g.busy = true
		g.mu.Unlock()
		err := g.sync()
		g.mu.Lock()
		g.busy = false
		g.gen++
		g.syncs++
		g.err = err
		g.cond.Broadcast()
	}
	return g.err
}

// Stats returns cumulative (commits, syncs). syncs ≤ commits; the gap is
// the batching win.
func (g *GroupCommitter) Stats() (commits, syncs uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.commits, g.syncs
}
