package qm

import "sync"

// commitSequencer is the per-site commit point the shards drain through: a
// transaction's writes become durable at one atomic site-wide sync no matter
// how many shards implemented them. Each flushing shard calls commit();
// one caller at a time becomes the leader and performs the underlying flush
// for everyone waiting, so N concurrently flushing shards cost far
// fewer than N media syncs (the same leader/follower shape as the WAL's
// GroupCommitter, kept separate so qm depends only on the Durable
// interface, not on internal/wal).
//
// Correctness contract: commit() returns only after a flush that STARTED
// after the call completes. A flush already in flight may have snapshotted
// the log buffer before this shard's last append, so the caller waits for
// the next generation instead — that is what makes the sequencer a valid
// write-ahead barrier: when a shard's commit() returns, every record it
// journaled is on durable media, and only then does the shard un-park the
// queues whose grants expose those writes.
type commitSequencer struct {
	mu    sync.Mutex
	cond  *sync.Cond
	flush func() error
	busy  bool
	gen   uint64 // completed sync generations
	err   error  // result of the most recent sync

	commits uint64
	syncs   uint64
}

func newCommitSequencer(flush func() error) *commitSequencer {
	s := &commitSequencer{flush: flush}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// commit blocks until every record appended before the call is durable.
func (s *commitSequencer) commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.commits++
	need := s.gen + 1
	if s.busy {
		need = s.gen + 2 // the in-flight sync may predate our appends
	}
	for s.gen < need {
		if s.busy {
			s.cond.Wait()
			continue
		}
		s.busy = true
		s.mu.Unlock()
		err := s.flush()
		s.mu.Lock()
		s.busy = false
		s.gen++
		s.syncs++
		s.err = err
		s.cond.Broadcast()
	}
	return s.err
}

// stats returns cumulative (commits, syncs). syncs ≤ commits; the gap is the
// cross-shard batching win.
func (s *commitSequencer) stats() (commits, syncs uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commits, s.syncs
}
