package storage

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ucc/internal/model"
)

// Version is one committed version of a physical copy.
type Version struct {
	// Value is the installed value.
	Value int64
	// Version is the write ordinal: version v is the state after the v-th
	// implemented write (0 = the initial value from Create).
	Version uint64
	// Writer is the transaction whose write produced this version (zero
	// TxnID for the initial value).
	Writer model.TxnID
	// CommitMicros is the writer's commit point (engine time at which the
	// writer sent its release round; 0 for the initial value). A writer
	// stamps every version it installs — at every copy, at every site —
	// with this one value, so version selection by commit stamp is
	// all-or-nothing per transaction.
	CommitMicros int64
}

// Copy is the latest-version view of one physical copy. It stays a flat,
// comparable struct: most of the system (lock grants, invariant checks,
// durability snapshot identity) only cares about the newest committed state.
type Copy struct {
	ID model.CopyID
	// Value is the current (newest committed) value.
	Value int64
	// Version counts implemented writes (0 = initial value).
	Version uint64
	// Writer is the transaction whose write produced Version.
	Writer model.TxnID
	// CommitMicros is the commit stamp of the newest version.
	CommitMicros int64
}

// CopyChain is the full retained version chain of one physical copy,
// oldest first (the durability snapshot unit: recovery must rebuild chains,
// not just latest values, or snapshot reads issued across a crash would lose
// their versions).
type CopyChain struct {
	ID       model.CopyID
	Versions []Version
}

// ChainPolicy bounds a copy's version chain.
type ChainPolicy struct {
	// MaxVersions is the hard cap on retained versions per copy (≥1). When
	// the watermark rule below still retains more than this many versions,
	// the oldest are dropped anyway — memory safety wins and a snapshot read
	// older than the chain is served its oldest version (reported inexact).
	MaxVersions int
	// KeepMicros is the staleness window: a version may be pruned only once
	// a newer version is at least this old, so every snapshot read taken
	// within the window finds its exact version. Must exceed the issuers'
	// snapshot staleness margin plus the maximum network delay.
	KeepMicros int64
}

// DefaultChainPolicy returns the production bounds: 16 versions per copy,
// 250ms of retained history (comfortably above the default 15ms snapshot
// staleness margin plus worst-case simulated latency).
func DefaultChainPolicy() ChainPolicy {
	return ChainPolicy{MaxVersions: 16, KeepMicros: 250_000}
}

func (p *ChainPolicy) fill() {
	if p.MaxVersions <= 0 {
		p.MaxVersions = DefaultChainPolicy().MaxVersions
	}
	if p.KeepMicros <= 0 {
		p.KeepMicros = DefaultChainPolicy().KeepMicros
	}
}

// Journal is the durability hook: when attached, every implemented Write is
// reported before the Store returns, so a write-ahead log (internal/wal) can
// journal it. Recovery-path installs (Restore, RestoreChain, Apply) bypass
// the journal — they re-apply history that is already durable.
type Journal interface {
	RecordWrite(item model.ItemID, txn model.TxnID, value int64, version uint64, commitMicros int64)
}

// copyState is the resident state of one physical copy: its retained version
// chain, oldest first. The newest version (last element) is the current
// value; the chain always holds at least one version.
type copyState struct {
	id       model.CopyID
	versions []Version
}

func (c *copyState) latest() *Version { return &c.versions[len(c.versions)-1] }

// push appends v to the chain. A chain with no spare capacity grows at once
// to the longest it gets before a prune — maxVersions retained plus the one
// being added — so a copy's chain reallocates once, at its second version,
// instead of at every new longest length; prune shifts in place.
func (c *copyState) push(v Version, maxVersions int) {
	if len(c.versions) == cap(c.versions) {
		grown := make([]Version, len(c.versions), max(maxVersions, len(c.versions))+1)
		copy(grown, c.versions)
		c.versions = grown
	}
	c.versions = append(c.versions, v)
}

// Store holds every physical copy resident at one data site as a bounded
// multi-version chain per copy.
//
// Item domain: items are the partition map's dense item numbers, [0, Items)
// (model.PartitionMap.Assignments is indexed by them), so the copies table is
// a slice indexed by item, not a hash map: a copy is found by one bounds
// check and one load. A negative item has no slot — Create refuses it — and
// every lookup of an item outside the table finds no copy.
//
// Concurrency: only Create, Wipe and Restore/RestoreChain write the table
// (grow it, fill or clear a slot), and each takes the whole-store barrier
// exclusively. They run before traffic, with every queue-manager shard
// locked (a map install) or with every shard down (crash recovery), so no
// shard handler reads the table meanwhile; the barrier orders them against
// the one reader that holds no shard lock, a durability snapshot built
// through EachChain on the sync worker. Each copy's chain is only ever
// touched by the one shard its item hashes to, so sharded queue managers may
// call Read/ReadAt/Write for different items concurrently without a
// store-wide lock. The two pieces of cross-item mutable state are the pruned
// counter (atomic) and whole-store snapshots: EachChain (and Chains/Copies
// over it) must observe no torn chain, so chain mutations share the barrier
// read-side and snapshots take it exclusively. The journal append
// deliberately happens OUTSIDE the barrier (holding it across the WAL's lock
// would deadlock with a snapshot running inside a WAL flush); the resulting
// snapshot/append race — a snapshot imaging a write whose record is not yet
// covered by its AppliedSeq — is resolved by Apply's idempotent redo at
// recovery.
type Store struct {
	site model.SiteID
	// copies is the table of copy states indexed by item; a slot whose
	// chain is nil holds no copy. n counts the slots that do.
	copies  []copyState
	n       int
	policy  ChainPolicy
	journal Journal
	barrier sync.RWMutex
	// pruned counts versions dropped by chain GC (observability).
	pruned atomic.Uint64
}

// NewStore creates an empty store for a site with the default chain policy.
func NewStore(site model.SiteID) *Store {
	return &Store{site: site, policy: DefaultChainPolicy()}
}

// Site returns the owning site.
func (s *Store) Site() model.SiteID { return s.site }

// SetJournal attaches (or detaches, with nil) the durability hook.
func (s *Store) SetJournal(j Journal) { s.journal = j }

// SetChainPolicy replaces the version-chain bounds (zero fields select the
// defaults). Call before traffic; existing chains are trimmed lazily on the
// next write.
func (s *Store) SetChainPolicy(p ChainPolicy) {
	p.fill()
	s.policy = p
}

// ChainPolicy returns the active bounds.
func (s *Store) ChainPolicy() ChainPolicy { return s.policy }

// Create places a physical copy of item at this site with an initial value.
// item must lie in the item domain (not negative).
func (s *Store) Create(item model.ItemID, initial int64) {
	s.barrier.Lock()
	defer s.barrier.Unlock()
	if s.lookup(item) != nil {
		panic(fmt.Sprintf("storage: duplicate copy of %v at site %d", item, s.site))
	}
	s.install(copyState{
		id:       model.CopyID{Item: item, Site: s.site},
		versions: []Version{{Value: initial}},
	})
}

// install puts c in its item's slot, growing the table to reach it; a
// negative item has no slot. Caller holds the barrier exclusively.
func (s *Store) install(c copyState) {
	if c.id.Item < 0 {
		panic(fmt.Sprintf("storage: item %v outside the item domain at site %d", c.id.Item, s.site))
	}
	item := int(c.id.Item)
	if item >= len(s.copies) {
		s.copies = append(s.copies, make([]copyState, item+1-len(s.copies))...)
	}
	if s.copies[item].versions == nil {
		s.n++
	}
	s.copies[item] = c
}

// Has reports whether this site stores a copy of item.
func (s *Store) Has(item model.ItemID) bool { return s.lookup(item) != nil }

// Read returns the current (newest committed) value and version of item's
// copy — the lock-protected read path.
func (s *Store) Read(item model.ItemID) (value int64, version uint64) {
	v := s.mustGet(item).latest()
	return v.Value, v.Version
}

// Latest returns the newest committed version of item's copy in full — the
// grant path under quorum replication, where the issuer needs the commit
// stamp alongside value and version to compare grants across copies.
func (s *Store) Latest(item model.ItemID) Version {
	return *s.mustGet(item).latest()
}

// ReadAt returns the newest version of item's copy whose commit stamp is
// ≤ atMicros — the snapshot read path. exact is false when every retained
// version is newer than atMicros (the chain was GC'd past the snapshot); the
// oldest retained version is then served as the best available answer.
func (s *Store) ReadAt(item model.ItemID, atMicros int64) (v Version, exact bool) {
	c := s.mustGet(item)
	for i := len(c.versions) - 1; i >= 0; i-- {
		if c.versions[i].CommitMicros <= atMicros {
			return c.versions[i], true
		}
	}
	return c.versions[0], false
}

// Write installs a new version for item's copy on behalf of txn, stamped
// with the writer's commit point, and returns the new version ordinal. The
// chain is pruned under the store's ChainPolicy using commitMicros as "now"
// (commit stamps are nondecreasing along a chain, so the newest stamp is the
// freshest clock reading the store has).
func (s *Store) Write(item model.ItemID, txn model.TxnID, value int64, commitMicros int64) uint64 {
	c := s.mustGet(item)
	s.barrier.RLock()
	next := Version{
		Value:        value,
		Version:      c.latest().Version + 1,
		Writer:       txn,
		CommitMicros: commitMicros,
	}
	c.push(next, s.policy.MaxVersions)
	s.prune(c, commitMicros)
	s.barrier.RUnlock()
	// Outside the barrier — see the Store comment for the lock-order and
	// snapshot-consistency reasoning.
	if s.journal != nil {
		s.journal.RecordWrite(item, txn, value, next.Version, commitMicros)
	}
	return next.Version
}

// prune applies the watermark rule, then the hard cap. The watermark rule
// keeps the newest version with CommitMicros ≤ now−Keep as the chain base
// (it is what a snapshot at the oldest admissible timestamp reads) and drops
// everything older.
func (s *Store) prune(c *copyState, nowMicros int64) {
	watermark := nowMicros - s.policy.KeepMicros
	base := 0
	for i := len(c.versions) - 1; i >= 0; i-- {
		if c.versions[i].CommitMicros <= watermark {
			base = i
			break
		}
	}
	if over := len(c.versions) - s.policy.MaxVersions; over > base {
		base = over // hard cap: may sacrifice in-window versions
	}
	if base > 0 {
		s.pruned.Add(uint64(base))
		// Shift in place rather than reallocating: nothing retains the raw
		// slice (Chain/Chains/Copies hand out copies, EachChain lends it only
		// under the exclusive barrier), and keeping the backing array
		// lets the next Write append into spare capacity instead of growing a
		// fresh one — the steady-state write path allocates nothing here.
		n := copy(c.versions, c.versions[base:])
		c.versions = c.versions[:n]
	}
}

// Chain returns a copy of item's retained version chain, oldest first.
func (s *Store) Chain(item model.ItemID) []Version {
	c := s.mustGet(item)
	out := make([]Version, len(c.versions))
	copy(out, c.versions)
	return out
}

// ChainLen returns the number of retained versions of item's copy.
func (s *Store) ChainLen(item model.ItemID) int { return len(s.mustGet(item).versions) }

// Pruned returns the cumulative number of versions dropped by chain GC.
func (s *Store) Pruned() uint64 { return s.pruned.Load() }

// Items returns the item ids stored here in ascending order.
func (s *Store) Items() []model.ItemID {
	s.barrier.RLock()
	defer s.barrier.RUnlock()
	out := make([]model.ItemID, 0, s.n)
	for i := range s.copies {
		if s.copies[i].versions != nil {
			out = append(out, model.ItemID(i))
		}
	}
	return out
}

// Len returns the number of copies stored here. It shares the barrier
// read-side: a durability snapshot reads it off the shards' goroutines,
// where a map install may be creating copies.
func (s *Store) Len() int {
	s.barrier.RLock()
	defer s.barrier.RUnlock()
	return s.n
}

// Copies returns the latest-version view of every physical copy, ascending
// by item. Safe against concurrent shard writers (whole-store barrier).
func (s *Store) Copies() []Copy {
	out := make([]Copy, 0, s.n)
	s.EachChain(func(id model.CopyID, vs []Version) {
		v := vs[len(vs)-1]
		out = append(out, Copy{ID: id, Value: v.Value, Version: v.Version, Writer: v.Writer, CommitMicros: v.CommitMicros})
	})
	return out
}

// Chains returns a copy of the full retained version chain of every physical
// copy, ascending by item (tests compare whole stores with it; a durability
// snapshot reads the chains in place through EachChain).
func (s *Store) Chains() []CopyChain {
	out := make([]CopyChain, 0, s.n)
	s.EachChain(func(id model.CopyID, vs []Version) {
		out = append(out, CopyChain{ID: id, Versions: slices.Clone(vs)})
	})
	return out
}

// EachChain calls f with every physical copy's retained version chain,
// oldest version first, in ascending item order — the durability snapshot's
// view of the store. It holds the whole-store barrier exclusively throughout,
// so no chain is seen torn by a concurrent shard writer, and no table write
// (Create, Wipe, Restore*) lands mid-visit; f must not keep vs, which is the
// store's own memory, nor call back into the store. The table is in item
// order already, so a visit allocates nothing.
func (s *Store) EachChain(f func(id model.CopyID, vs []Version)) {
	s.barrier.Lock()
	defer s.barrier.Unlock()
	for i := range s.copies {
		if c := &s.copies[i]; c.versions != nil {
			f(c.id, c.versions)
		}
	}
}

// Wipe drops every copy: the volatile-state loss of a site crash. The store
// keeps its identity (queue managers hold a pointer) and is rebuilt through
// RestoreChain/Apply during recovery.
func (s *Store) Wipe() {
	s.barrier.Lock()
	defer s.barrier.Unlock()
	clear(s.copies)
	s.n = 0
}

// Restore installs a copy as a single-version chain, bypassing the journal
// (seeding and tests; durability recovery uses RestoreChain).
func (s *Store) Restore(c Copy) {
	s.restore(copyState{
		id: c.ID,
		versions: []Version{{
			Value: c.Value, Version: c.Version, Writer: c.Writer, CommitMicros: c.CommitMicros,
		}},
	})
}

// RestoreChain installs a copy's full version chain verbatim from a
// durability snapshot, bypassing the journal.
func (s *Store) RestoreChain(cc CopyChain) {
	if len(cc.Versions) == 0 {
		panic(fmt.Sprintf("storage: empty chain for %v", cc.ID))
	}
	vs := make([]Version, len(cc.Versions))
	copy(vs, cc.Versions)
	s.restore(copyState{id: cc.ID, versions: vs})
}

// restore installs c verbatim, replacing any copy of its item, under the
// exclusive barrier.
func (s *Store) restore(c copyState) {
	s.barrier.Lock()
	defer s.barrier.Unlock()
	s.install(c)
}

// Apply re-installs one replayed journaled write verbatim (exact version and
// commit stamp, no journal hook), extending the copy's chain. The copy must
// exist — every copy is present in the snapshot recovery starts from.
//
// Apply is idempotent redo: a record whose version the chain already holds
// is skipped. That closes the snapshot/append race of sharded sites — a
// snapshot may image a chain mutation whose WAL record lands just after the
// snapshot's AppliedSeq, so replay can legitimately present an
// already-applied record.
func (s *Store) Apply(item model.ItemID, txn model.TxnID, value int64, version uint64, commitMicros int64) {
	c := s.mustGet(item)
	if version <= c.latest().Version {
		return // already reflected by the snapshot this replay started from
	}
	c.push(Version{
		Value: value, Version: version, Writer: txn, CommitMicros: commitMicros,
	}, s.policy.MaxVersions)
	s.prune(c, commitMicros)
}

// ApplyShipped installs a write shipped from a peer replica's WAL during
// catch-up (internal/repl). Unlike Apply — the local-recovery redo, which
// reinstates this site's own records verbatim — a shipped record's version
// ordinal is meaningless here: per-copy ordinals diverge under quorum
// replication (a copy that missed a write assigns latest+1 to the next write
// it does see), so the shipment is gated on the commit stamp instead. The
// record applies only when strictly newer than the chain's newest stamp,
// which makes duplicate, overlapping, and re-shipped batches idempotent;
// conflicting writers' stamps are strictly ordered because intersecting
// write quorums (2W > N) serialize their releases through a shared copy. The
// write is assigned the local chain's next ordinal and journaled like Write
// — catch-up progress must itself survive a later crash of this site. Caller
// is the owning queue-manager shard (under its lock); the snapshot barrier
// is shared read-side exactly as in Write.
//
// Returns false when the record was skipped: unknown item (the peer ships
// its whole log; unshared items, and items outside the table, are filtered
// here) or a stale/duplicate stamp.
func (s *Store) ApplyShipped(item model.ItemID, txn model.TxnID, value int64, commitMicros int64) bool {
	c := s.lookup(item)
	if c == nil {
		return false
	}
	s.barrier.RLock()
	latest := c.latest()
	if commitMicros <= latest.CommitMicros {
		s.barrier.RUnlock()
		return false
	}
	next := Version{Value: value, Version: latest.Version + 1, Writer: txn, CommitMicros: commitMicros}
	c.push(next, s.policy.MaxVersions)
	s.prune(c, commitMicros)
	s.barrier.RUnlock()
	// Outside the barrier — see the Store comment (same ordering as Write).
	if s.journal != nil {
		s.journal.RecordWrite(item, txn, value, next.Version, commitMicros)
	}
	return true
}

// lookup returns item's copy state, or nil when the site holds no copy of
// it — item outside the table included.
func (s *Store) lookup(item model.ItemID) *copyState {
	if uint(item) >= uint(len(s.copies)) {
		return nil
	}
	if c := &s.copies[item]; c.versions != nil {
		return c
	}
	return nil
}

func (s *Store) mustGet(item model.ItemID) *copyState {
	c := s.lookup(item)
	if c == nil {
		panic(fmt.Sprintf("storage: site %d has no copy of %v", s.site, item))
	}
	return c
}
