package repl

import (
	"slices"

	"ucc/internal/model"
	"ucc/internal/wal"
)

// AppendHave encodes a journal digest (wal.SiteLog.HaveSince: one entry per
// item, ascending) onto b: per entry the item and the commit stamp, each a
// varint delta against the previous entry. The length is the carrying
// field's; an empty digest is zero bytes.
func AppendHave(b []byte, have []wal.Have) []byte {
	var prev wal.Have
	for _, h := range have {
		b = model.AppendVarint(b, int64(h.Item)-int64(prev.Item))
		b = model.AppendVarint(b, h.CommitMicros-prev.CommitMicros)
		prev = h
	}
	return b
}

// DecodeHave appends the entries of an encoded digest to dst. ok is false —
// and the digest must be treated as absent — on truncation, an item outside
// the ID range, or items not strictly ascending.
func DecodeHave(b []byte, dst []wal.Have) (have []wal.Have, ok bool) {
	rd := model.NewWireReader(b)
	base := len(dst)
	var prev wal.Have
	for rd.Remaining() > 0 {
		item, ok := readItem(&rd, prev.Item, len(dst) == base)
		stamp := prev.CommitMicros + rd.Varint()
		if !ok || rd.Err() != nil {
			return dst[:base], false
		}
		prev = wal.Have{Item: item, CommitMicros: stamp}
		dst = append(dst, prev)
	}
	return dst, true
}

// AppendScope encodes a fill's scope (ascending items) onto b in the
// digest's item coding, without the stamps: per item a varint delta against
// the previous one. An empty scope is zero bytes.
func AppendScope(b []byte, items []model.ItemID) []byte {
	var prev model.ItemID
	for _, item := range items {
		b = model.AppendVarint(b, int64(item)-int64(prev))
		prev = item
	}
	return b
}

// DecodeScope appends the items of an encoded scope to dst. ok is false on
// the same faults as DecodeHave: the scope is then unusable, never "every
// item".
func DecodeScope(b []byte, dst []model.ItemID) (items []model.ItemID, ok bool) {
	rd := model.NewWireReader(b)
	base := len(dst)
	var prev model.ItemID
	for rd.Remaining() > 0 {
		if prev, ok = readItem(&rd, prev, len(dst) == base); !ok {
			return dst[:base], false
		}
		dst = append(dst, prev)
	}
	return dst, true
}

// readItem decodes the item step of a digest or a scope entry: a varint
// delta against prev, the entry before it unless first. ok is false on
// truncation, an item outside the ID range, or an item not after prev.
func readItem(rd *model.WireReader, prev model.ItemID, first bool) (model.ItemID, bool) {
	item := int64(prev) + rd.Varint()
	if rd.Err() != nil || int64(model.ItemID(item)) != item || (!first && item <= int64(prev)) {
		return 0, false
	}
	return model.ItemID(item), true
}

// maxKnownItems bounds one peer's table in Known on a site without a
// partition map; with one, the map's item count does (Known.Reset).
const maxKnownItems = 1 << 16

// Known is the serving side of the plane. For catch-up it is what a serving
// site believes each pulling peer already holds: per peer, the newest commit
// stamp per item. Two things feed it — the digests the peer's pulls carry,
// and the records the peer itself ships (durable there) — and it exists to
// leave those records out of the peer's batches. A record is withheld only
// when its stamp is at or below the peer's, or when the serving site's map
// gives the peer no copy of its item: the mirror of storage.ApplyShipped's
// two skips, stale stamp and unknown item, so nothing is withheld the peer
// would have installed under that map. A digest describes the peer's
// volatile state: Serve drops the table whenever the peer may have lost that
// state (see the package comment's Peer knowledge section). A fill is served
// by its scope alone. Like the Puller, it has no lock of its own; the owning
// queue manager serializes every call.
//
// A peer's table is a slice indexed by item — items are the map's dense
// numbers — bounded by the item count Reset set (maxKnownItems until then):
// an item outside [0, bound) is not remembered, which only ships more.
type Known struct {
	peers   map[model.SiteID][]knownStamp
	items   int
	scratch []wal.Have
	// serving is the peer Serve is building a batch for, and placement the
	// map it was called with; holds, made once, is the batch's skip
	// predicate over them.
	serving   model.SiteID
	placement *model.PartitionMap
	holds     func(model.ItemID, int64) bool
	// scope is the decoded scope of the fill being served, and outOfScope,
	// made once, the fill's skip predicate over it.
	scope      []model.ItemID
	outOfScope func(model.ItemID, int64) bool
}

// knownStamp is one slot of a peer's table: the newest stamp the peer is
// known to hold the item at, if held.
type knownStamp struct {
	stamp int64
	held  bool
}

// Reset drops everything believed about every peer and bounds the tables to
// items [0, items): the installed map's item count.
func (k *Known) Reset(items int) {
	k.items = items
	for peer, t := range k.peers {
		k.peers[peer] = t[:min(len(t), items)]
	}
	k.ForgetAll()
}

// Note records that peer holds item at commit stamp or newer.
func (k *Known) Note(peer model.SiteID, item model.ItemID, stamp int64) {
	bound := k.items
	if bound == 0 {
		bound = maxKnownItems
	}
	if uint(item) >= uint(bound) {
		return
	}
	t := k.peers[peer]
	if int(item) >= len(t) {
		if k.peers == nil {
			k.peers = make(map[model.SiteID][]knownStamp)
		}
		n := len(t)
		t = slices.Grow(t, int(item)+1-n)[:item+1]
		clear(t[n:]) // slots past the old length may hold what a Reset cut off
		k.peers[peer] = t
	}
	if slot := &t[item]; !slot.held || stamp > slot.stamp {
		*slot = knownStamp{stamp: stamp, held: true}
	}
}

// Learn folds a pull's digest into peer's table. A digest that does not
// decode is ignored whole.
func (k *Known) Learn(peer model.SiteID, have []byte) {
	entries, ok := DecodeHave(have, k.scratch[:0])
	k.scratch = entries
	if !ok {
		return
	}
	for _, h := range entries {
		k.Note(peer, h.Item, h.CommitMicros)
	}
}

// Forget drops everything believed about peer.
func (k *Known) Forget(peer model.SiteID) { clear(k.peers[peer]) }

// ForgetAll drops every table.
func (k *Known) ForgetAll() {
	for _, t := range k.peers {
		clear(t)
	}
}

// Holds reports whether peer is known to hold item at stamp or newer — the
// skip predicate of a batch built for that peer.
func (k *Known) Holds(peer model.SiteID, item model.ItemID, stamp int64) bool {
	t := k.peers[peer]
	if uint(item) >= uint(len(t)) {
		return false
	}
	return t[item].held && stamp <= t[item].stamp
}

// Serve answers one pull from src. A catch-up pull is served less what the
// puller is known to hold, and, when pm is not nil, less the records of
// items pm gives the puller no copy of: its store would skip them as unknown
// items. A catch-up pull from sequence zero is what a puller sends after a
// crash wiped its volatile state (Puller.ResetAll), and a Reset reply
// re-images it from the snapshot: either way what was believed about it is
// dropped first, and only this pull's own digest — collected after any such
// crash — is kept. A fill pull is served the records of its scope's items
// and nothing else, and neither reads nor changes what is known about the
// puller; ok is false when its scope does not decode, and the pull must go
// unanswered. The reply echoes the pull's epoch and incarnation; its Frames
// are appended to dst.
func (k *Known) Serve(from model.SiteID, src Source, pull model.ReplPullMsg, pm *model.PartitionMap, max int, dst []byte) (batch model.ReplRecordsMsg, ok bool, err error) {
	if pull.Epoch != 0 {
		if k.scope, ok = DecodeScope(pull.Scope, k.scope[:0]); !ok {
			return batch, false, nil
		}
		if k.outOfScope == nil {
			k.outOfScope = func(item model.ItemID, _ int64) bool {
				_, in := slices.BinarySearch(k.scope, item)
				return !in
			}
		}
		batch, err = BuildBatch(from, src, pull.AfterSeq, max, k.outOfScope, dst)
	} else {
		if pull.AfterSeq == 0 {
			k.Forget(pull.From)
		}
		k.Learn(pull.From, pull.Have)
		if k.holds == nil {
			k.holds = func(item model.ItemID, stamp int64) bool {
				return (k.placement != nil && !k.placement.Owns(item, k.serving)) || k.Holds(k.serving, item, stamp)
			}
		}
		k.serving, k.placement = pull.From, pm
		batch, err = BuildBatch(from, src, pull.AfterSeq, max, k.holds, dst)
		if err == nil && batch.Reset {
			k.Forget(pull.From)
			k.Learn(pull.From, pull.Have)
		}
	}
	batch.Epoch, batch.Incarnation = pull.Epoch, pull.Incarnation
	return batch, true, err
}
