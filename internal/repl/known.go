package repl

import (
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
		item := int64(prev.Item) + rd.Varint()
		stamp := prev.CommitMicros + rd.Varint()
		if rd.Err() != nil || int64(model.ItemID(item)) != item || (len(dst) > base && item <= int64(prev.Item)) {
			return dst[:base], false
		}
		prev = wal.Have{Item: model.ItemID(item), CommitMicros: stamp}
		dst = append(dst, prev)
	}
	return dst, true
}

// maxKnownItems bounds one peer's table in Known. Past it the table is
// cleared outright: forgetting only ships more.
const maxKnownItems = 1 << 16

// Known is what a serving site believes each pulling peer already holds: per
// peer, the newest commit stamp per item. Two things feed it — the digests
// the peer's pulls carry, and the records the peer itself ships (durable
// there) — and it exists to leave those records out of the peer's batches. A
// record is withheld only when its stamp is at or below the peer's, the
// exact mirror of storage.ApplyShipped's gate, so nothing is withheld the
// peer would have installed. A digest describes the peer's volatile state:
// Serve drops the table whenever the peer may have lost that state (see the
// package comment's Peer knowledge section). Like the Puller, it has no lock
// of its own; the owning queue manager serializes every call.
type Known struct {
	peers   map[model.SiteID]map[model.ItemID]int64
	scratch []wal.Have
	// serving is the peer Serve is building a batch for; holds, made once,
	// is the batch's skip predicate over it.
	serving model.SiteID
	holds   func(model.ItemID, int64) bool
}

// Note records that peer holds item at commit stamp or newer.
func (k *Known) Note(peer model.SiteID, item model.ItemID, stamp int64) {
	t := k.peers[peer]
	if t == nil {
		if k.peers == nil {
			k.peers = make(map[model.SiteID]map[model.ItemID]int64)
		}
		t = make(map[model.ItemID]int64)
		k.peers[peer] = t
	}
	cur, seen := t[item]
	if seen && stamp <= cur {
		return
	}
	if !seen && len(t) >= maxKnownItems {
		clear(t)
	}
	t[item] = stamp
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
func (k *Known) ForgetAll() { clear(k.peers) }

// Holds reports whether peer is known to hold item at stamp or newer — the
// skip predicate of a batch built for that peer.
func (k *Known) Holds(peer model.SiteID, item model.ItemID, stamp int64) bool {
	cur, ok := k.peers[peer][item]
	return ok && stamp <= cur
}

// Serve answers one pull from src, leaving out what the puller is known to
// hold. A pull from sequence zero is what a puller sends after a crash wiped
// its volatile state (Puller.ResetAll), and a Reset reply re-images it from
// the snapshot: either way what was believed about it is dropped first, and
// only this pull's own digest — collected after any such crash — is kept.
// The reply echoes the pull's incarnation; its Frames are appended to dst.
func (k *Known) Serve(from model.SiteID, src Source, pull model.ReplPullMsg, max int, dst []byte) (model.ReplRecordsMsg, error) {
	if pull.AfterSeq == 0 {
		k.Forget(pull.From)
	}
	k.Learn(pull.From, pull.Have)
	if k.holds == nil {
		k.holds = func(item model.ItemID, stamp int64) bool { return k.Holds(k.serving, item, stamp) }
	}
	k.serving = pull.From
	batch, err := BuildBatch(from, src, pull.AfterSeq, max, k.holds, dst)
	if err == nil && batch.Reset {
		k.Forget(pull.From)
		k.Learn(pull.From, pull.Have)
	}
	batch.Incarnation = pull.Incarnation
	return batch, err
}
