package repl

import (
	"math"
	"math/bits"
	"slices"

	"ucc/internal/model"
	"ucc/internal/wal"
)

// AppendHave encodes a journal digest (wal.SiteLog.HaveSince: one entry per
// item, ascending, items non-negative) onto b: the items as an item set
// (model.AppendItemSet), the smallest commit stamp as a varint, a width
// byte w, then each entry's stamp less the smallest as a w-bit field, packed
// least significant bit first and padded to a byte with zero bits. w is the
// fewest bits that hold the largest offset: about 18 for the stamps of one
// pull period. The length is the carrying field's; an empty digest is zero
// bytes.
func AppendHave(b []byte, have []wal.Have) []byte {
	if len(have) == 0 {
		return b
	}
	b = model.AppendItemSet(b, have, haveItem)
	lo, hi := have[0].CommitMicros, have[0].CommitMicros
	for _, h := range have {
		lo, hi = min(lo, h.CommitMicros), max(hi, h.CommitMicros)
	}
	w := uint(bits.Len64(uint64(hi - lo)))
	b = append(model.AppendVarint(b, lo), byte(w))
	p := bitPacker{b: b}
	for _, h := range have {
		p.put(uint64(h.CommitMicros-lo), w)
	}
	return p.flush()
}

func haveItem(h wal.Have) model.ItemID { return h.Item }

// DecodeHave appends the entries of an encoded digest to dst. ok is false —
// and the digest must be treated as absent — unless b is the one encoding
// AppendHave gives its entries: on truncation or trailing bytes, an item
// set that does not decode or is empty, a width that is not the fewest
// bits, no stamp at the offset zero, a stamp past the int64 range, or
// padding bits set.
func DecodeHave(b []byte, dst []wal.Have) (have []wal.Have, ok bool) {
	if len(b) == 0 {
		return dst, true
	}
	rd := model.NewWireReader(b)
	set := rd.ItemSet()
	lo := rd.Varint()
	w := uint(rd.Byte())
	n, base := set.Len(), len(dst)
	if rd.Err() != nil || n == 0 || w > 64 || rd.Remaining() != (n*int(w)+7)/8 {
		return dst, false
	}
	// An offset past this would wrap the stamp past the int64 range.
	limit := uint64(math.MaxInt64) - uint64(lo)
	u := bitUnpacker{b: b[len(b)-rd.Remaining():]}
	var hi, least uint64 = 0, math.MaxUint64
	for range n {
		off := u.get(w)
		if off > limit {
			return dst[:base], false
		}
		hi, least = max(hi, off), min(least, off)
		dst = append(dst, wal.Have{Item: set.Next(), CommitMicros: lo + int64(off)})
	}
	if least != 0 || uint(bits.Len64(hi)) != w || u.acc != 0 {
		return dst[:base], false
	}
	return dst, true
}

// bitPacker appends fixed-width fields to b, least significant bit first.
type bitPacker struct {
	b   []byte
	acc uint64 // the bits not yet appended, fewer than 8 between puts
	n   uint
}

// put appends the low w bits of v, w at most 64.
func (p *bitPacker) put(v uint64, w uint) {
	for w > 0 {
		c := min(w, 32)
		p.acc |= (v & (1<<c - 1)) << p.n
		p.n += c
		v, w = v>>c, w-c
		for ; p.n >= 8; p.n -= 8 {
			p.b = append(p.b, byte(p.acc))
			p.acc >>= 8
		}
	}
}

// flush appends the last partial byte, its unused bits zero, and returns
// the bytes.
func (p *bitPacker) flush() []byte {
	if p.n > 0 {
		p.b = append(p.b, byte(p.acc))
	}
	return p.b
}

// bitUnpacker reads the fields a bitPacker packed; b must hold them all.
type bitUnpacker struct {
	b   []byte
	acc uint64 // the bits read from b and not yet returned: a padding check reads it at the end
	n   uint
}

// get returns the next w-bit field, w at most 64.
func (u *bitUnpacker) get(w uint) (v uint64) {
	for got := uint(0); got < w; {
		c := min(w-got, 32)
		for ; u.n < c; u.n += 8 {
			u.acc |= uint64(u.b[0]) << u.n
			u.b = u.b[1:]
		}
		v |= (u.acc & (1<<c - 1)) << got
		u.acc >>= c
		u.n -= c
		got += c
	}
	return v
}

// AppendScope encodes a fill's scope (ascending, non-negative items) onto b
// as an item set, the digest's item coding. An empty scope is zero bytes.
func AppendScope(b []byte, items []model.ItemID) []byte {
	if len(items) == 0 {
		return b
	}
	return model.AppendItemSet(b, items, func(item model.ItemID) model.ItemID { return item })
}

// DecodeScope appends the items of an encoded scope to dst. ok is false
// unless b is the one encoding AppendScope gives its items: the scope is
// then unusable, never "every item".
func DecodeScope(b []byte, dst []model.ItemID) (items []model.ItemID, ok bool) {
	if len(b) == 0 {
		return dst, true
	}
	rd := model.NewWireReader(b)
	set := rd.ItemSet()
	if rd.Err() != nil || set.Len() == 0 || rd.Remaining() != 0 {
		return dst, false
	}
	for range set.Len() {
		dst = append(dst, set.Next())
	}
	return dst, true
}

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
// numbers — bounded by the item count Reset set, which the owning manager
// calls with every map it installs: an item outside [0, bound) is not
// remembered, which only ships more.
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
	if uint(item) >= uint(k.items) {
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
// puller is known to hold, and less the records of items pm, the serving
// site's installed map, gives the puller no copy of: its store would skip
// them as unknown items. A catch-up pull from sequence zero is what a
// puller sends after a crash wiped its volatile state (Puller.ResetAll),
// and a Reset reply re-images it from the snapshot: either way what was
// believed about it is dropped first, and only this pull's own digest —
// collected after any such crash — is kept. A fill pull is served the
// records of its scope's items and nothing else, and neither reads nor
// changes what is known about the puller; ok is false when its scope does
// not decode, and the pull must go unanswered. The reply echoes the pull's
// epoch and incarnation; its Frames are appended to dst.
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
				return !k.placement.Owns(item, k.serving) || k.Holds(k.serving, item, stamp)
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
