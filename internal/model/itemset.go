package model

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// An item set is a strictly ascending list of items in [0, MaxInt32]: a
// QueueStatsMsg's copies, and internal/repl's journal digest and fill scope.
// It travels in one of two forms, whichever is shorter:
//
//   - a gap list: uvarint 2n, uvarint first item, then per later item the
//     uvarint of its gap from the item before, less one;
//   - a bitmap: uvarint 2·span+1, uvarint first item, then span bits, least
//     significant bit of each byte first, bit i set when first+i is in the
//     set; span runs from the first item to the last, so its first and last
//     bits are set, and the unused bits of the last byte are zero.
//
// The empty set is the one byte 0. A set of nearly every item in its span
// — a site's copies, or the items it journaled in a pull period — takes
// about one bit per item as a bitmap, where each gap takes a byte. The
// bitmap is chosen only when strictly shorter than the gap list, and
// WireReader.ItemSet rejects the other form, so each set has one encoding.

// AppendItemSet appends set, whose items item reads, onto b as an item set.
// The items must be non-negative and strictly ascending.
func AppendItemSet[E any](b []byte, set []E, item func(E) ItemID) []byte {
	if len(set) == 0 {
		return append(b, 0)
	}
	first := item(set[0])
	gapHdr := 2 * uint64(len(set))
	gapLen, prev := uvarintLen(gapHdr), first
	for _, e := range set[1:] {
		it := item(e)
		gapLen += uvarintLen(uint64(it - prev - 1))
		prev = it
	}
	span := uint64(prev-first) + 1
	if bitmapLen(span) < gapLen {
		b = AppendUvarint(AppendUvarint(b, 2*span+1), uint64(first))
		at, size := len(b), int(span+7)/8
		b = slices.Grow(b, size)[:at+size]
		clear(b[at:])
		for _, e := range set {
			i := uint64(item(e) - first)
			b[at+int(i/8)] |= 1 << (i % 8)
		}
		return b
	}
	b = AppendUvarint(AppendUvarint(b, gapHdr), uint64(first))
	prev = first
	for _, e := range set[1:] {
		it := item(e)
		b = AppendUvarint(b, uint64(it-prev-1))
		prev = it
	}
	return b
}

// uvarintLen is the length of v's uvarint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// bitmapLen is the length of a bitmap over span items, less the first item
// both forms code alike; a gap list's is its header's plus its gaps'.
func bitmapLen(span uint64) int { return uvarintLen(2*span+1) + int((span+7)/8) }

// ItemSet is an item set WireReader.ItemSet decoded: Len items, which Next
// returns in ascending order.
type ItemSet struct {
	n           int
	first, next ItemID
	// gaps is what is left of a gap list's gaps; bitmap is a bitmap's bits,
	// and pos the index of next's.
	gaps, bitmap []byte
	pos          int
}

// Len returns the number of items in the set.
func (s *ItemSet) Len() int { return s.n }

// Next returns the set's next item; call it at most Len times.
func (s *ItemSet) Next() ItemID {
	item := s.next
	if s.bitmap != nil {
		s.pos = nextBit(s.bitmap, s.pos+1)
		s.next = s.first + ItemID(s.pos)
	} else if len(s.gaps) > 0 {
		g, k := binary.Uvarint(s.gaps)
		s.gaps = s.gaps[k:]
		s.next = item + ItemID(g) + 1
	}
	return item
}

// ItemSet decodes an item set, checking the whole of it here: it fails on a
// truncation, an item past MaxInt32, a bitmap whose first or last bit is
// clear or whose padding is not zero, and the form not chosen by size.
func (r *WireReader) ItemSet() (s ItemSet) {
	hdr := r.Uvarint()
	if r.err != nil || hdr == 0 {
		return s
	}
	first := r.Uvarint()
	if r.err == nil && first > math.MaxInt32 {
		r.fail(ErrWireCorrupt)
	}
	if r.err != nil {
		return s
	}
	if hdr%2 == 0 {
		return r.gapList(hdr, first)
	}
	return r.bitmapSet(hdr, first)
}

func (r *WireReader) gapList(hdr, first uint64) ItemSet {
	n := hdr / 2
	if n-1 > uint64(len(r.b)) { // every gap takes a byte
		r.fail(ErrWireCorrupt)
		return ItemSet{}
	}
	gaps := r.b
	gapLen, last := uvarintLen(hdr), first
	for i := uint64(1); i < n; i++ {
		g := r.Uvarint()
		if r.err == nil && g >= math.MaxInt32-last {
			r.fail(ErrWireCorrupt)
		}
		if r.err != nil {
			return ItemSet{}
		}
		gapLen += uvarintLen(g)
		last += g + 1
	}
	if bitmapLen(last-first+1) < gapLen {
		r.fail(ErrWireCorrupt) // a bitmap is shorter
		return ItemSet{}
	}
	return ItemSet{n: int(n), first: ItemID(first), next: ItemID(first), gaps: gaps[:len(gaps)-len(r.b)]}
}

func (r *WireReader) bitmapSet(hdr, first uint64) ItemSet {
	span := hdr / 2
	if span == 0 || span-1 > math.MaxInt32-first {
		r.fail(ErrWireCorrupt)
		return ItemSet{}
	}
	size := (span + 7) / 8
	if size > uint64(len(r.b)) {
		r.fail(ErrWireCorrupt)
		return ItemSet{}
	}
	bm := r.b[:size]
	last := span - 1
	if bm[0]&1 == 0 || bm[last/8]>>(last%8) != 1 {
		r.fail(ErrWireCorrupt) // the first or last bit is clear, or padding is set
		return ItemSet{}
	}
	n, gapLen, prev := 1, 0, 0
	for i := nextBit(bm, 1); i < int(span); i = nextBit(bm, i+1) {
		gapLen += uvarintLen(uint64(i - prev - 1))
		n, prev = n+1, i
	}
	if bitmapLen(span) >= uvarintLen(2*uint64(n))+gapLen {
		r.fail(ErrWireCorrupt) // the gap list is no longer
		return ItemSet{}
	}
	r.b = r.b[size:]
	return ItemSet{n: n, first: ItemID(first), next: ItemID(first), bitmap: bm}
}

// nextBit returns the index of the first set bit of bm at or after i, or
// len(bm)*8 when there is none.
func nextBit(bm []byte, i int) int {
	for i < len(bm)*8 {
		if rest := bm[i/8] >> (i % 8); rest != 0 {
			return i + bits.TrailingZeros8(rest)
		}
		i = (i/8 + 1) * 8
	}
	return i
}
