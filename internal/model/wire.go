package model

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Wire format v11: every message type that crosses a process carries a
// stable one-byte tag and an explicit, hand-rolled field encoder — varint
// integers, IEEE-754 bits for floats, length-prefixed strings and slices,
// sorted map keys so encoding is deterministic. No reflection anywhere on
// the path, which is what lets the transport encode and decode messages
// with zero steady-state allocations (see internal/wire for framing and
// buffer pooling); the WAL frames its records with the same varint
// primitives.
//
// Stamps are wall-clock microseconds, eight varint bytes each, and the
// stamps of one message mostly lie within milliseconds of each other. So a
// message's anchor, its one stamp that is not coded against another of its
// stamps, is coded against the connection (below), and each later stamp as
// the zig-zag difference from an earlier stamp of the same message:
// TxnDoneMsg's Done is the anchor, then Done−Arrival, then
// Arrival−FirstArrival; a grant's TS is the anchor (in a grant batch, the
// first member's; a later member's is the difference from the previous
// member's) and then CommitMicros−TS; a snapshot-reply batch member's
// CommitMicros is the anchor for the first member and the difference from
// the previous member's after it. The arithmetic wraps around int64, so
// every value round-trips and keeps exactly one encoding.
//
// Consecutive frames on one connection are microseconds and a few
// transactions apart, so the codec holds state between the messages of a
// connection, as header compression does between the packets of a TCP
// connection (RFC 1144): a WireStream, the last transaction Seq and the
// last anchor. Every transaction id codes its Seq as the difference from
// the last one, and every anchor as the difference from the last anchor
// (appendTxnID, appendAnchor). The tags whose codec touches the stream are
// pinned per version (TestStreamTagsPinned).
//
// A list of items — a QueueStatsMsg's copies, and internal/repl's journal
// digest and fill scope, which ReplPullMsg carries as opaque bytes — is an
// item set (itemset.go): a gap list, or a bitmap over the span from the
// first item to the last when that is shorter, as it is for a site's
// copies or for the items it journaled in a pull period.
//
// The tag values are part of the persistent wire contract: peers of different
// builds speak v11 to each other, so tags must NEVER be renumbered or
// reused — new message types append new tags. Field order is frozen per tag
// within a version; a change to any tag's bytes is a new wire version, which
// the transport's handshake refuses to mix. A process-local message (a
// timer, the WAL offload pair, a simulator fault) has no tag and no encoder:
// its wireTag is TagInvalid, and AppendBody refuses it.

// WireVersion is the format these encoders and internal/wire's framing
// speak. internal/transport opens every connection with it and derives its
// handshake ack from it, so a version bump is this one edit.
const WireVersion = 11

// WireTag identifies a message type on the wire.
type WireTag byte

const (
	// TagInvalid is reserved so the zero byte never decodes as a message.
	TagInvalid WireTag = 0

	TagRequest       WireTag = 1
	TagFinalTS       WireTag = 2
	TagRelease       WireTag = 3
	TagAbort         WireTag = 4
	TagGrant         WireTag = 5
	TagNormalGrant   WireTag = 6
	TagReject        WireTag = 7
	TagBackoff       WireTag = 8
	TagBusy          WireTag = 9
	TagVictim        WireTag = 10
	TagSnapRead      WireTag = 11
	TagSnapReadReply WireTag = 12
	TagWFGReport     WireTag = 13
	TagProbeWFG      WireTag = 14
	TagSubmitTxn     WireTag = 15
	TagTxnDone       WireTag = 16
	TagQueueStats    WireTag = 17
	TagEstimate      WireTag = 18
	// Tags 19 to 21 (TickMsg, ComputeDoneMsg, RestartMsg) are retired.
	TagTxnFinished WireTag = 22
	// Tags 23 to 26 (StopMsg, CrashMsg, RecoverMsg, FlushMsg) are retired.
	TagReplPull    WireTag = 27
	TagReplRecords WireTag = 28

	TagWrongEpoch WireTag = 29
	TagMapInstall WireTag = 30
	TagMapUpdate  WireTag = 31
	// Tags 32 and 33 (the rebalance transfer's pull and reply) are retired.

	// Batches of two or more copies (a batch of one travels under its single
	// message's tag, see batchTag).
	TagRequestBatch WireTag = 34
	TagReleaseBatch WireTag = 35
	TagGrantBatch   WireTag = 36

	TagSnapReadBatch      WireTag = 37
	TagSnapReadReplyBatch WireTag = 38

	TagAbortBatch WireTag = 39
	// Tag 40 (FlushDoneMsg) is retired: the next new tag is 41.
)

// MaxTag is the highest tag a message type can ever take: the frame
// header holds the tag in its low six bits (internal/wire), so the tags run
// out at 63 (TestTagsFitTheHeader).
const MaxTag WireTag = 63

// TagLast is the highest live tag, the decode table's last row
// (corpus-coverage loops range over TagRequest..TagLast, less TagRetired).
// The retired tag 40 lies above it.
const TagLast = WireTag(len(codecs) - 1)

// TagRetired reports whether tag belonged to a message type that no longer
// travels, and is never reused. Its decode-table row is empty, so it decodes
// as an unknown tag. Tags 32 and 33 retired with wire v7, when a rebalance
// fill became a ReplPullMsg; 19 to 21, 23 to 26 and 40 with wire v9, when
// the process-local messages that held them lost their encodings.
func TagRetired(tag WireTag) bool {
	switch tag {
	case 19, 20, 21, 23, 24, 25, 26, 32, 33, 40:
		return true
	}
	return false
}

// wireMessage is a Message that crosses a process: one with a tag.
type wireMessage interface {
	Message
	// AppendWire encodes the message body (no tag) onto b against the
	// connection's stream state s, which it advances past the message.
	AppendWire(b []byte, s *WireStream) []byte
}

// MessageTag returns the tag m travels under; ok is false for nil, for an
// empty batch and for a process-local message, which have no encoding.
func MessageTag(m Message) (WireTag, bool) {
	if m == nil {
		return TagInvalid, false
	}
	tag := m.wireTag()
	return tag, tag != TagInvalid
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

// ErrWireTruncated reports a decode that ran off the end of its payload.
var ErrWireTruncated = errors.New("model: wire payload truncated")

// ErrWireCorrupt reports a structurally invalid payload (an element count
// larger than the bytes that could possibly back it, an over-long varint, a
// bool that is neither 0 nor 1).
var ErrWireCorrupt = errors.New("model: wire payload corrupt")

// ErrWireUnknownTag reports a message tag this build does not know.
var ErrWireUnknownTag = errors.New("model: unknown wire message tag")

// ErrNoEncoding reports a nil message, a batch with no members or a
// process-local message.
var ErrNoEncoding = errors.New("model: message has no wire encoding")

// AppendUvarint appends v in unsigned LEB128.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v zig-zag encoded.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendWireBool appends a bool as one byte (0 or 1).
func AppendWireBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendWireF64 appends a float64 as its IEEE-754 bits, little-endian. Fixed
// width (not varint) so every bit pattern — including NaNs — round-trips to
// identical bytes.
func AppendWireF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendWireString appends a uvarint length prefix followed by the bytes.
func AppendWireString(b []byte, s string) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// WireReader decodes the primitives with error latching: the first failure
// sticks, every later read returns zero values, and the caller checks Err()
// once at the end. That keeps per-field decode branch-free and makes
// truncated or corrupt payloads fail cleanly instead of panicking.
type WireReader struct {
	b   []byte
	err error
	s   WireStream
}

// NewWireReader wraps a payload for decoding, against the zero WireStream.
func NewWireReader(b []byte) WireReader { return WireReader{b: b} }

// NewStreamReader wraps a frame's payload for decoding against s, the state
// the connection's earlier frames left.
func NewStreamReader(b []byte, s WireStream) WireReader { return WireReader{b: b, s: s} }

// Stream returns the stream state as the decode so far has advanced it.
func (r *WireReader) Stream() WireStream { return r.s }

// Err returns the first decode failure, or nil.
func (r *WireReader) Err() error { return r.err }

// Remaining returns the number of undecoded bytes.
func (r *WireReader) Remaining() int { return len(r.b) }

func (r *WireReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Byte decodes one byte.
func (r *WireReader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail(ErrWireTruncated)
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// Uvarint decodes an unsigned LEB128 integer, rejecting overlong encodings
// (a continuation group that contributes no bits, e.g. 0x80 0x00 for zero):
// like the bool rule below, each value has exactly one accepted encoding, so
// decode is injective and re-encoding a decoded payload reproduces its bytes.
func (r *WireReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		if n == 0 {
			r.fail(ErrWireTruncated)
		} else {
			r.fail(ErrWireCorrupt) // 64-bit overflow
		}
		return 0
	}
	if n > 1 && v>>(7*(n-1)) == 0 {
		r.fail(ErrWireCorrupt) // overlong: the last group was all padding
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint decodes a zig-zag integer (layered on Uvarint, so it inherits the
// overlong-encoding rejection).
func (r *WireReader) Varint() int64 {
	ux := r.Uvarint()
	return int64(ux>>1) ^ -int64(ux&1)
}

// Varint32 decodes a zig-zag integer that must fit in 32 bits (site ids,
// item ids, shard indexes). Out-of-range values are corrupt, not silently
// truncated — truncation would decode two distinct byte strings to the same
// message, breaking the one-encoding-per-message invariant.
func (r *WireReader) Varint32() int32 {
	v := r.Varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		r.fail(ErrWireCorrupt)
		return 0
	}
	return int32(v)
}

// Uvarint32 decodes an unsigned integer that must fit in 32 bits (attempt
// counters); see Varint32 for why overflow is corrupt.
func (r *WireReader) Uvarint32() uint32 {
	v := r.Uvarint()
	if v > math.MaxUint32 {
		r.fail(ErrWireCorrupt)
		return 0
	}
	return uint32(v)
}

// Bool decodes a one-byte bool, rejecting values other than 0 and 1 (so the
// canonical encoding is unique and re-encoding reproduces input bytes).
func (r *WireReader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(ErrWireCorrupt)
		return false
	}
}

// F64 decodes fixed-width IEEE-754 bits.
func (r *WireReader) F64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.fail(ErrWireTruncated)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// String decodes a length-prefixed string.
func (r *WireReader) String() string {
	n := r.Count(1)
	if r.err != nil || n == 0 {
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// Bytes decodes a length-prefixed byte slice (zero length decodes to nil, the
// same value a nil slice encodes from, so the encoding stays canonical).
func (r *WireReader) Bytes() []byte { return r.BytesInto(nil) }

// BytesInto is Bytes copying into buf's array, which it reuses when it has
// room: the pooled decoders keep that array across recycles.
func (r *WireReader) BytesInto(buf []byte) []byte {
	n := r.Count(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := append(buf[:0], r.b[:n]...)
	r.b = r.b[n:]
	return out
}

// Count decodes a uvarint element count and validates it against the bytes
// actually remaining (each element needs at least elemMin bytes). An
// oversized length prefix — the classic decompression-bomb shape — therefore
// errors immediately instead of driving a giant allocation.
func (r *WireReader) Count(elemMin int) int {
	v := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if elemMin < 1 {
		elemMin = 1
	}
	if v > uint64(len(r.b)/elemMin) {
		r.fail(ErrWireCorrupt)
		return 0
	}
	return int(v)
}

// ---------------------------------------------------------------------------
// Shared sub-encoders
// ---------------------------------------------------------------------------

// WireStream is the state one direction of a connection carries from frame
// to frame: the Seq of the last transaction id coded and the last anchor
// stamp (see appendAnchor). A connection's writer and its reader each start
// from the zero WireStream, which is a fresh connection's, and advance theirs
// in frame order — the writer only for a frame it sends, the reader only for
// one it decodes — so the two are equal at every frame boundary.
type WireStream struct {
	seq    uint64
	anchor int64
}

// zigzag maps v onto the unsigned integers, small magnitudes to small
// values, as AppendVarint does.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(z uint64) int64 { return int64(z>>1) ^ -int64(z&1) }

// appendTxnID encodes id: its site, then its Seq as the zig-zag difference
// from the stream's last Seq, which it becomes. Consecutive frames on one
// connection name transactions a few sequence numbers apart, so the
// difference takes a byte or two where a Seq near 10⁶ takes three. The
// difference wraps around uint64, so every Seq round-trips.
func appendTxnID(b []byte, s *WireStream, id TxnID) []byte {
	b = AppendVarint(b, int64(id.Site))
	b = AppendVarint(b, int64(id.Seq-s.seq))
	s.seq = id.Seq
	return b
}

func (r *WireReader) txnID() TxnID {
	site := SiteID(r.Varint32())
	r.s.seq += uint64(r.Varint())
	return TxnID{Site: site, Seq: r.s.seq}
}

// appendAnchor encodes v, a message's anchor — the one stamp it does not
// code as a delta from another of its stamps — against the stream. The
// stamps 0 and NoTimestamp (a 2PL request's) are the one-byte codes 0 and
// 1 and leave the stream's anchor alone. Any other stamp becomes the
// stream's anchor, coded as the zig-zag difference z from the previous
// one: z+2, less one for each of the two stamps with codes of their own
// that z passes over, so every stamp has exactly one code. The difference
// wraps around int64. A stamp microseconds after the previous frame's takes
// a byte or two where a wall-clock stamp takes eight, and on a fresh
// connection (anchor 0) every stamp takes exactly its AppendVarint bytes.
func appendAnchor(b []byte, s *WireStream, v int64) []byte {
	if v == 0 || v == int64(NoTimestamp) {
		return append(b, byte(-v))
	}
	z := zigzag(v - s.anchor)
	lo, hi := anchorSkips(s.anchor)
	code := z + 2 // wraps when z is near 2⁶⁴, and the decrements unwrap it
	if z > lo {
		code--
	}
	if z > hi {
		code--
	}
	s.anchor = v
	return AppendUvarint(b, code)
}

func (r *WireReader) anchor() int64 {
	code := r.Uvarint()
	if code < 2 {
		return -int64(code)
	}
	z := code - 2
	lo, hi := anchorSkips(r.s.anchor)
	if z >= lo {
		z++
	}
	if z >= hi {
		z++
	}
	r.s.anchor += unzigzag(z)
	return r.s.anchor
}

// anchorSkips are the zig-zag differences from anchor of the stamps 0 and
// NoTimestamp, which have codes of their own, in ascending order.
func anchorSkips(anchor int64) (lo, hi uint64) {
	lo, hi = zigzag(-anchor), zigzag(int64(NoTimestamp)-anchor)
	if lo > hi {
		lo, hi = hi, lo
	}
	return lo, hi
}

func appendCopyID(b []byte, c CopyID) []byte {
	b = AppendVarint(b, int64(c.Item))
	return AppendVarint(b, int64(c.Site))
}

func (r *WireReader) copyID() CopyID {
	return CopyID{Item: ItemID(r.Varint32()), Site: SiteID(r.Varint32())}
}

// appendHdr encodes the (Txn, Attempt, Copy) triple most protocol messages
// open with.
func appendHdr(b []byte, s *WireStream, txn TxnID, at Attempt, c CopyID) []byte {
	b = appendTxnID(b, s, txn)
	b = AppendUvarint(b, uint64(at))
	return appendCopyID(b, c)
}

func (r *WireReader) hdr() (TxnID, Attempt, CopyID) {
	txn := r.txnID()
	at := Attempt(r.Uvarint32())
	return txn, at, r.copyID()
}

func appendItemF64Map(b []byte, m map[ItemID]float64) []byte {
	keys := make([]ItemID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	b = AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = AppendVarint(b, int64(k))
		b = AppendWireF64(b, m[k])
	}
	return b
}

func (r *WireReader) itemF64Map() map[ItemID]float64 {
	n := r.Count(9)
	if r.err != nil {
		return nil
	}
	m := make(map[ItemID]float64, n)
	var prev ItemID
	for i := 0; i < n; i++ {
		k := ItemID(r.Varint32())
		if i > 0 && k <= prev {
			// Keys must be strictly ascending — the order the encoder emits.
			// Accepting any other order (or duplicates) would give one map
			// two byte encodings, breaking decode injectivity.
			r.fail(ErrWireCorrupt)
			return nil
		}
		prev = k
		m[k] = r.F64()
	}
	return m
}

func appendItems(b []byte, items []ItemID) []byte {
	b = AppendUvarint(b, uint64(len(items)))
	for _, it := range items {
		b = AppendVarint(b, int64(it))
	}
	return b
}

// appendItems decodes a counted item list onto dst.
func (r *WireReader) appendItems(dst []ItemID) []ItemID {
	n := r.Count(1)
	for i := 0; i < n; i++ {
		dst = append(dst, ItemID(r.Varint32()))
	}
	return dst
}

// itemSets decodes a transaction's read and write sets into one array,
// items emptied and grown as needed, and returns that array with the two
// sets. The write set's count sits behind the read set's items, so a copy
// of the reader looks ahead for it first. Each set is a capped sub-slice —
// an append to one reallocates instead of writing into the other — and an
// empty set decodes to nil, as it encodes from.
func (r *WireReader) itemSets(items []ItemID) (all, reads, writes []ItemID) {
	ahead := *r
	nr := ahead.Count(1)
	for i := 0; i < nr; i++ {
		ahead.Varint32()
	}
	nw := ahead.Count(1)
	if ahead.err != nil || nr+nw == 0 {
		r.appendItems(nil) // latches the same error, or reads two empty counts
		r.appendItems(nil)
		return items, nil, nil
	}
	if cap(items) < nr+nw {
		items = make([]ItemID, 0, nr+nw)
	}
	items = r.appendItems(r.appendItems(items[:0]))
	return items, subSet(items, 0, nr), subSet(items, nr, nr+nw)
}

// ---------------------------------------------------------------------------
// Per-message encoders (the wire contract; field order is frozen per tag
// within a version)
// ---------------------------------------------------------------------------

// AppendWire encodes the message body (no tag) onto b.
func (m RequestMsg) AppendWire(b []byte, s *WireStream) []byte {
	b = appendHdr(b, s, m.Txn, m.Attempt, m.Copy)
	b = append(b, byte(m.Protocol), byte(m.Kind))
	b = appendAnchor(b, s, int64(m.TS))
	b = AppendVarint(b, int64(m.Interval))
	b = AppendVarint(b, int64(m.Site))
	return AppendUvarint(b, m.Epoch)
}

// decodeRequest decodes a RequestMsg body as the batch of one it stands
// for, its member into members[:0] (see decodeRequestBatch).
func decodeRequest(r *WireReader, members []RequestMember) (m RequestBatchMsg) {
	var c CopyID
	m.Txn, m.Attempt, c = r.hdr()
	m.CopySite = c.Site
	m.Protocol = Protocol(r.Byte())
	m.Members = append(members[:0], RequestMember{Item: c.Item, Kind: OpKind(r.Byte())})
	m.TS = Timestamp(r.anchor())
	m.Interval = Timestamp(r.Varint())
	m.Site = SiteID(r.Varint32())
	m.Epoch = r.Uvarint()
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m FinalTSMsg) AppendWire(b []byte, s *WireStream) []byte {
	b = appendHdr(b, s, m.Txn, m.Attempt, m.Copy)
	return appendAnchor(b, s, int64(m.TS))
}

func decodeFinalTS(r *WireReader) (m FinalTSMsg) {
	m.Txn, m.Attempt, m.Copy = r.hdr()
	m.TS = Timestamp(r.anchor())
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m ReleaseMsg) AppendWire(b []byte, s *WireStream) []byte {
	b = appendHdr(b, s, m.Txn, m.Attempt, m.Copy)
	b = AppendWireBool(b, m.ToSemi)
	b = AppendWireBool(b, m.HasWrite)
	b = AppendVarint(b, m.Value)
	return appendAnchor(b, s, m.CommitMicros)
}

// decodeRelease decodes a ReleaseMsg body as the batch of one it stands
// for (see decodeRequest).
func decodeRelease(r *WireReader, members []ReleaseMember) (m ReleaseBatchMsg) {
	var c CopyID
	m.Txn, m.Attempt, c = r.hdr()
	m.CopySite = c.Site
	m.ToSemi = r.Bool()
	m.Members = append(members[:0], ReleaseMember{Item: c.Item, HasWrite: r.Bool(), Value: r.Varint()})
	m.CommitMicros = r.anchor()
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m AbortMsg) AppendWire(b []byte, s *WireStream) []byte {
	return appendHdr(b, s, m.Txn, m.Attempt, m.Copy)
}

// decodeAbort decodes an AbortMsg body as the batch of one it stands for
// (see decodeRequest).
func decodeAbort(r *WireReader, members []ItemID) (m AbortBatchMsg) {
	var c CopyID
	m.Txn, m.Attempt, c = r.hdr()
	m.CopySite, m.Members = c.Site, append(members[:0], c.Item)
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m GrantMsg) AppendWire(b []byte, s *WireStream) []byte {
	b = appendHdr(b, s, m.Txn, m.Attempt, m.Copy)
	b = append(b, byte(m.Lock))
	b = AppendWireBool(b, m.PreScheduled)
	b = appendAnchor(b, s, int64(m.TS))
	b = AppendVarint(b, m.Value)
	b = AppendUvarint(b, m.Version)
	return AppendVarint(b, m.CommitMicros-int64(m.TS))
}

// decodeGrant decodes a GrantMsg body as the batch of one it stands for
// (see decodeRequest).
func decodeGrant(r *WireReader, members []GrantMember) (m GrantBatchMsg) {
	var c CopyID
	m.Txn, m.Attempt, c = r.hdr()
	m.CopySite = c.Site
	x := GrantMember{
		Item:         c.Item,
		Lock:         LockKind(r.Byte()),
		PreScheduled: r.Bool(),
		TS:           Timestamp(r.anchor()),
		Value:        r.Varint(),
		Version:      r.Uvarint(),
	}
	x.CommitMicros = r.Varint() + int64(x.TS)
	m.Members = append(members[:0], x)
	return m
}

// Batches. On the wire a batch carries at least two members: a batch of one
// is encoded as the single message it stands for, under that message's tag
// (batchTag), and that tag decodes back to the batch of one (decodeRequest,
// ...), so the batch decoders reject smaller counts and every message keeps
// exactly one encoding. The shared fields lead, in the order of the single
// message's.

// batchCount decodes a batch's member count (at least two; see above).
func (r *WireReader) batchCount(elemMin int) int {
	n := r.Count(elemMin)
	if r.err == nil && n < 2 {
		r.fail(ErrWireCorrupt)
	}
	if r.err != nil {
		return 0
	}
	return n
}

// AppendWire encodes the body (no tag) onto b: a batch of one as the
// RequestMsg it stands for.
func (m RequestBatchMsg) AppendWire(b []byte, s *WireStream) []byte {
	if len(m.Members) == 1 {
		return m.Request(0).AppendWire(b, s)
	}
	b = appendTxnID(b, s, m.Txn)
	b = AppendUvarint(b, uint64(m.Attempt))
	b = AppendVarint(b, int64(m.CopySite))
	b = append(b, byte(m.Protocol))
	b = appendAnchor(b, s, int64(m.TS))
	b = AppendVarint(b, int64(m.Interval))
	b = AppendVarint(b, int64(m.Site))
	b = AppendUvarint(b, m.Epoch)
	b = AppendUvarint(b, uint64(len(m.Members)))
	for _, x := range m.Members {
		b = AppendVarint(b, int64(x.Item))
		b = append(b, byte(x.Kind))
	}
	return b
}

// decodeRequestBatch decodes a batch body, appending the members to
// members[:0] (a pooled message's retained array, or nil).
func decodeRequestBatch(r *WireReader, members []RequestMember) (m RequestBatchMsg) {
	m.Txn = r.txnID()
	m.Attempt = Attempt(r.Uvarint32())
	m.CopySite = SiteID(r.Varint32())
	m.Protocol = Protocol(r.Byte())
	m.TS = Timestamp(r.anchor())
	m.Interval = Timestamp(r.Varint())
	m.Site = SiteID(r.Varint32())
	m.Epoch = r.Uvarint()
	n := r.batchCount(2)
	members = slices.Grow(members[:0], n)
	for i := 0; i < n; i++ {
		members = append(members, RequestMember{Item: ItemID(r.Varint32()), Kind: OpKind(r.Byte())})
	}
	m.Members = members
	return m
}

// AppendWire encodes the body (no tag) onto b: a batch of one as the
// ReleaseMsg it stands for.
func (m ReleaseBatchMsg) AppendWire(b []byte, s *WireStream) []byte {
	if len(m.Members) == 1 {
		return m.Release(0).AppendWire(b, s)
	}
	b = appendTxnID(b, s, m.Txn)
	b = AppendUvarint(b, uint64(m.Attempt))
	b = AppendVarint(b, int64(m.CopySite))
	b = AppendWireBool(b, m.ToSemi)
	b = appendAnchor(b, s, m.CommitMicros)
	b = AppendUvarint(b, uint64(len(m.Members)))
	for _, x := range m.Members {
		b = AppendVarint(b, int64(x.Item))
		b = AppendWireBool(b, x.HasWrite)
		b = AppendVarint(b, x.Value)
	}
	return b
}

// decodeReleaseBatch decodes a batch body into members[:0] (see
// decodeRequestBatch).
func decodeReleaseBatch(r *WireReader, members []ReleaseMember) (m ReleaseBatchMsg) {
	m.Txn = r.txnID()
	m.Attempt = Attempt(r.Uvarint32())
	m.CopySite = SiteID(r.Varint32())
	m.ToSemi = r.Bool()
	m.CommitMicros = r.anchor()
	n := r.batchCount(3)
	members = slices.Grow(members[:0], n)
	for i := 0; i < n; i++ {
		members = append(members, ReleaseMember{Item: ItemID(r.Varint32()), HasWrite: r.Bool(), Value: r.Varint()})
	}
	m.Members = members
	return m
}

// AppendWire encodes the body (no tag) onto b: a batch of one as the
// AbortMsg it stands for.
func (m AbortBatchMsg) AppendWire(b []byte, s *WireStream) []byte {
	if len(m.Members) == 1 {
		return m.Abort(0).AppendWire(b, s)
	}
	b = appendTxnID(b, s, m.Txn)
	b = AppendUvarint(b, uint64(m.Attempt))
	b = AppendVarint(b, int64(m.CopySite))
	return appendItems(b, m.Members)
}

// decodeAbortBatch decodes a batch body into members[:0] (see
// decodeRequestBatch).
func decodeAbortBatch(r *WireReader, members []ItemID) (m AbortBatchMsg) {
	m.Txn = r.txnID()
	m.Attempt = Attempt(r.Uvarint32())
	m.CopySite = SiteID(r.Varint32())
	n := r.batchCount(1)
	members = slices.Grow(members[:0], n)
	for i := 0; i < n; i++ {
		members = append(members, ItemID(r.Varint32()))
	}
	m.Members = members
	return m
}

// AppendWire encodes the body (no tag) onto b: a batch of one as the
// GrantMsg it stands for.
func (m GrantBatchMsg) AppendWire(b []byte, s *WireStream) []byte {
	if len(m.Members) == 1 {
		return m.Grant(0).AppendWire(b, s)
	}
	b = appendTxnID(b, s, m.Txn)
	b = AppendUvarint(b, uint64(m.Attempt))
	b = AppendVarint(b, int64(m.CopySite))
	b = AppendUvarint(b, uint64(len(m.Members)))
	for i, x := range m.Members {
		b = AppendVarint(b, int64(x.Item))
		b = append(b, byte(x.Lock))
		b = AppendWireBool(b, x.PreScheduled)
		if i == 0 {
			b = appendAnchor(b, s, int64(x.TS))
		} else {
			b = AppendVarint(b, int64(x.TS-m.Members[i-1].TS))
		}
		b = AppendVarint(b, x.Value)
		b = AppendUvarint(b, x.Version)
		b = AppendVarint(b, x.CommitMicros-int64(x.TS))
	}
	return b
}

// decodeGrantBatch decodes a batch body into members[:0] (see
// decodeRequestBatch).
func decodeGrantBatch(r *WireReader, members []GrantMember) (m GrantBatchMsg) {
	m.Txn = r.txnID()
	m.Attempt = Attempt(r.Uvarint32())
	m.CopySite = SiteID(r.Varint32())
	n := r.batchCount(7)
	members = slices.Grow(members[:0], n)
	for i := 0; i < n; i++ {
		x := GrantMember{
			Item:         ItemID(r.Varint32()),
			Lock:         LockKind(r.Byte()),
			PreScheduled: r.Bool(),
		}
		if i == 0 {
			x.TS = Timestamp(r.anchor())
		} else {
			x.TS = members[i-1].TS + Timestamp(r.Varint())
		}
		x.Value = r.Varint()
		x.Version = r.Uvarint()
		x.CommitMicros = r.Varint() + int64(x.TS)
		members = append(members, x)
	}
	m.Members = members
	return m
}

// AppendWire encodes the body (no tag) onto b: a batch of one as the
// SnapReadMsg it stands for.
func (m SnapReadBatchMsg) AppendWire(b []byte, s *WireStream) []byte {
	if len(m.Members) == 1 {
		return m.SnapRead(0).AppendWire(b, s)
	}
	b = appendTxnID(b, s, m.Txn)
	b = AppendUvarint(b, uint64(m.Attempt))
	b = AppendVarint(b, int64(m.CopySite))
	b = appendAnchor(b, s, m.SnapMicros)
	b = AppendVarint(b, int64(m.Site))
	b = AppendUvarint(b, m.Epoch)
	return appendItems(b, m.Members)
}

// decodeSnapReadBatch decodes a batch body into members[:0] (see
// decodeRequestBatch).
func decodeSnapReadBatch(r *WireReader, members []ItemID) (m SnapReadBatchMsg) {
	m.Txn = r.txnID()
	m.Attempt = Attempt(r.Uvarint32())
	m.CopySite = SiteID(r.Varint32())
	m.SnapMicros = r.anchor()
	m.Site = SiteID(r.Varint32())
	m.Epoch = r.Uvarint()
	n := r.batchCount(1)
	members = slices.Grow(members[:0], n)
	for i := 0; i < n; i++ {
		members = append(members, ItemID(r.Varint32()))
	}
	m.Members = members
	return m
}

// AppendWire encodes the body (no tag) onto b: a batch of one as the
// SnapReadReplyMsg it stands for.
func (m SnapReadReplyBatchMsg) AppendWire(b []byte, s *WireStream) []byte {
	if len(m.Members) == 1 {
		return m.Reply(0).AppendWire(b, s)
	}
	b = appendTxnID(b, s, m.Txn)
	b = AppendUvarint(b, uint64(m.Attempt))
	b = AppendVarint(b, int64(m.CopySite))
	b = AppendUvarint(b, uint64(len(m.Members)))
	for i, x := range m.Members {
		b = AppendVarint(b, int64(x.Item))
		b = AppendVarint(b, x.Value)
		b = AppendUvarint(b, x.Version)
		if i == 0 {
			b = appendAnchor(b, s, x.CommitMicros)
		} else {
			b = AppendVarint(b, x.CommitMicros-m.Members[i-1].CommitMicros)
		}
		b = AppendWireBool(b, x.Exact)
	}
	return b
}

// decodeSnapReadReplyBatch decodes a batch body into members[:0] (see
// decodeRequestBatch).
func decodeSnapReadReplyBatch(r *WireReader, members []SnapReadReplyMember) (m SnapReadReplyBatchMsg) {
	m.Txn = r.txnID()
	m.Attempt = Attempt(r.Uvarint32())
	m.CopySite = SiteID(r.Varint32())
	n := r.batchCount(5)
	members = slices.Grow(members[:0], n)
	for i := 0; i < n; i++ {
		x := SnapReadReplyMember{Item: ItemID(r.Varint32()), Value: r.Varint(), Version: r.Uvarint()}
		if i == 0 {
			x.CommitMicros = r.anchor()
		} else {
			x.CommitMicros = members[i-1].CommitMicros + r.Varint()
		}
		x.Exact = r.Bool()
		members = append(members, x)
	}
	m.Members = members
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m NormalGrantMsg) AppendWire(b []byte, s *WireStream) []byte {
	return appendHdr(b, s, m.Txn, m.Attempt, m.Copy)
}

func decodeNormalGrant(r *WireReader) (m NormalGrantMsg) {
	m.Txn, m.Attempt, m.Copy = r.hdr()
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m RejectMsg) AppendWire(b []byte, s *WireStream) []byte {
	b = appendHdr(b, s, m.Txn, m.Attempt, m.Copy)
	return appendAnchor(b, s, int64(m.Threshold))
}

func decodeReject(r *WireReader) (m RejectMsg) {
	m.Txn, m.Attempt, m.Copy = r.hdr()
	m.Threshold = Timestamp(r.anchor())
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m BackoffMsg) AppendWire(b []byte, s *WireStream) []byte {
	b = appendHdr(b, s, m.Txn, m.Attempt, m.Copy)
	return appendAnchor(b, s, int64(m.NewTS))
}

func decodeBackoff(r *WireReader) (m BackoffMsg) {
	m.Txn, m.Attempt, m.Copy = r.hdr()
	m.NewTS = Timestamp(r.anchor())
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m BusyMsg) AppendWire(b []byte, s *WireStream) []byte {
	return appendHdr(b, s, m.Txn, m.Attempt, m.Copy)
}

func decodeBusy(r *WireReader) (m BusyMsg) {
	m.Txn, m.Attempt, m.Copy = r.hdr()
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m VictimMsg) AppendWire(b []byte, s *WireStream) []byte {
	b = appendTxnID(b, s, m.Txn)
	b = AppendUvarint(b, uint64(m.Attempt))
	b = AppendUvarint(b, uint64(len(m.Cycle)))
	for _, t := range m.Cycle {
		b = appendTxnID(b, s, t)
	}
	return b
}

func decodeVictim(r *WireReader) (m VictimMsg) {
	m.Txn = r.txnID()
	m.Attempt = Attempt(r.Uvarint32())
	n := r.Count(2)
	if r.err != nil || n == 0 {
		return m
	}
	m.Cycle = make([]TxnID, n)
	for i := range m.Cycle {
		m.Cycle[i] = r.txnID()
	}
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m SnapReadMsg) AppendWire(b []byte, s *WireStream) []byte {
	b = appendHdr(b, s, m.Txn, m.Attempt, m.Copy)
	b = appendAnchor(b, s, m.SnapMicros)
	b = AppendVarint(b, int64(m.Site))
	return AppendUvarint(b, m.Epoch)
}

// decodeSnapRead decodes a SnapReadMsg body as the batch of one it stands
// for (see decodeRequest).
func decodeSnapRead(r *WireReader, members []ItemID) (m SnapReadBatchMsg) {
	var c CopyID
	m.Txn, m.Attempt, c = r.hdr()
	m.CopySite, m.Members = c.Site, append(members[:0], c.Item)
	m.SnapMicros = r.anchor()
	m.Site = SiteID(r.Varint32())
	m.Epoch = r.Uvarint()
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m SnapReadReplyMsg) AppendWire(b []byte, s *WireStream) []byte {
	b = appendHdr(b, s, m.Txn, m.Attempt, m.Copy)
	b = AppendVarint(b, m.Value)
	b = AppendUvarint(b, m.Version)
	b = appendAnchor(b, s, m.CommitMicros)
	return AppendWireBool(b, m.Exact)
}

// decodeSnapReadReply decodes a SnapReadReplyMsg body as the batch of one it
// stands for (see decodeRequest).
func decodeSnapReadReply(r *WireReader, members []SnapReadReplyMember) (m SnapReadReplyBatchMsg) {
	var c CopyID
	m.Txn, m.Attempt, c = r.hdr()
	m.CopySite = c.Site
	m.Members = append(members[:0], SnapReadReplyMember{
		Item: c.Item, Value: r.Varint(), Version: r.Uvarint(), CommitMicros: r.anchor(), Exact: r.Bool(),
	})
	return m
}

func appendWaitEdge(b []byte, s *WireStream, e WaitEdge) []byte {
	b = appendTxnID(b, s, e.Waiter)
	b = appendTxnID(b, s, e.Holder)
	b = AppendWireBool(b, e.Waiter2PL)
	b = AppendWireBool(b, e.Holder2PL)
	b = AppendVarint(b, int64(e.WaiterSite))
	b = AppendUvarint(b, uint64(e.WaiterSeq))
	b = appendCopyID(b, e.Copy)
	return AppendVarint(b, int64(e.WaiterIssuer))
}

func (r *WireReader) waitEdge() (e WaitEdge) {
	e.Waiter = r.txnID()
	e.Holder = r.txnID()
	e.Waiter2PL = r.Bool()
	e.Holder2PL = r.Bool()
	e.WaiterSite = SiteID(r.Varint32())
	e.WaiterSeq = Attempt(r.Uvarint32())
	e.Copy = r.copyID()
	e.WaiterIssuer = SiteID(r.Varint32())
	return e
}

// AppendWire encodes the message body (no tag) onto b.
func (m WFGReportMsg) AppendWire(b []byte, s *WireStream) []byte {
	b = AppendVarint(b, int64(m.From))
	b = AppendUvarint(b, m.Round)
	b = AppendUvarint(b, uint64(len(m.Edges)))
	for _, e := range m.Edges {
		b = appendWaitEdge(b, s, e)
	}
	return b
}

// decodeWFGReport decodes a report, its edges into buf's array when it has
// room (nil when there are none).
func decodeWFGReport(r *WireReader, buf []WaitEdge) (m WFGReportMsg) {
	m.From = SiteID(r.Varint32())
	m.Round = r.Uvarint()
	n := r.Count(10)
	if r.err != nil || n == 0 {
		return m
	}
	m.Edges = slices.Grow(buf[:0], n)[:n]
	for i := range m.Edges {
		m.Edges[i] = r.waitEdge()
	}
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m ProbeWFGMsg) AppendWire(b []byte, _ *WireStream) []byte { return AppendUvarint(b, m.Round) }

func decodeProbeWFG(r *WireReader) (m ProbeWFGMsg) {
	m.Round = r.Uvarint()
	return m
}

// AppendWire encodes the transaction body: identity, protocol, item sets,
// compute time, class label, and write specs.
func (t *Txn) AppendWire(b []byte, s *WireStream) []byte {
	b = appendTxnID(b, s, t.ID)
	b = append(b, byte(t.Protocol))
	b = appendItems(b, t.ReadSet)
	b = appendItems(b, t.WriteSet)
	b = AppendVarint(b, t.ComputeMicros)
	b = AppendWireString(b, t.Class)
	b = AppendUvarint(b, uint64(len(t.Specs)))
	for _, sp := range t.Specs {
		b = AppendVarint(b, int64(sp.Item))
		b = AppendWireBool(b, sp.UseSource)
		b = AppendVarint(b, int64(sp.Source))
		b = AppendVarint(b, sp.AddConst)
	}
	return b
}

// txn decodes a transaction body into t, which holds no body yet: its item
// sets into items and its specs into specs, both emptied and grown as
// needed. It returns the two arrays.
func (r *WireReader) txn(t *Txn, items []ItemID, specs []WriteSpec) ([]ItemID, []WriteSpec) {
	t.ID = r.txnID()
	t.Protocol = Protocol(r.Byte())
	items, t.ReadSet, t.WriteSet = r.itemSets(items)
	t.ComputeMicros = r.Varint()
	t.Class = r.String()
	n := r.Count(4)
	if r.err != nil || n == 0 {
		return items, specs
	}
	specs = slices.Grow(specs[:0], n)[:n]
	for i := range specs {
		specs[i].Item = ItemID(r.Varint32())
		specs[i].UseSource = r.Bool()
		specs[i].Source = ItemID(r.Varint32())
		specs[i].AddConst = r.Varint()
	}
	t.Specs = specs
	return items, specs
}

// AppendWire encodes the message body (no tag) onto b. A nil Txn encodes a
// presence bit of 0 and decodes back to nil.
func (m SubmitTxnMsg) AppendWire(b []byte, s *WireStream) []byte {
	if m.Txn == nil {
		return AppendWireBool(b, false)
	}
	b = AppendWireBool(b, true)
	return m.Txn.AppendWire(b, s)
}

// AppendWire encodes the message body (no tag) onto b.
func (m TxnDoneMsg) AppendWire(b []byte, s *WireStream) []byte {
	b = appendTxnID(b, s, m.Txn)
	b = append(b, byte(m.Protocol), byte(m.Outcome))
	b = appendAnchor(b, s, m.DoneMicros)
	b = AppendVarint(b, m.DoneMicros-m.ArrivalMicros)
	b = AppendVarint(b, m.ArrivalMicros-m.FirstArrivalMicros)
	b = AppendVarint(b, int64(m.Attempts))
	b = AppendVarint(b, int64(m.Size))
	b = AppendVarint(b, int64(m.Reads))
	b = AppendVarint(b, int64(m.Writes))
	b = AppendVarint(b, m.Messages)
	b = append(b, byte(m.RejectKind))
	b = AppendVarint(b, int64(m.BackoffReads))
	b = AppendVarint(b, int64(m.BackoffWrites))
	return AppendVarint(b, m.LockedMicros)
}

func decodeTxnDone(r *WireReader) (m TxnDoneMsg) {
	m.Txn = r.txnID()
	m.Protocol = Protocol(r.Byte())
	m.Outcome = TxnOutcome(r.Byte())
	m.DoneMicros = r.anchor()
	m.ArrivalMicros = m.DoneMicros - r.Varint()
	m.FirstArrivalMicros = m.ArrivalMicros - r.Varint()
	m.Attempts = int(r.Varint())
	m.Size = int(r.Varint())
	m.Reads = int(r.Varint())
	m.Writes = int(r.Varint())
	m.Messages = r.Varint()
	m.RejectKind = OpKind(r.Byte())
	m.BackoffReads = int(r.Varint())
	m.BackoffWrites = int(r.Varint())
	m.LockedMicros = r.Varint()
	return m
}

// AppendWire encodes the message body (no tag) onto b: the period as
// AtMicros − SinceMicros, the entries' items as an item set (AppendItemSet),
// then per entry the reads and the writes. The entries' items must be
// non-negative and strictly ascending, so one message has one encoding.
func (m QueueStatsMsg) AppendWire(b []byte, s *WireStream) []byte {
	b = AppendVarint(b, int64(m.From))
	b = appendAnchor(b, s, m.AtMicros)
	b = AppendUvarint(b, uint64(m.AtMicros-m.SinceMicros))
	b = AppendItemSet(b, m.Grants, grantItem)
	for _, g := range m.Grants {
		b = AppendVarint(b, g.Reads)
		b = AppendVarint(b, g.Writes)
	}
	return b
}

func grantItem(g QueueGrants) ItemID { return g.Item }

// decodeQueueStats decodes a report, its entries into buf's array when it
// has room (nil when there are none).
func decodeQueueStats(r *WireReader, buf []QueueGrants) (m QueueStatsMsg) {
	m.From = SiteID(r.Varint32())
	m.AtMicros = r.anchor()
	m.SinceMicros = m.AtMicros - int64(r.Uvarint())
	items := r.ItemSet()
	n := items.Len()
	if r.err == nil && n > len(r.b)/2 {
		r.fail(ErrWireCorrupt) // each entry's counts take two bytes
	}
	if r.err != nil || n == 0 {
		return m
	}
	m.Grants = slices.Grow(buf[:0], n)[:n]
	for i := range m.Grants {
		m.Grants[i] = QueueGrants{Item: items.Next(), Reads: r.Varint(), Writes: r.Varint()}
	}
	return m
}

// AppendWire encodes the message body (no tag) onto b. Map entries are
// emitted in sorted key order so the encoding is canonical (re-encoding a
// decoded message reproduces the bytes exactly).
func (m EstimateMsg) AppendWire(b []byte, _ *WireStream) []byte {
	b = AppendVarint(b, m.AtMicros)
	b = appendItemF64Map(b, m.LambdaR)
	b = appendItemF64Map(b, m.LambdaW)
	b = AppendWireF64(b, m.LambdaA)
	b = AppendWireF64(b, m.Qr)
	b = AppendWireF64(b, m.K)
	for _, v := range m.U {
		b = AppendWireF64(b, v)
	}
	for _, v := range m.UPrime {
		b = AppendWireF64(b, v)
	}
	b = AppendWireF64(b, m.PAbort)
	b = AppendWireF64(b, m.Pr)
	b = AppendWireF64(b, m.PwR)
	b = AppendWireF64(b, m.PB)
	return AppendWireF64(b, m.PBW)
}

func decodeEstimate(r *WireReader) (m EstimateMsg) {
	m.AtMicros = r.Varint()
	m.LambdaR = r.itemF64Map()
	m.LambdaW = r.itemF64Map()
	m.LambdaA = r.F64()
	m.Qr = r.F64()
	m.K = r.F64()
	for i := range m.U {
		m.U[i] = r.F64()
	}
	for i := range m.UPrime {
		m.UPrime[i] = r.F64()
	}
	m.PAbort = r.F64()
	m.Pr = r.F64()
	m.PwR = r.F64()
	m.PB = r.F64()
	m.PBW = r.F64()
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m TxnFinishedMsg) AppendWire(b []byte, s *WireStream) []byte { return appendTxnID(b, s, m.Txn) }

func decodeTxnFinished(r *WireReader) (m TxnFinishedMsg) {
	m.Txn = r.txnID()
	return m
}

// AppendWire encodes the message body (no tag) onto b. Have and Scope are
// opaque here (internal/repl's codecs), carried length-prefixed.
func (m ReplPullMsg) AppendWire(b []byte, _ *WireStream) []byte {
	b = AppendVarint(b, int64(m.From))
	b = AppendUvarint(b, m.AfterSeq)
	b = AppendUvarint(b, uint64(len(m.Have)))
	b = append(b, m.Have...)
	b = AppendUvarint(b, m.Incarnation)
	b = AppendUvarint(b, m.Epoch)
	b = AppendUvarint(b, uint64(len(m.Scope)))
	return append(b, m.Scope...)
}

// decodeReplPull decodes a pull, copying Have into buf's array when it has
// room (see BytesInto). A fill's Scope gets an array of its own.
func decodeReplPull(r *WireReader, buf []byte) (m ReplPullMsg) {
	m.From = SiteID(r.Varint32())
	m.AfterSeq = r.Uvarint()
	m.Have = r.BytesInto(buf)
	m.Incarnation = r.Uvarint()
	m.Epoch = r.Uvarint()
	m.Scope = r.Bytes()
	return m
}

// AppendWire encodes the message body (no tag) onto b. Frames is opaque here:
// the batch is internal/wal's shipped record codec, carried length-prefixed
// like any byte string — the prefix is what delimits the batch.
func (m ReplRecordsMsg) AppendWire(b []byte, _ *WireStream) []byte {
	b = AppendVarint(b, int64(m.From))
	b = AppendUvarint(b, uint64(len(m.Frames)))
	b = append(b, m.Frames...)
	b = AppendUvarint(b, m.NextAfterSeq)
	b = AppendWireBool(b, m.Reset)
	b = AppendWireBool(b, m.More)
	b = AppendUvarint(b, m.Incarnation)
	b = AppendUvarint(b, m.Epoch)
	return AppendWireBool(b, m.NotReady)
}

// decodeReplRecords decodes a reply, copying Frames into buf's array when it
// has room (see BytesInto).
func decodeReplRecords(r *WireReader, buf []byte) (m ReplRecordsMsg) {
	m.From = SiteID(r.Varint32())
	m.Frames = r.BytesInto(buf)
	m.NextAfterSeq = r.Uvarint()
	m.Reset = r.Bool()
	m.More = r.Bool()
	m.Incarnation = r.Uvarint()
	m.Epoch = r.Uvarint()
	m.NotReady = r.Bool()
	return m
}

// appendPartitionMap encodes a partition map: epoch, item count, then each
// item's copy list (count + sites, primary first — the order is semantic, so
// no sorting here).
func appendPartitionMap(b []byte, pm PartitionMap) []byte {
	b = AppendUvarint(b, pm.Epoch)
	b = AppendUvarint(b, uint64(len(pm.Assignments)))
	for _, reps := range pm.Assignments {
		b = AppendUvarint(b, uint64(len(reps)))
		for _, s := range reps {
			b = AppendVarint(b, int64(s))
		}
	}
	return b
}

func (r *WireReader) partitionMap() (pm PartitionMap) {
	pm.Epoch = r.Uvarint()
	n := r.Count(1)
	if r.err != nil || n == 0 {
		return pm
	}
	pm.Assignments = make([][]SiteID, n)
	for i := range pm.Assignments {
		k := r.Count(1)
		if r.err != nil {
			return pm
		}
		reps := make([]SiteID, k)
		for j := range reps {
			reps[j] = SiteID(r.Varint32())
		}
		pm.Assignments[i] = reps
	}
	return pm
}

// AppendWire encodes the message body (no tag) onto b.
func (m WrongEpochMsg) AppendWire(b []byte, s *WireStream) []byte {
	b = appendHdr(b, s, m.Txn, m.Attempt, m.Copy)
	return appendPartitionMap(b, m.Map)
}

func decodeWrongEpoch(r *WireReader) (m WrongEpochMsg) {
	m.Txn, m.Attempt, m.Copy = r.hdr()
	m.Map = r.partitionMap()
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m MapInstallMsg) AppendWire(b []byte, _ *WireStream) []byte {
	return appendPartitionMap(b, m.Map)
}

func decodeMapInstall(r *WireReader) (m MapInstallMsg) {
	m.Map = r.partitionMap()
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m MapUpdateMsg) AppendWire(b []byte, _ *WireStream) []byte { return appendPartitionMap(b, m.Map) }

func decodeMapUpdate(r *WireReader) (m MapUpdateMsg) {
	m.Map = r.partitionMap()
	return m
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

// codec is one tag's row of the decode table: it decodes the message in the
// one form its receiver matches. A pooled type decodes into its pool and
// comes back as the pointer (a single per-copy tag as the pooled batch of
// one it stands for), a submit as the value holding a pooled Txn, and every
// other type as a value (see DecodeMessagePooled).
type codec func(*WireReader) Message

// plain is the row of a type that decodes to a value.
func plain[T Message](decode func(*WireReader) T) codec {
	return func(r *WireReader) Message { return decode(r) }
}

// pooled is the row of a type that decodes into pool.
func pooled[T Message, P interface {
	*T
	Message
}](pool *msgPool[T], decode func(*WireReader) T) codec {
	return func(r *WireReader) Message {
		p := pool.get()
		*p = decode(r)
		return P(p)
	}
}

// batch is the row of a batch type: decode appends the members to the array
// the pooled message kept.
func batch[T Message, P interface {
	*T
	Message
}, M any](pool *msgPool[T], kept func(*T) []M, decode func(*WireReader, []M) T) codec {
	return func(r *WireReader) Message {
		p := pool.get()
		*p = decode(r, kept(p))
		return P(p)
	}
}

// codecs is the decode table, indexed by tag; TagInvalid's row is empty.
var codecs = [...]codec{
	TagRequest:            batch(&requestBatchPool, requestMembers, decodeRequest),
	TagFinalTS:            pooled(&finalTSPool, decodeFinalTS),
	TagRelease:            batch(&releaseBatchPool, releaseMembers, decodeRelease),
	TagAbort:              batch(&abortBatchPool, abortMembers, decodeAbort),
	TagGrant:              batch(&grantBatchPool, grantMembers, decodeGrant),
	TagNormalGrant:        pooled(&normalGrantPool, decodeNormalGrant),
	TagReject:             pooled(&rejectPool, decodeReject),
	TagBackoff:            pooled(&backoffPool, decodeBackoff),
	TagBusy:               pooled(&busyPool, decodeBusy),
	TagVictim:             plain(decodeVictim),
	TagSnapRead:           batch(&snapReadBatchPool, snapReadMembers, decodeSnapRead),
	TagSnapReadReply:      batch(&snapReadReplyBatchPool, snapReadReplyMembers, decodeSnapReadReply),
	TagWFGReport:          decodeWFGReportPooled,
	TagProbeWFG:           pooled(&probeWFGPool, decodeProbeWFG),
	TagSubmitTxn:          decodeSubmitTxnPooled,
	TagTxnDone:            plain(decodeTxnDone),
	TagQueueStats:         decodeQueueStatsPooled,
	TagEstimate:           plain(decodeEstimate),
	TagTxnFinished:        plain(decodeTxnFinished),
	TagReplPull:           decodeReplPullPooled,
	TagReplRecords:        decodeReplRecordsPooled,
	TagWrongEpoch:         plain(decodeWrongEpoch),
	TagMapInstall:         plain(decodeMapInstall),
	TagMapUpdate:          plain(decodeMapUpdate),
	TagRequestBatch:       batch(&requestBatchPool, requestMembers, decodeRequestBatch),
	TagReleaseBatch:       batch(&releaseBatchPool, releaseMembers, decodeReleaseBatch),
	TagGrantBatch:         batch(&grantBatchPool, grantMembers, decodeGrantBatch),
	TagSnapReadBatch:      batch(&snapReadBatchPool, snapReadMembers, decodeSnapReadBatch),
	TagSnapReadReplyBatch: batch(&snapReadReplyBatchPool, snapReadReplyMembers, decodeSnapReadReplyBatch),
	TagAbortBatch:         batch(&abortBatchPool, abortMembers, decodeAbortBatch),
}

// The members array each pooled batch keeps, for the batch rows above (a
// single tag's row decodes into the same pool as its batch's).
func requestMembers(p *RequestBatchMsg) []RequestMember                   { return p.Members }
func releaseMembers(p *ReleaseBatchMsg) []ReleaseMember                   { return p.Members }
func abortMembers(p *AbortBatchMsg) []ItemID                              { return p.Members }
func grantMembers(p *GrantBatchMsg) []GrantMember                         { return p.Members }
func snapReadMembers(p *SnapReadBatchMsg) []ItemID                        { return p.Members }
func snapReadReplyMembers(p *SnapReadReplyBatchMsg) []SnapReadReplyMember { return p.Members }

// AppendBody appends m's body alone, for a caller that has read m's tag
// (MessageTag) and writes it itself, as internal/wire's frame header does.
// A process-local message returns ErrNoEncoding; a nil message and an empty
// batch have no tag, and the caller refuses them at MessageTag (the
// transport NAKs, counts, and drops what it cannot encode rather than
// wedging the writer or sending what no peer decodes).
func AppendBody(b []byte, s *WireStream, m Message) ([]byte, error) {
	if w, ok := m.(wireMessage); ok {
		return w.AppendWire(b, s), nil
	}
	return b, ErrNoEncoding
}

// DecodeMessagePooled decodes the body for tag from r through its
// decode-table row: the pooled types come back as pooled pointers (a single
// per-copy tag as the pooled batch of one it stands for), a SubmitTxnMsg
// with a pooled Txn, and every other type, the two send-only reports
// included, as a value. Pass every decoded message to RecycleMessage when
// done with it; see wirepool.go for the lifetime contract. Unknown tags
// error cleanly (ErrWireUnknownTag) so a newer peer's message cannot
// misparse as garbage. The caller is responsible for rejecting trailing
// bytes if the payload is supposed to be exactly one message.
func DecodeMessagePooled(tag WireTag, r *WireReader) (Message, error) {
	if tag > TagLast || codecs[tag] == nil {
		return nil, fmt.Errorf("%w: %d", ErrWireUnknownTag, tag)
	}
	m := codecs[tag](r)
	if err := r.Err(); err != nil {
		// A failed decode still recycles its struct: the caller gets no
		// message to return.
		RecycleMessage(m)
		return nil, err
	}
	return m, nil
}
