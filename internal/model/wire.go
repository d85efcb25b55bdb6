package model

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Wire format v4: every message type carries a stable one-byte tag and an
// explicit, hand-rolled field encoder — varint integers, IEEE-754 bits for
// floats, length-prefixed strings and slices, sorted map keys so encoding is
// deterministic. No reflection anywhere on the path, which is what lets the
// transport encode and decode messages with zero steady-state allocations
// (see internal/wire for framing and buffer pooling); the WAL frames its
// records with the same varint primitives.
//
// Stamps are wall-clock microseconds, eight varint bytes each, and the
// stamps of one message mostly lie within milliseconds of each other. So a
// message's first stamp is encoded whole and each later one as the zig-zag
// difference from an earlier stamp of the same message: TxnDoneMsg's Done,
// then Done−Arrival, then Arrival−FirstArrival; a grant's TS (in a grant
// batch, the difference from the previous member's TS) and then
// CommitMicros−TS; a snapshot-reply batch member's CommitMicros as the
// difference from the previous member's. The arithmetic wraps around int64,
// so every value round-trips and keeps exactly one encoding. The codec holds
// no state between messages.
//
// The tag values are part of the persistent wire contract: peers of different
// builds speak v6 to each other, so tags must NEVER be renumbered or
// reused — new message types append new tags. Field order is frozen per tag
// within a version; a change to any tag's bytes is a new wire version, which
// the transport's handshake refuses to mix.

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
	TagTick          WireTag = 19
	TagComputeDone   WireTag = 20
	TagRestart       WireTag = 21
	TagTxnFinished   WireTag = 22
	TagStop          WireTag = 23
	TagCrash         WireTag = 24
	TagRecover       WireTag = 25
	TagFlush         WireTag = 26
	TagReplPull      WireTag = 27
	TagReplRecords   WireTag = 28

	TagWrongEpoch      WireTag = 29
	TagMapInstall      WireTag = 30
	TagMapUpdate       WireTag = 31
	TagTransferPull    WireTag = 32
	TagTransferRecords WireTag = 33

	// Batches of two or more copies (a batch of one travels under its single
	// message's tag, see batchTag).
	TagRequestBatch WireTag = 34
	TagReleaseBatch WireTag = 35
	TagGrantBatch   WireTag = 36

	TagSnapReadBatch      WireTag = 37
	TagSnapReadReplyBatch WireTag = 38

	TagAbortBatch WireTag = 39

	TagFlushDone WireTag = 40
)

// TagLast is the highest assigned tag, the decode table's last row
// (corpus-coverage loops range over TagRequest..TagLast).
const TagLast = WireTag(len(codecs) - 1)

// MessageTag returns the tag m travels under; ok is false for nil and for an
// empty batch, which have no encoding.
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

// errNoEncoding reports a nil message or a batch with no members.
var errNoEncoding = errors.New("model: nil message or empty batch has no encoding")

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
}

// NewWireReader wraps a payload for decoding.
func NewWireReader(b []byte) WireReader { return WireReader{b: b} }

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

func appendTxnID(b []byte, id TxnID) []byte {
	b = AppendVarint(b, int64(id.Site))
	return AppendUvarint(b, id.Seq)
}

func (r *WireReader) txnID() TxnID {
	return TxnID{Site: SiteID(r.Varint32()), Seq: r.Uvarint()}
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
func appendHdr(b []byte, txn TxnID, at Attempt, c CopyID) []byte {
	b = appendTxnID(b, txn)
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
func (m RequestMsg) AppendWire(b []byte) []byte {
	b = appendHdr(b, m.Txn, m.Attempt, m.Copy)
	b = append(b, byte(m.Protocol), byte(m.Kind))
	b = AppendVarint(b, int64(m.TS))
	b = AppendVarint(b, int64(m.Interval))
	b = AppendVarint(b, int64(m.Site))
	return AppendUvarint(b, m.Epoch)
}

func decodeRequest(r *WireReader) (m RequestMsg) {
	m.Txn, m.Attempt, m.Copy = r.hdr()
	m.Protocol = Protocol(r.Byte())
	m.Kind = OpKind(r.Byte())
	m.TS = Timestamp(r.Varint())
	m.Interval = Timestamp(r.Varint())
	m.Site = SiteID(r.Varint32())
	m.Epoch = r.Uvarint()
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m FinalTSMsg) AppendWire(b []byte) []byte {
	b = appendHdr(b, m.Txn, m.Attempt, m.Copy)
	return AppendVarint(b, int64(m.TS))
}

func decodeFinalTS(r *WireReader) (m FinalTSMsg) {
	m.Txn, m.Attempt, m.Copy = r.hdr()
	m.TS = Timestamp(r.Varint())
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m ReleaseMsg) AppendWire(b []byte) []byte {
	b = appendHdr(b, m.Txn, m.Attempt, m.Copy)
	b = AppendWireBool(b, m.ToSemi)
	b = AppendWireBool(b, m.HasWrite)
	b = AppendVarint(b, m.Value)
	return AppendVarint(b, m.CommitMicros)
}

func decodeRelease(r *WireReader) (m ReleaseMsg) {
	m.Txn, m.Attempt, m.Copy = r.hdr()
	m.ToSemi = r.Bool()
	m.HasWrite = r.Bool()
	m.Value = r.Varint()
	m.CommitMicros = r.Varint()
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m AbortMsg) AppendWire(b []byte) []byte {
	return appendHdr(b, m.Txn, m.Attempt, m.Copy)
}

func decodeAbort(r *WireReader) (m AbortMsg) {
	m.Txn, m.Attempt, m.Copy = r.hdr()
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m GrantMsg) AppendWire(b []byte) []byte {
	b = appendHdr(b, m.Txn, m.Attempt, m.Copy)
	b = append(b, byte(m.Lock))
	b = AppendWireBool(b, m.PreScheduled)
	b = AppendVarint(b, int64(m.TS))
	b = AppendVarint(b, m.Value)
	b = AppendUvarint(b, m.Version)
	return AppendVarint(b, m.CommitMicros-int64(m.TS))
}

func decodeGrant(r *WireReader) (m GrantMsg) {
	m.Txn, m.Attempt, m.Copy = r.hdr()
	m.Lock = LockKind(r.Byte())
	m.PreScheduled = r.Bool()
	m.TS = Timestamp(r.Varint())
	m.Value = r.Varint()
	m.Version = r.Uvarint()
	m.CommitMicros = r.Varint() + int64(m.TS)
	return m
}

// Batches. On the wire a batch carries at least two members: a batch of one
// is encoded as the single message it stands for, under that message's tag
// (batchTag), so the decoders reject smaller counts and every message keeps
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
func (m RequestBatchMsg) AppendWire(b []byte) []byte {
	if len(m.Members) == 1 {
		return m.Request(0).AppendWire(b)
	}
	b = appendTxnID(b, m.Txn)
	b = AppendUvarint(b, uint64(m.Attempt))
	b = AppendVarint(b, int64(m.CopySite))
	b = append(b, byte(m.Protocol))
	b = AppendVarint(b, int64(m.TS))
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
	m.TS = Timestamp(r.Varint())
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
func (m ReleaseBatchMsg) AppendWire(b []byte) []byte {
	if len(m.Members) == 1 {
		return m.Release(0).AppendWire(b)
	}
	b = appendTxnID(b, m.Txn)
	b = AppendUvarint(b, uint64(m.Attempt))
	b = AppendVarint(b, int64(m.CopySite))
	b = AppendWireBool(b, m.ToSemi)
	b = AppendVarint(b, m.CommitMicros)
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
	m.CommitMicros = r.Varint()
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
func (m AbortBatchMsg) AppendWire(b []byte) []byte {
	if len(m.Members) == 1 {
		return m.Abort(0).AppendWire(b)
	}
	b = appendTxnID(b, m.Txn)
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
func (m GrantBatchMsg) AppendWire(b []byte) []byte {
	if len(m.Members) == 1 {
		return m.Grant(0).AppendWire(b)
	}
	b = appendTxnID(b, m.Txn)
	b = AppendUvarint(b, uint64(m.Attempt))
	b = AppendVarint(b, int64(m.CopySite))
	b = AppendUvarint(b, uint64(len(m.Members)))
	var prev Timestamp
	for _, x := range m.Members {
		b = AppendVarint(b, int64(x.Item))
		b = append(b, byte(x.Lock))
		b = AppendWireBool(b, x.PreScheduled)
		b = AppendVarint(b, int64(x.TS-prev))
		b = AppendVarint(b, x.Value)
		b = AppendUvarint(b, x.Version)
		b = AppendVarint(b, x.CommitMicros-int64(x.TS))
		prev = x.TS
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
	var prev Timestamp
	for i := 0; i < n; i++ {
		x := GrantMember{
			Item:         ItemID(r.Varint32()),
			Lock:         LockKind(r.Byte()),
			PreScheduled: r.Bool(),
			TS:           prev + Timestamp(r.Varint()),
			Value:        r.Varint(),
			Version:      r.Uvarint(),
		}
		x.CommitMicros = r.Varint() + int64(x.TS)
		members = append(members, x)
		prev = x.TS
	}
	m.Members = members
	return m
}

// AppendWire encodes the body (no tag) onto b: a batch of one as the
// SnapReadMsg it stands for.
func (m SnapReadBatchMsg) AppendWire(b []byte) []byte {
	if len(m.Members) == 1 {
		return m.SnapRead(0).AppendWire(b)
	}
	b = appendTxnID(b, m.Txn)
	b = AppendUvarint(b, uint64(m.Attempt))
	b = AppendVarint(b, int64(m.CopySite))
	b = AppendVarint(b, m.SnapMicros)
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
	m.SnapMicros = r.Varint()
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
func (m SnapReadReplyBatchMsg) AppendWire(b []byte) []byte {
	if len(m.Members) == 1 {
		return m.Reply(0).AppendWire(b)
	}
	b = appendTxnID(b, m.Txn)
	b = AppendUvarint(b, uint64(m.Attempt))
	b = AppendVarint(b, int64(m.CopySite))
	b = AppendUvarint(b, uint64(len(m.Members)))
	var prev int64
	for _, x := range m.Members {
		b = AppendVarint(b, int64(x.Item))
		b = AppendVarint(b, x.Value)
		b = AppendUvarint(b, x.Version)
		b = AppendVarint(b, x.CommitMicros-prev)
		b = AppendWireBool(b, x.Exact)
		prev = x.CommitMicros
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
	var prev int64
	for i := 0; i < n; i++ {
		x := SnapReadReplyMember{
			Item:         ItemID(r.Varint32()),
			Value:        r.Varint(),
			Version:      r.Uvarint(),
			CommitMicros: prev + r.Varint(),
			Exact:        r.Bool(),
		}
		members = append(members, x)
		prev = x.CommitMicros
	}
	m.Members = members
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m NormalGrantMsg) AppendWire(b []byte) []byte {
	return appendHdr(b, m.Txn, m.Attempt, m.Copy)
}

func decodeNormalGrant(r *WireReader) (m NormalGrantMsg) {
	m.Txn, m.Attempt, m.Copy = r.hdr()
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m RejectMsg) AppendWire(b []byte) []byte {
	b = appendHdr(b, m.Txn, m.Attempt, m.Copy)
	return AppendVarint(b, int64(m.Threshold))
}

func decodeReject(r *WireReader) (m RejectMsg) {
	m.Txn, m.Attempt, m.Copy = r.hdr()
	m.Threshold = Timestamp(r.Varint())
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m BackoffMsg) AppendWire(b []byte) []byte {
	b = appendHdr(b, m.Txn, m.Attempt, m.Copy)
	return AppendVarint(b, int64(m.NewTS))
}

func decodeBackoff(r *WireReader) (m BackoffMsg) {
	m.Txn, m.Attempt, m.Copy = r.hdr()
	m.NewTS = Timestamp(r.Varint())
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m BusyMsg) AppendWire(b []byte) []byte {
	return appendHdr(b, m.Txn, m.Attempt, m.Copy)
}

func decodeBusy(r *WireReader) (m BusyMsg) {
	m.Txn, m.Attempt, m.Copy = r.hdr()
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m VictimMsg) AppendWire(b []byte) []byte {
	b = appendTxnID(b, m.Txn)
	b = AppendUvarint(b, uint64(m.Attempt))
	b = AppendUvarint(b, uint64(len(m.Cycle)))
	for _, t := range m.Cycle {
		b = appendTxnID(b, t)
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
func (m SnapReadMsg) AppendWire(b []byte) []byte {
	b = appendHdr(b, m.Txn, m.Attempt, m.Copy)
	b = AppendVarint(b, m.SnapMicros)
	b = AppendVarint(b, int64(m.Site))
	return AppendUvarint(b, m.Epoch)
}

func decodeSnapRead(r *WireReader) (m SnapReadMsg) {
	m.Txn, m.Attempt, m.Copy = r.hdr()
	m.SnapMicros = r.Varint()
	m.Site = SiteID(r.Varint32())
	m.Epoch = r.Uvarint()
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m SnapReadReplyMsg) AppendWire(b []byte) []byte {
	b = appendHdr(b, m.Txn, m.Attempt, m.Copy)
	b = AppendVarint(b, m.Value)
	b = AppendUvarint(b, m.Version)
	b = AppendVarint(b, m.CommitMicros)
	return AppendWireBool(b, m.Exact)
}

func decodeSnapReadReply(r *WireReader) (m SnapReadReplyMsg) {
	m.Txn, m.Attempt, m.Copy = r.hdr()
	m.Value = r.Varint()
	m.Version = r.Uvarint()
	m.CommitMicros = r.Varint()
	m.Exact = r.Bool()
	return m
}

func appendWaitEdge(b []byte, e WaitEdge) []byte {
	b = appendTxnID(b, e.Waiter)
	b = appendTxnID(b, e.Holder)
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
func (m WFGReportMsg) AppendWire(b []byte) []byte {
	b = AppendVarint(b, int64(m.From))
	b = AppendUvarint(b, m.Round)
	b = AppendUvarint(b, uint64(len(m.Edges)))
	for _, e := range m.Edges {
		b = appendWaitEdge(b, e)
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
func (m ProbeWFGMsg) AppendWire(b []byte) []byte { return AppendUvarint(b, m.Round) }

func decodeProbeWFG(r *WireReader) (m ProbeWFGMsg) {
	m.Round = r.Uvarint()
	return m
}

// AppendWire encodes the transaction body: identity, protocol, item sets,
// compute time, class label, and write specs.
func (t *Txn) AppendWire(b []byte) []byte {
	b = appendTxnID(b, t.ID)
	b = append(b, byte(t.Protocol))
	b = appendItems(b, t.ReadSet)
	b = appendItems(b, t.WriteSet)
	b = AppendVarint(b, t.ComputeMicros)
	b = AppendWireString(b, t.Class)
	b = AppendUvarint(b, uint64(len(t.Specs)))
	for _, s := range t.Specs {
		b = AppendVarint(b, int64(s.Item))
		b = AppendWireBool(b, s.UseSource)
		b = AppendVarint(b, int64(s.Source))
		b = AppendVarint(b, s.AddConst)
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
func (m SubmitTxnMsg) AppendWire(b []byte) []byte {
	if m.Txn == nil {
		return AppendWireBool(b, false)
	}
	b = AppendWireBool(b, true)
	return m.Txn.AppendWire(b)
}

func decodeSubmitTxn(r *WireReader) (m SubmitTxnMsg) {
	if !r.Bool() || r.err != nil {
		return m
	}
	m.Txn = new(Txn)
	r.txn(m.Txn, nil, nil)
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m TxnDoneMsg) AppendWire(b []byte) []byte {
	b = appendTxnID(b, m.Txn)
	b = append(b, byte(m.Protocol), byte(m.Outcome))
	b = AppendVarint(b, m.DoneMicros)
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
	m.DoneMicros = r.Varint()
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
// AtMicros − SinceMicros, then per entry the gap from the previous entry's
// item (the first counts from −1), the reads and the writes. The entries
// must be in strictly ascending item order, so every gap is at least 1 and
// one message has one encoding.
func (m QueueStatsMsg) AppendWire(b []byte) []byte {
	b = AppendVarint(b, int64(m.From))
	b = AppendVarint(b, m.AtMicros)
	b = AppendUvarint(b, uint64(m.AtMicros-m.SinceMicros))
	b = AppendUvarint(b, uint64(len(m.Grants)))
	prev := int64(-1)
	for _, g := range m.Grants {
		b = AppendUvarint(b, uint64(int64(g.Item)-prev))
		b = AppendVarint(b, g.Reads)
		b = AppendVarint(b, g.Writes)
		prev = int64(g.Item)
	}
	return b
}

func decodeQueueStats(r *WireReader) (m QueueStatsMsg) {
	m.From = SiteID(r.Varint32())
	m.AtMicros = r.Varint()
	m.SinceMicros = m.AtMicros - int64(r.Uvarint())
	n := r.Count(3)
	if r.err != nil || n == 0 {
		return m
	}
	m.Grants = make([]QueueGrants, n)
	prev := int64(-1)
	for i := range m.Grants {
		gap := r.Uvarint()
		if r.err == nil && (gap == 0 || gap > uint64(math.MaxInt32-prev)) {
			// A zero gap would repeat an item; any other order would give
			// one message two encodings.
			r.fail(ErrWireCorrupt)
		}
		if r.err != nil {
			return m
		}
		prev += int64(gap)
		m.Grants[i] = QueueGrants{Item: ItemID(prev), Reads: r.Varint(), Writes: r.Varint()}
	}
	return m
}

// AppendWire encodes the message body (no tag) onto b. Map entries are
// emitted in sorted key order so the encoding is canonical (re-encoding a
// decoded message reproduces the bytes exactly).
func (m EstimateMsg) AppendWire(b []byte) []byte {
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
func (m TickMsg) AppendWire(b []byte) []byte { return AppendUvarint(b, m.Tag) }

func decodeTick(r *WireReader) (m TickMsg) {
	m.Tag = r.Uvarint()
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m ComputeDoneMsg) AppendWire(b []byte) []byte {
	b = appendTxnID(b, m.Txn)
	return AppendUvarint(b, uint64(m.Attempt))
}

func decodeComputeDone(r *WireReader) (m ComputeDoneMsg) {
	m.Txn = r.txnID()
	m.Attempt = Attempt(r.Uvarint32())
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m RestartMsg) AppendWire(b []byte) []byte {
	b = appendTxnID(b, m.Txn)
	return AppendUvarint(b, uint64(m.Attempt))
}

func decodeRestart(r *WireReader) (m RestartMsg) {
	m.Txn = r.txnID()
	m.Attempt = Attempt(r.Uvarint32())
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m TxnFinishedMsg) AppendWire(b []byte) []byte { return appendTxnID(b, m.Txn) }

func decodeTxnFinished(r *WireReader) (m TxnFinishedMsg) {
	m.Txn = r.txnID()
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m StopMsg) AppendWire(b []byte) []byte { return b }

// AppendWire encodes the message body (no tag) onto b.
func (m CrashMsg) AppendWire(b []byte) []byte { return b }

// AppendWire encodes the message body (no tag) onto b.
func (m RecoverMsg) AppendWire(b []byte) []byte { return b }

// AppendWire encodes the message body (no tag) onto b.
func (m FlushMsg) AppendWire(b []byte) []byte { return AppendVarint(b, int64(m.Shard)) }

func decodeFlush(r *WireReader) (m FlushMsg) {
	m.Shard = r.Varint32()
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m FlushDoneMsg) AppendWire(b []byte) []byte { return AppendVarint(b, int64(m.Shard)) }

func decodeFlushDone(r *WireReader) (m FlushDoneMsg) {
	m.Shard = r.Varint32()
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m ReplPullMsg) AppendWire(b []byte) []byte {
	b = AppendVarint(b, int64(m.From))
	b = AppendUvarint(b, m.AfterSeq)
	b = AppendUvarint(b, uint64(len(m.Have)))
	b = append(b, m.Have...)
	return AppendUvarint(b, m.Incarnation)
}

// decodeReplPull decodes a pull, copying Have into buf's array when it has
// room (see BytesInto).
func decodeReplPull(r *WireReader, buf []byte) (m ReplPullMsg) {
	m.From = SiteID(r.Varint32())
	m.AfterSeq = r.Uvarint()
	m.Have = r.BytesInto(buf)
	m.Incarnation = r.Uvarint()
	return m
}

// AppendWire encodes the message body (no tag) onto b. Frames is opaque here:
// the batch is internal/wal's shipped record codec, carried length-prefixed
// like any byte string — the prefix is what delimits the batch.
func (m ReplRecordsMsg) AppendWire(b []byte) []byte {
	b = AppendVarint(b, int64(m.From))
	b = AppendUvarint(b, uint64(len(m.Frames)))
	b = append(b, m.Frames...)
	b = AppendUvarint(b, m.NextAfterSeq)
	b = AppendWireBool(b, m.Reset)
	b = AppendWireBool(b, m.More)
	return AppendUvarint(b, m.Incarnation)
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
func (m WrongEpochMsg) AppendWire(b []byte) []byte {
	b = appendHdr(b, m.Txn, m.Attempt, m.Copy)
	return appendPartitionMap(b, m.Map)
}

func decodeWrongEpoch(r *WireReader) (m WrongEpochMsg) {
	m.Txn, m.Attempt, m.Copy = r.hdr()
	m.Map = r.partitionMap()
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m MapInstallMsg) AppendWire(b []byte) []byte { return appendPartitionMap(b, m.Map) }

func decodeMapInstall(r *WireReader) (m MapInstallMsg) {
	m.Map = r.partitionMap()
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m MapUpdateMsg) AppendWire(b []byte) []byte { return appendPartitionMap(b, m.Map) }

func decodeMapUpdate(r *WireReader) (m MapUpdateMsg) {
	m.Map = r.partitionMap()
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m TransferPullMsg) AppendWire(b []byte) []byte {
	b = AppendVarint(b, int64(m.From))
	b = AppendUvarint(b, m.Epoch)
	b = AppendUvarint(b, m.AfterSeq)
	return AppendUvarint(b, m.Incarnation)
}

func decodeTransferPull(r *WireReader) (m TransferPullMsg) {
	m.From = SiteID(r.Varint32())
	m.Epoch = r.Uvarint()
	m.AfterSeq = r.Uvarint()
	m.Incarnation = r.Uvarint()
	return m
}

// AppendWire encodes the message body (no tag) onto b (Frames is the WAL's
// shipped record codec, opaque here — see ReplRecordsMsg).
func (m TransferRecordsMsg) AppendWire(b []byte) []byte {
	b = AppendVarint(b, int64(m.From))
	b = AppendUvarint(b, m.Epoch)
	b = AppendUvarint(b, uint64(len(m.Frames)))
	b = append(b, m.Frames...)
	b = AppendUvarint(b, m.NextAfterSeq)
	b = AppendWireBool(b, m.Reset)
	b = AppendWireBool(b, m.More)
	b = AppendWireBool(b, m.NotReady)
	b = AppendWireBool(b, m.Done)
	return AppendUvarint(b, m.Incarnation)
}

func decodeTransferRecords(r *WireReader) (m TransferRecordsMsg) {
	m.From = SiteID(r.Varint32())
	m.Epoch = r.Uvarint()
	m.Frames = r.Bytes()
	m.NextAfterSeq = r.Uvarint()
	m.Reset = r.Bool()
	m.More = r.Bool()
	m.NotReady = r.Bool()
	m.Done = r.Bool()
	m.Incarnation = r.Uvarint()
	return m
}

// decodeEmpty decodes a message that has no fields.
func decodeEmpty[T Message](*WireReader) (m T) { return m }

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

// codec is one tag's row of the decode table: decode returns the message as
// a value; decodePooled, where set, decodes into the type's pool and returns
// the pointer, or for a submit the value holding a pooled Txn
// (DecodeMessagePooled, wirepool.go).
type codec struct {
	decode, decodePooled func(*WireReader) Message
}

// plain is the row of a type that always decodes to a value.
func plain[T Message](decode func(*WireReader) T) codec {
	return codec{decode: func(r *WireReader) Message { return decode(r) }}
}

// pooled is the row of a type that DecodeMessagePooled decodes into pool.
func pooled[T Message, P interface {
	*T
	Message
}](pool *msgPool[T], decode func(*WireReader) T) codec {
	c := plain(decode)
	c.decodePooled = func(r *WireReader) Message {
		p := pool.get()
		*p = decode(r)
		return P(p)
	}
	return c
}

// batch is the row of a batch type: decode appends the members to the array
// it is given, which on the pooled path is the one the pooled message kept.
func batch[T Message, P interface {
	*T
	Message
}, M any](pool *msgPool[T], kept func(*T) []M, decode func(*WireReader, []M) T) codec {
	return codec{
		decode: func(r *WireReader) Message { return decode(r, nil) },
		decodePooled: func(r *WireReader) Message {
			p := pool.get()
			*p = decode(r, kept(p))
			return P(p)
		},
	}
}

// decodeWith is the plain decode of a type whose decoder fills a given
// array (its pooled decode passes the one the pooled message kept): a fresh
// one.
func decodeWith[T Message, E any](decode func(*WireReader, []E) T) func(*WireReader) T {
	return func(r *WireReader) T { return decode(r, nil) }
}

// codecs is the decode table, indexed by tag; TagInvalid's row is empty.
var codecs = [...]codec{
	TagRequest:         pooled(&requestPool, decodeRequest),
	TagFinalTS:         pooled(&finalTSPool, decodeFinalTS),
	TagRelease:         pooled(&releasePool, decodeRelease),
	TagAbort:           pooled(&abortPool, decodeAbort),
	TagGrant:           pooled(&grantPool, decodeGrant),
	TagNormalGrant:     pooled(&normalGrantPool, decodeNormalGrant),
	TagReject:          pooled(&rejectPool, decodeReject),
	TagBackoff:         pooled(&backoffPool, decodeBackoff),
	TagBusy:            pooled(&busyPool, decodeBusy),
	TagVictim:          plain(decodeVictim),
	TagSnapRead:        pooled(&snapReadPool, decodeSnapRead),
	TagSnapReadReply:   pooled(&snapReadReplyPool, decodeSnapReadReply),
	TagWFGReport:       {decode: plain(decodeWith(decodeWFGReport)).decode, decodePooled: decodeWFGReportPooled},
	TagProbeWFG:        plain(decodeProbeWFG),
	TagSubmitTxn:       {decode: plain(decodeSubmitTxn).decode, decodePooled: decodeSubmitTxnPooled},
	TagTxnDone:         plain(decodeTxnDone),
	TagQueueStats:      plain(decodeQueueStats),
	TagEstimate:        plain(decodeEstimate),
	TagTick:            plain(decodeTick),
	TagComputeDone:     plain(decodeComputeDone),
	TagRestart:         plain(decodeRestart),
	TagTxnFinished:     plain(decodeTxnFinished),
	TagStop:            plain(decodeEmpty[StopMsg]),
	TagCrash:           plain(decodeEmpty[CrashMsg]),
	TagRecover:         plain(decodeEmpty[RecoverMsg]),
	TagFlush:           plain(decodeFlush),
	TagReplPull:        {decode: plain(decodeWith(decodeReplPull)).decode, decodePooled: decodeReplPullPooled},
	TagReplRecords:     {decode: plain(decodeWith(decodeReplRecords)).decode, decodePooled: decodeReplRecordsPooled},
	TagWrongEpoch:      plain(decodeWrongEpoch),
	TagMapInstall:      plain(decodeMapInstall),
	TagMapUpdate:       plain(decodeMapUpdate),
	TagTransferPull:    plain(decodeTransferPull),
	TagTransferRecords: plain(decodeTransferRecords),
	TagRequestBatch:    batch(&requestBatchPool, func(p *RequestBatchMsg) []RequestMember { return p.Members }, decodeRequestBatch),
	TagReleaseBatch:    batch(&releaseBatchPool, func(p *ReleaseBatchMsg) []ReleaseMember { return p.Members }, decodeReleaseBatch),
	TagGrantBatch:      batch(&grantBatchPool, func(p *GrantBatchMsg) []GrantMember { return p.Members }, decodeGrantBatch),
	TagSnapReadBatch:   batch(&snapReadBatchPool, func(p *SnapReadBatchMsg) []ItemID { return p.Members }, decodeSnapReadBatch),
	TagSnapReadReplyBatch: batch(&snapReadReplyBatchPool, func(p *SnapReadReplyBatchMsg) []SnapReadReplyMember { return p.Members },
		decodeSnapReadReplyBatch),
	TagAbortBatch: batch(&abortBatchPool, func(p *AbortBatchMsg) []ItemID { return p.Members }, decodeAbortBatch),
	TagFlushDone:  plain(decodeFlushDone),
}

// AppendMessage appends tag + body. A nil message and an empty batch have no
// encoding and return an error (the transport NAKs, counts, and drops them
// rather than wedging the writer).
func AppendMessage(b []byte, m Message) ([]byte, error) {
	tag, ok := MessageTag(m)
	if !ok {
		return b, errNoEncoding
	}
	return m.AppendWire(append(b, byte(tag))), nil
}

// DecodeMessage decodes the body for tag from r. Unknown tags error cleanly
// (ErrWireUnknownTag) so a newer peer's message cannot misparse as garbage.
// The caller is responsible for checking r.Err() and for rejecting trailing
// bytes if the payload is supposed to be exactly one message.
func DecodeMessage(tag WireTag, r *WireReader) (Message, error) {
	if tag > TagLast || codecs[tag].decode == nil {
		return nil, fmt.Errorf("%w: %d", ErrWireUnknownTag, tag)
	}
	m := codecs[tag].decode(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	return m, nil
}
