package model

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Wire format v3: every message type carries a stable one-byte tag and an
// explicit, hand-rolled field encoder — varint integers, IEEE-754 bits for
// floats, length-prefixed strings and slices, sorted map keys so encoding is
// deterministic. No reflection anywhere on the path, which is what lets the
// transport and the WAL encode and decode messages with zero steady-state
// allocations (see internal/wire for framing and buffer pooling).
//
// The tag values are part of the persistent wire contract: peers of different
// builds speak v3 to each other, so tags must NEVER be renumbered or
// reused — new message types append new tags.

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
	// message's tag, see AppendMessage).
	TagRequestBatch WireTag = 34
	TagReleaseBatch WireTag = 35
	TagGrantBatch   WireTag = 36

	// TagLast is the highest assigned tag (corpus-coverage loops range over
	// TagRequest..TagLast). Update when appending a tag.
	TagLast = TagGrantBatch
)

// MessageTag returns the wire tag of a message; ok is false for message types
// that are not (yet) part of the wire contract. Implemented on top of
// AppendMessage — the one type switch in the encode direction — so a message
// type can never have a tag without an encoder or vice versa. Not for hot
// paths (it encodes the message to learn the tag); the hot paths only ever
// need AppendMessage itself.
func MessageTag(m Message) (WireTag, bool) {
	var scratch [1]byte
	b, err := AppendMessage(scratch[:0], m)
	if err != nil || len(b) == 0 {
		return TagInvalid, false
	}
	return WireTag(b[0]), true
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

// errEmptyBatch reports a batch with no members, which has no encoding.
var errEmptyBatch = errors.New("model: batch has no members")

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
func (r *WireReader) Bytes() []byte {
	n := r.Count(1)
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, r.b[:n])
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

func appendItemU64Map(b []byte, m map[ItemID]uint64) []byte {
	keys := make([]ItemID, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	b = AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = AppendVarint(b, int64(k))
		b = AppendUvarint(b, m[k])
	}
	return b
}

func (r *WireReader) itemU64Map() map[ItemID]uint64 {
	n := r.Count(2)
	if r.err != nil {
		return nil
	}
	m := make(map[ItemID]uint64, n)
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
		m[k] = r.Uvarint()
	}
	return m
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
			r.fail(ErrWireCorrupt) // see itemU64Map: canonical key order only
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

// itemSets decodes a transaction's read and write sets into one array. The
// write set's count sits behind the read set's items, so a copy of the
// reader looks ahead for it first. Each set is a capped sub-slice — an
// append to one reallocates instead of writing into the other — and an
// empty set decodes to nil, as it encodes from.
func (r *WireReader) itemSets() (reads, writes []ItemID) {
	ahead := *r
	nr := ahead.Count(1)
	for i := 0; i < nr; i++ {
		ahead.Varint32()
	}
	nw := ahead.Count(1)
	if ahead.err != nil || nr+nw == 0 {
		return r.appendItems(nil), r.appendItems(nil) // latches the same error, or two nil sets
	}
	items := r.appendItems(make([]ItemID, 0, nr+nw))
	items = r.appendItems(items)
	if nr > 0 {
		reads = items[:nr:nr]
	}
	if nw > 0 {
		writes = items[nr : nr+nw : nr+nw]
	}
	return reads, writes
}

// ---------------------------------------------------------------------------
// Per-message encoders (the wire contract; field order is frozen per tag)
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
	return AppendVarint(b, m.CommitMicros)
}

func decodeGrant(r *WireReader) (m GrantMsg) {
	m.Txn, m.Attempt, m.Copy = r.hdr()
	m.Lock = LockKind(r.Byte())
	m.PreScheduled = r.Bool()
	m.TS = Timestamp(r.Varint())
	m.Value = r.Varint()
	m.Version = r.Uvarint()
	m.CommitMicros = r.Varint()
	return m
}

// Batches. On the wire a batch carries at least two members: a batch of one
// is encoded as the single message it stands for (appendTagged), so the
// decoders reject smaller counts and every message keeps exactly one
// encoding. The shared fields lead, in the order of the single message's.

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

// appendTagged appends tag + body for a batch of two or more, and for a
// batch of one the RequestMsg it stands for, tag and bytes.
func (m RequestBatchMsg) appendTagged(b []byte, tag WireTag) ([]byte, error) {
	switch len(m.Members) {
	case 0:
		return b, errEmptyBatch
	case 1:
		return m.Request(0).AppendWire(append(b, byte(TagRequest))), nil
	}
	return m.AppendWire(append(b, byte(tag))), nil
}

// AppendWire encodes the body of a batch of two or more (no tag) onto b.
func (m RequestBatchMsg) AppendWire(b []byte) []byte {
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

// appendTagged appends tag + body for a batch of two or more, and for a
// batch of one the ReleaseMsg it stands for, tag and bytes.
func (m ReleaseBatchMsg) appendTagged(b []byte, tag WireTag) ([]byte, error) {
	switch len(m.Members) {
	case 0:
		return b, errEmptyBatch
	case 1:
		return m.Release(0).AppendWire(append(b, byte(TagRelease))), nil
	}
	return m.AppendWire(append(b, byte(tag))), nil
}

// AppendWire encodes the body of a batch of two or more (no tag) onto b.
func (m ReleaseBatchMsg) AppendWire(b []byte) []byte {
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

// appendTagged appends tag + body for a batch of two or more, and for a
// batch of one the GrantMsg it stands for, tag and bytes.
func (m GrantBatchMsg) appendTagged(b []byte, tag WireTag) ([]byte, error) {
	switch len(m.Members) {
	case 0:
		return b, errEmptyBatch
	case 1:
		return m.Grant(0).AppendWire(append(b, byte(TagGrant))), nil
	}
	return m.AppendWire(append(b, byte(tag))), nil
}

// AppendWire encodes the body of a batch of two or more (no tag) onto b.
func (m GrantBatchMsg) AppendWire(b []byte) []byte {
	b = appendTxnID(b, m.Txn)
	b = AppendUvarint(b, uint64(m.Attempt))
	b = AppendVarint(b, int64(m.CopySite))
	b = AppendUvarint(b, uint64(len(m.Members)))
	for _, x := range m.Members {
		b = AppendVarint(b, int64(x.Item))
		b = append(b, byte(x.Lock))
		b = AppendWireBool(b, x.PreScheduled)
		b = AppendVarint(b, int64(x.TS))
		b = AppendVarint(b, x.Value)
		b = AppendUvarint(b, x.Version)
		b = AppendVarint(b, x.CommitMicros)
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
		members = append(members, GrantMember{
			Item:         ItemID(r.Varint32()),
			Lock:         LockKind(r.Byte()),
			PreScheduled: r.Bool(),
			TS:           Timestamp(r.Varint()),
			Value:        r.Varint(),
			Version:      r.Uvarint(),
			CommitMicros: r.Varint(),
		})
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

func decodeWFGReport(r *WireReader) (m WFGReportMsg) {
	m.From = SiteID(r.Varint32())
	m.Round = r.Uvarint()
	n := r.Count(10)
	if r.err != nil || n == 0 {
		return m
	}
	m.Edges = make([]WaitEdge, n)
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

func decodeTxn(r *WireReader) *Txn {
	t := &Txn{}
	t.ID = r.txnID()
	t.Protocol = Protocol(r.Byte())
	t.ReadSet, t.WriteSet = r.itemSets()
	t.ComputeMicros = r.Varint()
	t.Class = r.String()
	n := r.Count(4)
	if r.err != nil {
		return t
	}
	if n > 0 {
		t.Specs = make([]WriteSpec, n)
		for i := range t.Specs {
			t.Specs[i].Item = ItemID(r.Varint32())
			t.Specs[i].UseSource = r.Bool()
			t.Specs[i].Source = ItemID(r.Varint32())
			t.Specs[i].AddConst = r.Varint()
		}
	}
	return t
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
	m.Txn = decodeTxn(r)
	return m
}

// AppendWire encodes the message body (no tag) onto b.
func (m TxnDoneMsg) AppendWire(b []byte) []byte {
	b = appendTxnID(b, m.Txn)
	b = append(b, byte(m.Protocol), byte(m.Outcome))
	b = AppendVarint(b, m.ArrivalMicros)
	b = AppendVarint(b, m.DoneMicros)
	b = AppendVarint(b, m.FirstArrivalMicros)
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
	m.ArrivalMicros = r.Varint()
	m.DoneMicros = r.Varint()
	m.FirstArrivalMicros = r.Varint()
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

// AppendWire encodes the message body (no tag) onto b. Map entries are
// emitted in sorted key order so the encoding is canonical (re-encoding a
// decoded message reproduces the bytes exactly).
func (m QueueStatsMsg) AppendWire(b []byte) []byte {
	b = AppendVarint(b, int64(m.From))
	b = AppendVarint(b, m.AtMicros)
	b = appendItemU64Map(b, m.ReadGrants)
	return appendItemU64Map(b, m.WriteGrants)
}

func decodeQueueStats(r *WireReader) (m QueueStatsMsg) {
	m.From = SiteID(r.Varint32())
	m.AtMicros = r.Varint()
	m.ReadGrants = r.itemU64Map()
	m.WriteGrants = r.itemU64Map()
	return m
}

// AppendWire encodes the message body (no tag) onto b (sorted map keys, see
// QueueStatsMsg).
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
func (m ReplPullMsg) AppendWire(b []byte) []byte {
	b = AppendVarint(b, int64(m.From))
	b = AppendUvarint(b, m.AfterSeq)
	b = AppendUvarint(b, uint64(len(m.Have)))
	return append(b, m.Have...)
}

func decodeReplPull(r *WireReader) (m ReplPullMsg) {
	m.From = SiteID(r.Varint32())
	m.AfterSeq = r.Uvarint()
	m.Have = r.Bytes()
	return m
}

// AppendWire encodes the message body (no tag) onto b. Frames is opaque here:
// the record framing (and its own per-record checksums) is internal/wal's
// codec, carried length-prefixed like any byte string.
func (m ReplRecordsMsg) AppendWire(b []byte) []byte {
	b = AppendVarint(b, int64(m.From))
	b = AppendUvarint(b, uint64(len(m.Frames)))
	b = append(b, m.Frames...)
	b = AppendUvarint(b, m.NextAfterSeq)
	b = AppendWireBool(b, m.Reset)
	return AppendWireBool(b, m.More)
}

func decodeReplRecords(r *WireReader) (m ReplRecordsMsg) {
	m.From = SiteID(r.Varint32())
	m.Frames = r.Bytes()
	m.NextAfterSeq = r.Uvarint()
	m.Reset = r.Bool()
	m.More = r.Bool()
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
	return AppendUvarint(b, m.AfterSeq)
}

func decodeTransferPull(r *WireReader) (m TransferPullMsg) {
	m.From = SiteID(r.Varint32())
	m.Epoch = r.Uvarint()
	m.AfterSeq = r.Uvarint()
	return m
}

// AppendWire encodes the message body (no tag) onto b (Frames is the WAL's
// framed codec, opaque here — see ReplRecordsMsg).
func (m TransferRecordsMsg) AppendWire(b []byte) []byte {
	b = AppendVarint(b, int64(m.From))
	b = AppendUvarint(b, m.Epoch)
	b = AppendUvarint(b, uint64(len(m.Frames)))
	b = append(b, m.Frames...)
	b = AppendUvarint(b, m.NextAfterSeq)
	b = AppendWireBool(b, m.Reset)
	b = AppendWireBool(b, m.More)
	b = AppendWireBool(b, m.NotReady)
	return AppendWireBool(b, m.Done)
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
	return m
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

// AppendMessage appends tag + body. This switch is the single source of the
// type→tag mapping in the encode direction (MessageTag reads tags back out
// of it); each arm pairs one tag constant with that type's AppendWire, so a
// tag without an encoder cannot exist. A batch arm names its batch tag, and
// a batch of one leaves under its single message's tag instead. Message
// types outside the wire contract, and empty batches, return an error (the
// transport NAKs, counts, and drops them rather than wedging the writer).
func AppendMessage(b []byte, m Message) ([]byte, error) {
	switch v := m.(type) {
	case RequestMsg:
		return v.AppendWire(append(b, byte(TagRequest))), nil
	case FinalTSMsg:
		return v.AppendWire(append(b, byte(TagFinalTS))), nil
	case ReleaseMsg:
		return v.AppendWire(append(b, byte(TagRelease))), nil
	case AbortMsg:
		return v.AppendWire(append(b, byte(TagAbort))), nil
	case GrantMsg:
		return v.AppendWire(append(b, byte(TagGrant))), nil
	case NormalGrantMsg:
		return v.AppendWire(append(b, byte(TagNormalGrant))), nil
	case RejectMsg:
		return v.AppendWire(append(b, byte(TagReject))), nil
	case BackoffMsg:
		return v.AppendWire(append(b, byte(TagBackoff))), nil
	case BusyMsg:
		return v.AppendWire(append(b, byte(TagBusy))), nil
	case VictimMsg:
		return v.AppendWire(append(b, byte(TagVictim))), nil
	case SnapReadMsg:
		return v.AppendWire(append(b, byte(TagSnapRead))), nil
	case SnapReadReplyMsg:
		return v.AppendWire(append(b, byte(TagSnapReadReply))), nil
	// Pooled pointer forms (DecodeMessagePooled): same bytes as the value
	// arms above, so a pooled message re-encodes identically.
	case *RequestMsg:
		return v.AppendWire(append(b, byte(TagRequest))), nil
	case *FinalTSMsg:
		return v.AppendWire(append(b, byte(TagFinalTS))), nil
	case *ReleaseMsg:
		return v.AppendWire(append(b, byte(TagRelease))), nil
	case *AbortMsg:
		return v.AppendWire(append(b, byte(TagAbort))), nil
	case *GrantMsg:
		return v.AppendWire(append(b, byte(TagGrant))), nil
	case *NormalGrantMsg:
		return v.AppendWire(append(b, byte(TagNormalGrant))), nil
	case *RejectMsg:
		return v.AppendWire(append(b, byte(TagReject))), nil
	case *BackoffMsg:
		return v.AppendWire(append(b, byte(TagBackoff))), nil
	case *BusyMsg:
		return v.AppendWire(append(b, byte(TagBusy))), nil
	case *SnapReadMsg:
		return v.AppendWire(append(b, byte(TagSnapRead))), nil
	case *SnapReadReplyMsg:
		return v.AppendWire(append(b, byte(TagSnapReadReply))), nil
	case WFGReportMsg:
		return v.AppendWire(append(b, byte(TagWFGReport))), nil
	case ProbeWFGMsg:
		return v.AppendWire(append(b, byte(TagProbeWFG))), nil
	case SubmitTxnMsg:
		return v.AppendWire(append(b, byte(TagSubmitTxn))), nil
	case TxnDoneMsg:
		return v.AppendWire(append(b, byte(TagTxnDone))), nil
	case QueueStatsMsg:
		return v.AppendWire(append(b, byte(TagQueueStats))), nil
	case EstimateMsg:
		return v.AppendWire(append(b, byte(TagEstimate))), nil
	case TickMsg:
		return v.AppendWire(append(b, byte(TagTick))), nil
	case ComputeDoneMsg:
		return v.AppendWire(append(b, byte(TagComputeDone))), nil
	case RestartMsg:
		return v.AppendWire(append(b, byte(TagRestart))), nil
	case TxnFinishedMsg:
		return v.AppendWire(append(b, byte(TagTxnFinished))), nil
	case StopMsg:
		return v.AppendWire(append(b, byte(TagStop))), nil
	case CrashMsg:
		return v.AppendWire(append(b, byte(TagCrash))), nil
	case RecoverMsg:
		return v.AppendWire(append(b, byte(TagRecover))), nil
	case FlushMsg:
		return v.AppendWire(append(b, byte(TagFlush))), nil
	case ReplPullMsg:
		return v.AppendWire(append(b, byte(TagReplPull))), nil
	case ReplRecordsMsg:
		return v.AppendWire(append(b, byte(TagReplRecords))), nil
	case WrongEpochMsg:
		return v.AppendWire(append(b, byte(TagWrongEpoch))), nil
	case MapInstallMsg:
		return v.AppendWire(append(b, byte(TagMapInstall))), nil
	case MapUpdateMsg:
		return v.AppendWire(append(b, byte(TagMapUpdate))), nil
	case TransferPullMsg:
		return v.AppendWire(append(b, byte(TagTransferPull))), nil
	case TransferRecordsMsg:
		return v.AppendWire(append(b, byte(TagTransferRecords))), nil
	// Batches, value and pooled forms alike.
	case RequestBatchMsg:
		return v.appendTagged(b, TagRequestBatch)
	case *RequestBatchMsg:
		return v.appendTagged(b, TagRequestBatch)
	case ReleaseBatchMsg:
		return v.appendTagged(b, TagReleaseBatch)
	case *ReleaseBatchMsg:
		return v.appendTagged(b, TagReleaseBatch)
	case GrantBatchMsg:
		return v.appendTagged(b, TagGrantBatch)
	case *GrantBatchMsg:
		return v.appendTagged(b, TagGrantBatch)
	default:
		return b, fmt.Errorf("model: message %T has no wire encoder", m)
	}
}

// DecodeMessage decodes the body for tag from r. Unknown tags error cleanly
// (ErrWireUnknownTag) so a newer peer's message cannot misparse as garbage.
// The caller is responsible for checking r.Err() and for rejecting trailing
// bytes if the payload is supposed to be exactly one message.
func DecodeMessage(tag WireTag, r *WireReader) (Message, error) {
	var m Message
	switch tag {
	case TagRequest:
		m = decodeRequest(r)
	case TagFinalTS:
		m = decodeFinalTS(r)
	case TagRelease:
		m = decodeRelease(r)
	case TagAbort:
		m = decodeAbort(r)
	case TagGrant:
		m = decodeGrant(r)
	case TagNormalGrant:
		m = decodeNormalGrant(r)
	case TagReject:
		m = decodeReject(r)
	case TagBackoff:
		m = decodeBackoff(r)
	case TagBusy:
		m = decodeBusy(r)
	case TagVictim:
		m = decodeVictim(r)
	case TagSnapRead:
		m = decodeSnapRead(r)
	case TagSnapReadReply:
		m = decodeSnapReadReply(r)
	case TagWFGReport:
		m = decodeWFGReport(r)
	case TagProbeWFG:
		m = decodeProbeWFG(r)
	case TagSubmitTxn:
		m = decodeSubmitTxn(r)
	case TagTxnDone:
		m = decodeTxnDone(r)
	case TagQueueStats:
		m = decodeQueueStats(r)
	case TagEstimate:
		m = decodeEstimate(r)
	case TagTick:
		m = decodeTick(r)
	case TagComputeDone:
		m = decodeComputeDone(r)
	case TagRestart:
		m = decodeRestart(r)
	case TagTxnFinished:
		m = decodeTxnFinished(r)
	case TagStop:
		m = StopMsg{}
	case TagCrash:
		m = CrashMsg{}
	case TagRecover:
		m = RecoverMsg{}
	case TagFlush:
		m = decodeFlush(r)
	case TagReplPull:
		m = decodeReplPull(r)
	case TagReplRecords:
		m = decodeReplRecords(r)
	case TagWrongEpoch:
		m = decodeWrongEpoch(r)
	case TagMapInstall:
		m = decodeMapInstall(r)
	case TagMapUpdate:
		m = decodeMapUpdate(r)
	case TagTransferPull:
		m = decodeTransferPull(r)
	case TagTransferRecords:
		m = decodeTransferRecords(r)
	case TagRequestBatch:
		m = decodeRequestBatch(r, nil)
	case TagReleaseBatch:
		m = decodeReleaseBatch(r, nil)
	case TagGrantBatch:
		m = decodeGrantBatch(r, nil)
	default:
		return nil, fmt.Errorf("%w: %d", ErrWireUnknownTag, tag)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return m, nil
}
