package model

import (
	"bytes"
	"encoding/hex"
	"math"
	"reflect"
	"slices"
	"testing"
)

// TestAnchorCodes: an anchor round-trips against any stream anchor, the
// int64 extremes and backward jumps included; 0 and NoTimestamp take one
// byte and leave the stream's anchor alone; on a fresh stream every other
// stamp takes exactly its AppendVarint bytes; and a stamp microseconds after
// the stream's anchor takes at most two bytes.
func TestAnchorCodes(t *testing.T) {
	const wall = 1_760_000_000_000_000
	stamps := []int64{0, -1, 1, -2, 2, 310, -310, wall, wall + 1, wall - 1, wall + 8191, wall - 8192,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1, -wall}
	for _, base := range stamps {
		if base == int64(NoTimestamp) {
			continue // never a stream's anchor (0 is a fresh stream's)
		}
		for _, v := range append(stamps, base) {
			s := WireStream{anchor: base}
			b := appendAnchor(nil, &s, v)
			r := NewStreamReader(b, WireStream{anchor: base})
			got := r.anchor()
			if r.Err() != nil || r.Remaining() != 0 || got != v || r.Stream() != s {
				t.Fatalf("anchor %d against %d: coded %x, decoded %d (err %v, %d left, stream %+v want %+v)",
					v, base, b, got, r.Err(), r.Remaining(), r.Stream(), s)
			}
			if escaped := v == 0 || v == int64(NoTimestamp); escaped && (len(b) != 1 || s.anchor != base) || !escaped && s.anchor != v {
				t.Errorf("anchor %d against %d: coded %x, stream anchor %d", v, base, b, s.anchor)
			}
		}
	}
	for _, v := range stamps {
		var s WireStream
		if got, want := appendAnchor(nil, &s, v), AppendVarint(nil, v); !bytes.Equal(got, want) {
			t.Errorf("anchor %d on a fresh stream coded %x, want its varint %x", v, got, want)
		}
	}
	for _, d := range []int64{0, 1, -1, 310, -4000, 8190, -8191} {
		if b := appendAnchor(nil, &WireStream{anchor: wall}, wall+d); len(b) > 2 {
			t.Errorf("a stamp %d µs from the anchor coded in %d bytes", d, len(b))
		}
	}
	// Every code decodes, to a stamp that codes back to it.
	s := WireStream{anchor: wall}
	for _, code := range []uint64{0, 1, 2, 3, 1 << 20, math.MaxUint64 - 1, math.MaxUint64} {
		r := NewStreamReader(AppendUvarint(nil, code), s)
		v := r.anchor()
		next := s
		if b := appendAnchor(nil, &next, v); !bytes.Equal(b, AppendUvarint(nil, code)) || r.Stream() != next {
			t.Errorf("code %d decodes to %d, which codes to %x", code, v, b)
		}
	}
}

// streamTagsVersion is the wire version streamTags was pinned at, and
// streamTags the tags whose codec reads or writes the stream state at it:
// every tag whose message carries a transaction id or an anchor stamp.
const streamTagsVersion = 11

var streamTags = []WireTag{
	TagRequest, TagFinalTS, TagRelease, TagAbort, TagGrant, TagNormalGrant, TagReject, TagBackoff,
	TagBusy, TagVictim, TagSnapRead, TagSnapReadReply, TagWFGReport, TagSubmitTxn, TagTxnDone,
	TagQueueStats, TagTxnFinished, TagWrongEpoch, TagRequestBatch,
	TagReleaseBatch, TagGrantBatch, TagSnapReadBatch, TagSnapReadReplyBatch, TagAbortBatch,
}

// TestStreamTagsPinned: the tags whose codec touches the stream state are
// streamTags, while WireVersion is the version they were pinned at. A reader
// skips a tag it does not know before reading its body, so a tag that joins
// the set, or a codec that starts or stops touching the state, is a new
// wire version: a reader of the old version would fall out of step. Each
// tag's message has every integer field set, so any transaction id or
// anchor in it codes a value the stream notices: the codec reads the state
// if the message codes differently against a used stream than a fresh one,
// and writes it if a fresh stream moves.
func TestStreamTagsPinned(t *testing.T) {
	if WireVersion != streamTagsVersion {
		t.Fatalf("WireVersion is %d: pin streamTags at it (streamTagsVersion %d)", WireVersion, streamTagsVersion)
	}
	used := WireStream{seq: 1_000_000, anchor: 1 << 45}
	var touching []WireTag
	for tag := TagRequest; tag <= TagLast; tag++ {
		m := rowValue(tag)
		if m == nil {
			continue
		}
		v := reflect.New(reflect.TypeOf(m)).Elem()
		v.Set(reflect.ValueOf(m))
		fillIntegers(v)
		m = v.Interface().(Message)

		var fresh WireStream
		b, err := AppendBody(nil, &fresh, m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		after := used
		b2, _ := AppendBody(nil, &after, m)
		if fresh != (WireStream{}) || !bytes.Equal(b, b2) {
			touching = append(touching, tag)
		}
		// The decoder reads and advances the state as the encoder did.
		for _, c := range []struct {
			b           []byte
			from, after WireStream
		}{{b, WireStream{}, fresh}, {b2, used, after}} {
			r := NewStreamReader(c.b, c.from)
			back, err := DecodeMessagePooled(tag, &r)
			if err != nil || r.Remaining() != 0 || r.Stream() != c.after {
				t.Errorf("%T against %+v: decode err %v, %d left, stream %+v, want %+v", m, c.from, err, r.Remaining(), r.Stream(), c.after)
			}
			RecycleMessage(back)
		}
	}
	if !slices.Equal(touching, streamTags) {
		t.Errorf("at wire version %d the tags that touch the stream state are %v, pinned %v: a change is a new wire version",
			WireVersion, touching, streamTags)
	}
}

// fillIntegers sets every settable integer in v, through structs, pointers
// and slices, to 7: a nil slice gets one element and a nil pointer a value.
// Strings, floats, bools and maps keep their values.
func fillIntegers(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() {
				fillIntegers(f)
			}
		}
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		fillIntegers(v.Elem())
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		}
		for i := 0; i < v.Len(); i++ {
			fillIntegers(v.Index(i))
		}
	}
}

// goldenStream is a connection's run of frames coded through one stream,
// with the bytes each must encode to (tag included): a transaction's
// request, its release and a later one's 2PL request, whose NoTimestamp
// leaves the anchor alone, then a grant of an earlier transaction with an
// earlier stamp, and an unstamped TxnDoneMsg.
var goldenStream = []struct {
	msg Message
	hex string
}{
	{RequestBatchMsg{Txn: TxnID{Site: 1, Seq: 1_000_000}, Attempt: 1, Protocol: TO, TS: 1_760_000_000_000_000, Interval: 250, Site: 1, CopySite: 2,
		Members: []RequestMember{{Item: 7, Kind: OpWrite}}},
		"010280897a010e0401018080f0ecbdada006f4030200"},
	{ReleaseBatchMsg{Txn: TxnID{Site: 1, Seq: 1_000_000}, Attempt: 1, CopySite: 2, CommitMicros: 1_760_000_000_000_310,
		Members: []ReleaseMember{{Item: 7, HasWrite: true, Value: 5}}},
		"030200010e0400010aee04"},
	{RequestBatchMsg{Txn: TxnID{Site: 1, Seq: 1_000_003}, Protocol: TwoPL, TS: NoTimestamp, Site: 1, CopySite: 2,
		Members: []RequestMember{{Item: 9, Kind: OpRead}}},
		"010206001204000001000200"},
	{GrantBatchMsg{Txn: TxnID{Site: 0, Seq: 999_998}, Attempt: 2, CopySite: 2,
		Members: []GrantMember{{Item: 3, Lock: RL, TS: 1_759_999_999_999_000, Value: 11, Version: 4, CommitMicros: 1_759_999_999_990_000}}},
		"0500090206040000bd141604cf8c01"},
	{TxnDoneMsg{Txn: TxnID{Site: 1, Seq: 1_000_000}, Protocol: TO, Outcome: OutcomeCommitted, Attempts: 1},
		"1002040100000000020000000000000000"},
}

// TestStreamGoldenBytes pins goldenStream's bytes, coded through one stream
// from a fresh one, and their decode back through one stream; a frame after
// the first does not decode as sent against a fresh stream.
func TestStreamGoldenBytes(t *testing.T) {
	var ws, rs WireStream
	for i, g := range goldenStream {
		tag, _ := MessageTag(g.msg)
		b, err := AppendBody([]byte{byte(tag)}, &ws, g.msg)
		if err != nil {
			t.Fatalf("%T: %v", g.msg, err)
		}
		if got := hex.EncodeToString(b); got != g.hex {
			t.Errorf("frame %d: %T encodes to %s, want %s", i, g.msg, got, g.hex)
		}
		r := NewStreamReader(b[1:], rs)
		back, err := DecodeMessagePooled(tag, &r)
		if err != nil || r.Remaining() != 0 || !reflect.DeepEqual(deref(back), g.msg) || r.Stream() != ws {
			t.Errorf("frame %d: %T decodes to %+v (err %v, %d left)", i, g.msg, back, err, r.Remaining())
		}
		RecycleMessage(back)
		rs = r.Stream()
		if i == 0 {
			continue
		}
		r = NewWireReader(b[1:])
		if back, err := DecodeMessagePooled(tag, &r); err == nil {
			if reflect.DeepEqual(deref(back), g.msg) {
				t.Errorf("frame %d: %T decodes as sent against a fresh stream", i, g.msg)
			}
			RecycleMessage(back)
		}
	}
}
