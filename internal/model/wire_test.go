package model

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
	"unsafe"
)

// TestWireReaderPrimitives: the error-latching reader must reject exactly
// the malformed shapes (truncation, overlong varints, non-canonical bools,
// bomb-sized counts) and latch the first failure.
func TestWireReaderPrimitives(t *testing.T) {
	var b []byte
	b = AppendUvarint(b, 300)
	b = AppendVarint(b, -7)
	b = AppendWireBool(b, true)
	b = AppendWireF64(b, 3.5)
	b = AppendWireString(b, "class-A")
	r := NewWireReader(b)
	if v := r.Uvarint(); v != 300 {
		t.Fatalf("uvarint: %d", v)
	}
	if v := r.Varint(); v != -7 {
		t.Fatalf("varint: %d", v)
	}
	if !r.Bool() {
		t.Fatal("bool lost")
	}
	if v := r.F64(); v != 3.5 {
		t.Fatalf("f64: %v", v)
	}
	if s := r.String(); s != "class-A" {
		t.Fatalf("string: %q", s)
	}
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("clean decode errored: %v, %d left", r.Err(), r.Remaining())
	}

	// Truncation latches and sticks.
	r2 := NewWireReader(nil)
	if r2.Uvarint() != 0 || !errors.Is(r2.Err(), ErrWireTruncated) {
		t.Fatalf("empty read: %v", r2.Err())
	}
	r2.Byte() // further reads must not clear the latched error
	if !errors.Is(r2.Err(), ErrWireTruncated) {
		t.Fatalf("latched error lost: %v", r2.Err())
	}

	// A bool byte other than 0/1 is corrupt (canonical encoding).
	r3 := NewWireReader([]byte{2})
	r3.Bool()
	if !errors.Is(r3.Err(), ErrWireCorrupt) {
		t.Fatalf("bool 2 accepted: %v", r3.Err())
	}

	// A 64-bit-overflowing varint is corrupt, not a hang or a panic.
	r4 := NewWireReader(bytes.Repeat([]byte{0xff}, 11))
	r4.Uvarint()
	if !errors.Is(r4.Err(), ErrWireCorrupt) {
		t.Fatalf("overflowing varint accepted: %v", r4.Err())
	}

	// An overlong (non-canonical) varint is corrupt too: 0x80 0x00 encodes
	// zero in two bytes where one is canonical. Accepting it would make
	// decode non-injective (two byte strings, one message).
	r4b := NewWireReader([]byte{0x80, 0x00})
	if v := r4b.Uvarint(); v != 0 || !errors.Is(r4b.Err(), ErrWireCorrupt) {
		t.Fatalf("overlong uvarint accepted: v=%d err=%v", v, r4b.Err())
	}
	r4c := NewWireReader([]byte{0x81, 0x80, 0x00})
	if r4c.Varint(); !errors.Is(r4c.Err(), ErrWireCorrupt) {
		t.Fatalf("overlong varint accepted: %v", r4c.Err())
	}

	// A count larger than the remaining bytes could back errors immediately
	// (the decompression-bomb guard).
	r5 := NewWireReader(AppendUvarint(nil, 1<<40))
	r5.Count(1)
	if !errors.Is(r5.Err(), ErrWireCorrupt) {
		t.Fatalf("bomb count accepted: %v", r5.Err())
	}
}

// TestMessageTagsStable pins every tag value: renumbering a tag is a wire-
// contract break that must fail a test, not slip through review.
func TestMessageTagsStable(t *testing.T) {
	want := map[WireTag]Message{
		1:  RequestMsg{},
		2:  FinalTSMsg{},
		3:  ReleaseMsg{},
		4:  AbortMsg{},
		5:  GrantMsg{},
		6:  NormalGrantMsg{},
		7:  RejectMsg{},
		8:  BackoffMsg{},
		9:  BusyMsg{},
		10: VictimMsg{},
		11: SnapReadMsg{},
		12: SnapReadReplyMsg{},
		13: WFGReportMsg{},
		14: ProbeWFGMsg{},
		15: SubmitTxnMsg{},
		16: TxnDoneMsg{},
		17: QueueStatsMsg{},
		18: EstimateMsg{},
		19: TickMsg{},
		20: ComputeDoneMsg{},
		21: RestartMsg{},
		22: TxnFinishedMsg{},
		23: StopMsg{},
		24: CrashMsg{},
		25: RecoverMsg{},
		26: FlushMsg{},
		27: ReplPullMsg{},
		28: ReplRecordsMsg{},
		29: WrongEpochMsg{},
		30: MapInstallMsg{},
		31: MapUpdateMsg{},
		34: RequestBatchMsg{Members: make([]RequestMember, 2)},
		35: ReleaseBatchMsg{Members: make([]ReleaseMember, 2)},
		36: GrantBatchMsg{Members: make([]GrantMember, 2)},
		37: SnapReadBatchMsg{Members: make([]ItemID, 2)},
		38: SnapReadReplyBatchMsg{Members: make([]SnapReadReplyMember, 2)},
		39: AbortBatchMsg{Members: make([]ItemID, 2)},
		40: FlushDoneMsg{},
	}
	for tag, msg := range want {
		got, ok := MessageTag(msg)
		if !ok || got != tag {
			t.Errorf("%T: tag %d (ok=%v), want %d", msg, got, ok, tag)
		}
	}
	if _, ok := MessageTag(nil); ok {
		t.Error("nil message must have no tag")
	}
	// Tags 32 and 33 (the rebalance transfer's pull and reply) are retired:
	// no type travels under them and they decode as unknown.
	for tag := TagRequest; tag <= TagLast; tag++ {
		if _, pinned := want[tag]; pinned == TagRetired(tag) {
			t.Errorf("tag %d: pinned to a type %v, retired %v; want exactly one", tag, pinned, TagRetired(tag))
		}
	}
	for _, tag := range []WireTag{32, 33} {
		r := NewWireReader(nil)
		if _, err := DecodeMessagePooled(tag, &r); !errors.Is(err, ErrWireUnknownTag) || !TagRetired(tag) {
			t.Errorf("retired tag %d decodes with %v", tag, err)
		}
	}
}

// goldenBatches are one batch of each type with the bytes it must encode to
// (tag included). A change to these bytes is a wire-contract break.
var goldenBatches = []struct {
	msg Message
	hex string
}{
	{RequestBatchMsg{Txn: TxnID{Site: 1, Seq: 42}, Attempt: 3, Protocol: PA, TS: 1000, Interval: 250, Site: 1, Epoch: 2, CopySite: 2,
		Members: []RequestMember{{Item: 7, Kind: OpWrite}, {Item: 19, Kind: OpRead}}},
		"22022a030402d00ff4030202020e012600"},
	{ReleaseBatchMsg{Txn: TxnID{Site: 1, Seq: 42}, Attempt: 3, CopySite: 2, ToSemi: true, CommitMicros: 5000,
		Members: []ReleaseMember{{Item: 7, HasWrite: true, Value: -5}, {Item: 19}}},
		"23022a030401904e020e0109260000"},
	{GrantBatchMsg{Txn: TxnID{Site: 1, Seq: 42}, Attempt: 3, CopySite: 2, Members: []GrantMember{
		{Item: 7, Lock: WL, TS: 1000, Value: -3, Version: 17, CommitMicros: 4000},
		{Item: 19, Lock: SRL, PreScheduled: true, TS: 1000, Value: 42, Version: 3, CommitMicros: 3000}}},
		"24022a0304020e0100d00f0511f02e260201005403a01f"},
	{SnapReadBatchMsg{Txn: TxnID{Site: 1, Seq: 42}, Attempt: 0, SnapMicros: 1_700_000_000_000_000, Site: 1, Epoch: 2, CopySite: 2,
		Members: []ItemID{7, 19, 300}},
		"25022a00048080f281838985060202030e26d804"},
	{SnapReadReplyBatchMsg{Txn: TxnID{Site: 1, Seq: 42}, Attempt: 0, CopySite: 2, Members: []SnapReadReplyMember{
		{Item: 7, Value: -3, Version: 17, CommitMicros: 1_699_999_999_000_000, Exact: true},
		{Item: 19, Value: 42, Version: 3, CommitMicros: 1_699_999_998_000_000, Exact: true},
		{Item: 300, Value: 100, CommitMicros: 0}}},
		"26022a0004030e051180f7f7808389850601265403ff887a01d804c80100ffedfdff8289850600"},
	{AbortBatchMsg{Txn: TxnID{Site: 1, Seq: 42}, Attempt: 3, CopySite: 2, Members: []ItemID{7, 19, 300}},
		"27022a0304030e26d804"},
}

// goldenStamped are the single messages that carry a stamp as a delta from
// another stamp of the message, with the bytes they must encode to.
var goldenStamped = []struct {
	msg Message
	hex string
}{
	{GrantBatchMsg{Txn: TxnID{Site: 1, Seq: 42}, Attempt: 3, CopySite: 2,
		Members: []GrantMember{{Item: 7, Lock: WL, TS: 1000, Value: -3, Version: 17, CommitMicros: 4000}}},
		"05022a030e040100d00f0511f02e"},
	{TxnDoneMsg{Txn: TxnID{Site: 1, Seq: 42}, Protocol: TO, Outcome: OutcomeCommitted,
		ArrivalMicros: 1_700_000_000_001_000, DoneMicros: 1_700_000_000_009_000, FirstArrivalMicros: 1_700_000_000_000_000,
		Attempts: 2, Size: 5, Reads: 3, Writes: 2, Messages: 40, BackoffReads: 1, LockedMicros: 4000},
		"10022a0100d08cf38183898506807dd00f040a060450000200c03e"},
}

// checkGolden asserts that msg encodes to hexWant and decodes back to msg
// (a pooled batch to the pointer to it).
func checkGolden(t *testing.T, msg Message, hexWant string) {
	t.Helper()
	b, err := AppendMessage(nil, msg)
	if err != nil {
		t.Fatalf("%T: %v", msg, err)
	}
	if got := hex.EncodeToString(b); got != hexWant {
		t.Errorf("%T encodes to %s, want %s", msg, got, hexWant)
	}
	r := NewWireReader(b[1:])
	back, err := DecodeMessagePooled(WireTag(b[0]), &r)
	if err != nil || r.Remaining() != 0 || !reflect.DeepEqual(deref(back), msg) {
		t.Errorf("%T decodes to %+v (err %v, %d left), want %+v", msg, back, err, r.Remaining(), msg)
	}
	RecycleMessage(back)
}

// deref is the value a decoded pooled pointer points to, and any other
// decoded message as it is. Read it before the message is recycled.
func deref(m Message) any {
	if v := reflect.ValueOf(m); v.Kind() == reflect.Pointer {
		return v.Elem().Interface()
	}
	return m
}

// TestBatchGoldenBytes pins the batch encodings and their decode back, and
// that a withdrawal of one copy is byte for byte the AbortMsg it stands for.
func TestBatchGoldenBytes(t *testing.T) {
	for _, g := range goldenBatches {
		checkGolden(t, g.msg, g.hex)
	}
	one := AbortBatchMsg{Txn: TxnID{Site: 1, Seq: 42}, Attempt: 3, CopySite: 2, Members: []ItemID{300}}
	b, err := AppendMessage(nil, one)
	if err != nil {
		t.Fatal(err)
	}
	const abortHex = "04022a03d80404"
	if got := hex.EncodeToString(b); got != abortHex {
		t.Errorf("AbortBatchMsg of one encodes to %s, want the AbortMsg's %s", got, abortHex)
	}
	checkGolden(t, one, abortHex)
}

// TestStampedGoldenBytes pins the encodings of the single messages whose
// stamps travel as deltas, and their decode back.
func TestStampedGoldenBytes(t *testing.T) {
	for _, g := range goldenStamped {
		checkGolden(t, g.msg, g.hex)
	}
}

// TestBatchOfOneIsItsSingleMessage: a batch of one encodes to exactly the
// bytes of the single message it stands for — so the issuer and the queue
// manager need no send path that depends on group size — those bytes decode
// as the pooled batch of one again, and an empty batch has no encoding at
// all.
func TestBatchOfOneIsItsSingleMessage(t *testing.T) {
	for _, g := range goldenBatches {
		var one, single, empty Message
		switch v := g.msg.(type) {
		case RequestBatchMsg:
			v.Members = v.Members[len(v.Members)-1:]
			one, single = v, v.Request(0)
			v.Members = nil
			empty = v
		case ReleaseBatchMsg:
			v.Members = v.Members[len(v.Members)-1:]
			one, single = v, v.Release(0)
			v.Members = nil
			empty = v
		case GrantBatchMsg:
			v.Members = v.Members[len(v.Members)-1:]
			one, single = v, v.Grant(0)
			v.Members = nil
			empty = v
		case SnapReadBatchMsg:
			v.Members = v.Members[len(v.Members)-1:]
			one, single = v, v.SnapRead(0)
			v.Members = nil
			empty = v
		case SnapReadReplyBatchMsg:
			v.Members = v.Members[len(v.Members)-1:]
			one, single = v, v.Reply(0)
			v.Members = nil
			empty = v
		case AbortBatchMsg:
			v.Members = v.Members[len(v.Members)-1:]
			one, single = v, v.Abort(0)
			v.Members = nil
			empty = v
		}
		got, err := AppendMessage(nil, one)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := AppendMessage(nil, single)
		if !bytes.Equal(got, want) {
			t.Errorf("%T of one encodes to %x, want its %T's %x", one, got, single, want)
		}
		r := NewWireReader(want[1:])
		back, err := DecodeMessagePooled(WireTag(want[0]), &r)
		if err != nil || r.Remaining() != 0 {
			t.Fatalf("%T's bytes: %v, %d left", single, err, r.Remaining())
		}
		again, _ := AppendMessage(nil, back)
		if reflect.ValueOf(back).Kind() != reflect.Pointer || !reflect.DeepEqual(deref(back), one) || !bytes.Equal(again, want) {
			t.Errorf("%T's bytes decode to %T %+v, which encodes to %x; want the pooled batch of one %+v, %x",
				single, back, back, again, one, want)
		}
		RecycleMessage(back)
		if _, err := AppendMessage(nil, empty); err == nil {
			t.Errorf("empty %T encoded", empty)
		}
	}
}

// TestBatchDecodeRejectsFewerThanTwo: a batch frame claiming zero or one
// member is corrupt — the one-member form would be a second encoding of a
// single message.
func TestBatchDecodeRejectsFewerThanTwo(t *testing.T) {
	for _, g := range goldenBatches {
		// A batch body ends with its member count and its members, so the
		// bodies of no members and of two equal members give the body a
		// batch of one would have had it not travelled as its single message.
		var none, twins Message
		switch v := g.msg.(type) {
		case RequestBatchMsg:
			v.Members = []RequestMember{v.Members[0], v.Members[0]}
			twins = v
			v.Members = nil
			none = v
		case ReleaseBatchMsg:
			v.Members = []ReleaseMember{v.Members[0], v.Members[0]}
			twins = v
			v.Members = nil
			none = v
		case GrantBatchMsg:
			v.Members = []GrantMember{v.Members[0], v.Members[0]}
			twins = v
			v.Members = nil
			none = v
		case SnapReadBatchMsg:
			v.Members = []ItemID{v.Members[0], v.Members[0]}
			twins = v
			v.Members = nil
			none = v
		case SnapReadReplyBatchMsg:
			v.Members = []SnapReadReplyMember{v.Members[0], v.Members[0]}
			twins = v
			v.Members = nil
			none = v
		case AbortBatchMsg:
			v.Members = []ItemID{v.Members[0], v.Members[0]}
			twins = v
			v.Members = nil
			none = v
		}
		body0, body2 := none.AppendWire(nil), twins.AppendWire(nil)
		member := body2[len(body0) : len(body0)+(len(body2)-len(body0))/2]
		body1 := append(append(body0[:len(body0)-1:len(body0)-1], 1), member...)
		for members, body := range [][]byte{body0, body1} {
			r := NewWireReader(body)
			if _, err := DecodeMessagePooled(g.msg.wireTag(), &r); !errors.Is(err, ErrWireCorrupt) {
				t.Errorf("%T with %d members decoded: %v", g.msg, members, err)
			}
		}
	}
}

// TestPooledBatchMembersAreBounded: a recycled batch keeps its members array
// for reuse only up to maxPooledMembers, and the pooled constructors copy the
// caller's members rather than adopting the slice.
func TestPooledBatchMembersAreBounded(t *testing.T) {
	if s := keptMembers(make([]GrantMember, 3, maxPooledMembers)); len(s) != 0 || cap(s) != maxPooledMembers {
		t.Fatalf("kept %d/%d of a %d-cap array, want it emptied and kept", len(s), cap(s), maxPooledMembers)
	}
	if s := keptMembers(make([]GrantMember, 3, maxPooledMembers+1)); s != nil {
		t.Fatalf("kept a %d-cap array past the bound", cap(s))
	}
	mine := []RequestMember{{Item: 1}, {Item: 2}}
	p := PooledRequestBatch(RequestBatchMsg{Members: mine})
	p.Members[0].Item = 9
	if mine[0].Item != 1 {
		t.Fatal("PooledRequestBatch adopted the caller's members slice")
	}
	RecycleMessage(p)
}

// TestDecodeTxnSharesOneItemArray: a decoded transaction's read and write
// sets live in one array, capped so that appending to one cannot write into
// the other, and empty sets decode to nil as they encode from.
func TestDecodeTxnSharesOneItemArray(t *testing.T) {
	in := NewTxn(TxnID{Site: 1, Seq: 2}, PA, []ItemID{1, 2, 3}, []ItemID{4, 5}, 10)
	b, _ := AppendMessage(nil, SubmitTxnMsg{Txn: in})
	r := NewWireReader(b[1:])
	m, err := DecodeMessagePooled(TagSubmitTxn, &r)
	if err != nil {
		t.Fatal(err)
	}
	if kept := RetainMessage(m).(SubmitTxnMsg).Txn; !reflect.DeepEqual(kept, in) {
		t.Fatalf("decoded %+v, want %+v", kept, in)
	}
	out := m.(SubmitTxnMsg).Txn
	readEnd := unsafe.Add(unsafe.Pointer(unsafe.SliceData(out.ReadSet)), len(out.ReadSet)*int(unsafe.Sizeof(ItemID(0))))
	if readEnd != unsafe.Pointer(unsafe.SliceData(out.WriteSet)) || cap(out.ReadSet) != len(out.ReadSet) {
		t.Fatal("read and write sets are separate arrays")
	}
	out.ReadSet = append(out.ReadSet, 99)
	if out.WriteSet[0] != 4 {
		t.Fatal("appending to the read set overwrote the write set")
	}
	RecycleMessage(m)
	rd := new(WireReader) // the decoder takes its address: keep it off the measured path
	allocs := testing.AllocsPerRun(100, func() {
		*rd = NewWireReader(b[1:])
		DecodeMessagePooled(TagSubmitTxn, rd) // not recycled: an empty pool
	})
	if allocs > 2 { // the Txn and the item array: a one-pointer message boxes for free
		t.Fatalf("SubmitTxnMsg decode allocates %.0f times, want 2", allocs)
	}
	for _, sets := range [][2][]ItemID{{nil, {4}}, {{1}, nil}, {nil, nil}} {
		in := &Txn{ID: TxnID{Site: 1, Seq: 3}, ReadSet: sets[0], WriteSet: sets[1]}
		b, _ := AppendMessage(nil, SubmitTxnMsg{Txn: in})
		r := NewWireReader(b[1:])
		m, err := DecodeMessagePooled(TagSubmitTxn, &r)
		if err != nil || !reflect.DeepEqual(RetainMessage(m).(SubmitTxnMsg).Txn, in) {
			t.Fatalf("sets %v: decoded %+v (%v)", sets, m, err)
		}
		RecycleMessage(m)
	}
}

// TestPooledReplAllocs: a catch-up pull and reply sent pooled, encoded,
// decoded pooled and recycled allocate nothing once warm: both ends reuse
// the byte array their pooled message kept. A copy taken with RetainMessage
// owns its bytes, and an empty byte string decodes to nil.
func TestPooledReplAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	have := []byte{2, 40, 2, 6}
	frames := bytes.Repeat([]byte{1, 2, 3, 4, 5}, 1024)
	var wire []byte
	r := new(WireReader) // the decoder takes its address: keep it off the measured path
	roundTrip := func(m Message) Message {
		wire, _ = AppendMessage(wire[:0], m)
		RecycleMessage(m)
		*r = NewWireReader(wire[1:])
		got, err := DecodeMessagePooled(WireTag(wire[0]), r)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	both := func() {
		RecycleMessage(roundTrip(PooledReplPull(ReplPullMsg{From: 1, AfterSeq: 9, Have: have, Incarnation: 2})))
		RecycleMessage(roundTrip(PooledReplRecords(ReplRecordsMsg{From: 2, Frames: frames, NextAfterSeq: 512, More: true})))
	}
	both()
	if n := testing.AllocsPerRun(100, both); n != 0 {
		t.Fatalf("%v allocations per pooled pull and reply round trip, want 0", n)
	}
	m := roundTrip(PooledReplRecords(ReplRecordsMsg{From: 2, Frames: frames}))
	kept := RetainMessage(m).(*ReplRecordsMsg)
	if !bytes.Equal(kept.Frames, frames) || &kept.Frames[0] == &m.(*ReplRecordsMsg).Frames[0] {
		t.Fatal("RetainMessage's copy shares the pooled reply's array")
	}
	RecycleMessage(m)
	RecycleMessage(kept)
	if p := roundTrip(PooledReplPull(ReplPullMsg{From: 1})).(*ReplPullMsg); p.Have != nil {
		t.Fatalf("an empty digest decoded to %v, want nil", p.Have)
	} else {
		RecycleMessage(p)
	}
}

// TestPooledQueueStatsAllocs: a site's stats report, one entry per copy,
// decodes pooled into the entry array the pooled report kept, so a client
// decoding every site's report each period allocates nothing once warm. The
// decode returns the report it was sent, and a report whose array outgrew
// maxPooledBytes entries is not kept.
func TestPooledQueueStatsAllocs(t *testing.T) {
	sent := QueueStatsMsg{From: 2, AtMicros: 1 << 42, SinceMicros: 1<<42 - 200_000}
	for i := 0; i < 4096; i++ {
		sent.Grants = append(sent.Grants, QueueGrants{Item: ItemID(i), Reads: int64(i % 7), Writes: int64(i % 3)})
	}
	b, _ := AppendMessage(nil, sent)
	r := new(WireReader) // the decoder takes its address: keep it off the measured path
	decode := func() *QueueStatsMsg {
		*r = NewWireReader(b[1:])
		m, err := DecodeMessagePooled(TagQueueStats, r)
		if err != nil {
			t.Fatal(err)
		}
		return m.(*QueueStatsMsg)
	}
	got := decode()
	if !reflect.DeepEqual(got.Grants, sent.Grants) || got.From != sent.From || got.SinceMicros != sent.SinceMicros {
		t.Fatalf("decoded %d entries from site %d, want the %d sent", len(got.Grants), got.From, len(sent.Grants))
	}
	RecycleMessage(got)
	if !raceEnabled { // sync.Pool drops items at random under -race
		if n := testing.AllocsPerRun(50, func() { RecycleMessage(decode()) }); n != 0 {
			t.Fatalf("a warm pooled stats decode and recycle allocates %.0f times, want 0", n)
		}
	}
	big := &QueueStatsMsg{buf: make([]QueueGrants, 0, maxPooledBytes+1)}
	big.recycle()
	if big.buf != nil {
		t.Fatalf("a recycled report kept a %d-entry array past the bound", maxPooledBytes+1)
	}
}

// TestPooledSubmitTxnAllocs: DecodeMessagePooled decodes a submit into a
// pooled Txn that keeps its item and specs arrays, so a warm decode and
// recycle allocates nothing. A recycled Txn carries nothing of its last
// transaction into the next, an array past maxPooledMembers is not kept, a
// caller's Txn passes through RecycleMessage untouched, and RetainMessage
// copies a pooled Txn out whole.
func TestPooledSubmitTxnAllocs(t *testing.T) {
	long := NewTxn(TxnID{Site: 1, Seq: 2}, PA, []ItemID{1, 2, 3}, []ItemID{4, 5}, 10)
	long.Specs = []WriteSpec{{Item: 4, UseSource: true, Source: 1, AddConst: 3}, {Item: 5, AddConst: 7}}
	classed := *long
	classed.Class = "batch"
	short := NewTxn(TxnID{Site: 1, Seq: 3}, TO, nil, []ItemID{9}, 0)
	frame := func(t *Txn) []byte {
		b, _ := AppendMessage(nil, SubmitTxnMsg{Txn: t})
		return b[1:]
	}
	r := new(WireReader) // the decoder takes its address: keep it off the measured path
	decode := func(b []byte) SubmitTxnMsg {
		*r = NewWireReader(b)
		m, err := DecodeMessagePooled(TagSubmitTxn, r)
		if err != nil {
			t.Fatal(err)
		}
		return m.(SubmitTxnMsg)
	}
	exported := func(t *Txn) *Txn {
		c := *t
		c.pooled, c.items, c.specs = false, nil, nil
		return &c
	}

	m := decode(frame(&classed))
	if !m.Txn.pooled {
		t.Fatal("DecodeMessagePooled returned a Txn that is not the pool's")
	}
	kept := RetainMessage(m).(SubmitTxnMsg).Txn
	if !reflect.DeepEqual(kept, &classed) {
		t.Fatalf("RetainMessage copied out %+v, want %+v", kept, &classed)
	}
	if &kept.ReadSet[0] == &m.Txn.ReadSet[0] || &kept.Specs[0] == &m.Txn.Specs[0] {
		t.Fatal("RetainMessage's copy shares an array with the pooled Txn")
	}
	RecycleMessage(m)
	m = decode(frame(short))
	if got := exported(m.Txn); !reflect.DeepEqual(got, short) {
		t.Fatalf("decode after recycle: got %+v (class %q, specs %v), want %+v", got, got.Class, got.Specs, short)
	}
	RecycleMessage(m)
	if !reflect.DeepEqual(kept, &classed) {
		t.Fatalf("the unpooled copy changed under the pool's reuse: %+v", kept)
	}

	mine, want := NewTxn(TxnID{Site: 1, Seq: 4}, TwoPL, []ItemID{1}, []ItemID{2}, 0), NewTxn(TxnID{Site: 1, Seq: 4}, TwoPL, []ItemID{1}, []ItemID{2}, 0)
	if RetainMessage(SubmitTxnMsg{Txn: mine}).(SubmitTxnMsg).Txn != mine {
		t.Fatal("RetainMessage copied a caller's Txn")
	}
	RecycleMessage(SubmitTxnMsg{Txn: mine})
	if !reflect.DeepEqual(mine, want) {
		t.Fatalf("RecycleMessage changed a caller's Txn: %+v, want %+v", mine, want)
	}

	wide := &Txn{ID: TxnID{Site: 1, Seq: 5}}
	for i := 0; i <= maxPooledMembers; i++ {
		wide.WriteSet = append(wide.WriteSet, ItemID(i))
		wide.Specs = append(wide.Specs, WriteSpec{Item: ItemID(i), AddConst: 1})
	}
	for _, tc := range []struct {
		txn  *Txn
		keep bool
	}{{long, true}, {wide, false}} {
		m := decode(frame(tc.txn))
		p := m.Txn
		RecycleMessage(m)
		if kept := p.items != nil && p.specs != nil; kept != tc.keep || len(p.items) != 0 || len(p.specs) != 0 {
			t.Errorf("%d items: recycled Txn kept arrays of cap %d and %d, want them kept emptied: %v",
				tc.txn.Size(), cap(p.items), cap(p.specs), tc.keep)
		}
	}

	if raceEnabled {
		return // sync.Pool drops items at random under -race
	}
	b := frame(long)
	RecycleMessage(decode(b))
	if allocs := testing.AllocsPerRun(100, func() { RecycleMessage(decode(b)) }); allocs != 0 {
		t.Fatalf("a warm pooled submit decode and recycle allocates %.0f times, want 0", allocs)
	}
}
