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
		32: TransferPullMsg{},
		33: TransferRecordsMsg{},
		34: RequestBatchMsg{Members: make([]RequestMember, 2)},
		35: ReleaseBatchMsg{Members: make([]ReleaseMember, 2)},
		36: GrantBatchMsg{Members: make([]GrantMember, 2)},
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
		"24022a0304020e0100d00f0511c03e260201d00f5403f02e"},
}

// TestBatchGoldenBytes pins the batch encodings and their decode back.
func TestBatchGoldenBytes(t *testing.T) {
	for _, g := range goldenBatches {
		b, err := AppendMessage(nil, g.msg)
		if err != nil {
			t.Fatalf("%T: %v", g.msg, err)
		}
		if got := hex.EncodeToString(b); got != g.hex {
			t.Errorf("%T encodes to %s, want %s", g.msg, got, g.hex)
		}
		r := NewWireReader(b[1:])
		back, err := DecodeMessage(WireTag(b[0]), &r)
		if err != nil || r.Remaining() != 0 || !reflect.DeepEqual(back, g.msg) {
			t.Errorf("%T decodes to %+v (err %v, %d left), want %+v", g.msg, back, err, r.Remaining(), g.msg)
		}
	}
}

// TestBatchOfOneIsItsSingleMessage: a batch of one encodes to exactly the
// bytes of the single message it stands for — so the issuer and the queue
// manager need no send path that depends on group size — and an empty batch
// has no encoding at all.
func TestBatchOfOneIsItsSingleMessage(t *testing.T) {
	for _, g := range goldenBatches {
		var one, single, empty Message
		switch v := g.msg.(type) {
		case RequestBatchMsg:
			v.Members = v.Members[1:]
			one, single = v, v.Request(0)
			v.Members = nil
			empty = v
		case ReleaseBatchMsg:
			v.Members = v.Members[1:]
			one, single = v, v.Release(0)
			v.Members = nil
			empty = v
		case GrantBatchMsg:
			v.Members = v.Members[1:]
			one, single = v, v.Grant(0)
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
		b, _ := AppendMessage(nil, g.msg)
		for _, members := range []int{0, 1} {
			var cut []byte
			switch v := g.msg.(type) {
			case RequestBatchMsg:
				v.Members = v.Members[:members]
				cut = append([]byte{b[0]}, v.AppendWire(nil)...)
			case ReleaseBatchMsg:
				v.Members = v.Members[:members]
				cut = append([]byte{b[0]}, v.AppendWire(nil)...)
			case GrantBatchMsg:
				v.Members = v.Members[:members]
				cut = append([]byte{b[0]}, v.AppendWire(nil)...)
			}
			r := NewWireReader(cut[1:])
			if _, err := DecodeMessage(WireTag(cut[0]), &r); !errors.Is(err, ErrWireCorrupt) {
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
	m, err := DecodeMessage(TagSubmitTxn, &r)
	if err != nil {
		t.Fatal(err)
	}
	out := m.(SubmitTxnMsg).Txn
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("decoded %+v, want %+v", out, in)
	}
	readEnd := unsafe.Add(unsafe.Pointer(unsafe.SliceData(out.ReadSet)), len(out.ReadSet)*int(unsafe.Sizeof(ItemID(0))))
	if readEnd != unsafe.Pointer(unsafe.SliceData(out.WriteSet)) || cap(out.ReadSet) != len(out.ReadSet) {
		t.Fatal("read and write sets are separate arrays")
	}
	out.ReadSet = append(out.ReadSet, 99)
	if out.WriteSet[0] != 4 {
		t.Fatal("appending to the read set overwrote the write set")
	}
	allocs := testing.AllocsPerRun(100, func() {
		r := NewWireReader(b[1:])
		DecodeMessage(TagSubmitTxn, &r)
	})
	if allocs > 3 { // the Txn, the item array, the boxed message
		t.Fatalf("SubmitTxnMsg decode allocates %.0f times, want 3", allocs)
	}
	for _, sets := range [][2][]ItemID{{nil, {4}}, {{1}, nil}, {nil, nil}} {
		in := &Txn{ID: TxnID{Site: 1, Seq: 3}, ReadSet: sets[0], WriteSet: sets[1]}
		b, _ := AppendMessage(nil, SubmitTxnMsg{Txn: in})
		r := NewWireReader(b[1:])
		m, err := DecodeMessage(TagSubmitTxn, &r)
		if err != nil || !reflect.DeepEqual(m.(SubmitTxnMsg).Txn, in) {
			t.Fatalf("sets %v: decoded %+v (%v)", sets, m, err)
		}
	}
}
