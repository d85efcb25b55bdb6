package repl

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/wal"
	"ucc/internal/wire"
)

func rec(seq uint64, item int, value int64, commit int64) wal.Record {
	return wal.Record{
		Seq:          seq,
		Item:         model.ItemID(item),
		Txn:          model.TxnID{Site: 0, Seq: seq},
		Value:        value,
		Version:      seq,
		CommitMicros: commit,
	}
}

func frames(rs ...wal.Record) []byte {
	var buf []byte
	for _, r := range rs {
		buf = wal.AppendRecordFrame(buf, r)
	}
	return buf
}

func TestPullerWatermarks(t *testing.T) {
	p := NewPuller(Options{Site: 0, Peers: []model.SiteID{2, 1}})
	if got := p.Peers(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("peers not sorted ascending: %v", got)
	}
	if p.Mark(1) != 0 || p.Mark(2) != 0 {
		t.Fatal("fresh puller must start at watermark zero")
	}
	p.Advance(1, 10)
	p.Advance(1, 5) // regression attempt: must be ignored
	if p.Mark(1) != 10 {
		t.Fatalf("watermark regressed: %d", p.Mark(1))
	}
	p.Advance(3, 99) // unknown peer: ignored, not adopted
	if _, ok := p.Watermarks()[3]; ok {
		t.Fatal("advance for an unknown peer created a watermark")
	}
	w := p.Watermarks()
	w[1] = 999 // returned map must be a copy
	if p.Mark(1) != 10 {
		t.Fatal("Watermarks leaked internal state")
	}
	p.ResetAll()
	if p.Mark(1) != 0 || p.Mark(2) != 0 {
		t.Fatal("ResetAll must zero every watermark (crash wipes the store)")
	}
}

func TestPullerDefaults(t *testing.T) {
	p := NewPuller(Options{Site: 1})
	if p.PeriodMicros() != DefaultPeriodMicros {
		t.Fatalf("period %d, want default %d", p.PeriodMicros(), DefaultPeriodMicros)
	}
	if p.BatchRecords() != DefaultBatchRecords {
		t.Fatalf("batch %d, want default %d", p.BatchRecords(), DefaultBatchRecords)
	}
}

// memSource is a scripted Source for BuildBatch tests.
type memSource struct {
	frames  []byte
	next    uint64
	more    bool
	gap     bool
	err     error
	snap    []byte
	snapSeq uint64
	snapErr error
}

func (s *memSource) RecordsSince(afterSeq uint64, max int, _ func(model.ItemID, int64) bool) ([]byte, uint64, bool, bool, error) {
	return s.frames, s.next, s.more, s.gap, s.err
}
func (s *memSource) TakeHave(dst []wal.Have) []wal.Have { return dst }
func (s *memSource) SnapshotRecords() ([]byte, uint64, error) {
	return s.snap, s.snapSeq, s.snapErr
}

func TestBuildBatchTail(t *testing.T) {
	src := &memSource{frames: frames(rec(3, 1, 30, 300)), next: 3, more: true}
	msg, err := BuildBatch(2, src, 2, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if msg.From != 2 || msg.NextAfterSeq != 3 || !msg.More || msg.Reset {
		t.Fatalf("unexpected batch shape: %+v", msg)
	}
}

func TestBuildBatchGapFallsBackToSnapshot(t *testing.T) {
	src := &memSource{gap: true, snap: frames(rec(0, 1, 7, 700)), snapSeq: 42}
	msg, err := BuildBatch(1, src, 5, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !msg.Reset || !msg.More {
		t.Fatalf("gap batch must carry Reset+More: %+v", msg)
	}
	if msg.NextAfterSeq != 42 {
		t.Fatalf("reset watermark %d, want snapshot applied seq 42", msg.NextAfterSeq)
	}
}

func TestBuildBatchErrors(t *testing.T) {
	boom := errors.New("boom")
	if _, err := BuildBatch(0, &memSource{err: boom}, 0, 16, nil); !errors.Is(err, boom) {
		t.Fatalf("log error not surfaced: %v", err)
	}
	if _, err := BuildBatch(0, &memSource{gap: true, snapErr: boom}, 0, 16, nil); !errors.Is(err, boom) {
		t.Fatalf("snapshot error not surfaced: %v", err)
	}
	// An empty incremental batch (peer has no news, next == afterSeq) is
	// legitimate steady state — but a Reset image that does not move past
	// the watermark would re-ship forever, and must be refused.
	if msg, err := BuildBatch(0, &memSource{next: 3}, 3, 16, nil); err != nil || msg.More {
		t.Fatalf("steady-state empty batch rejected: %+v %v", msg, err)
	}
	if _, err := BuildBatch(0, &memSource{gap: true, snapSeq: 3}, 3, 16, nil); err == nil {
		t.Fatal("non-advancing snapshot image accepted")
	}
}

// applyModel is the stamp-gated replica the protocol assumes: an apply lands
// only if its commit stamp is strictly newer than what the chain holds.
type applyModel map[model.ItemID]int64

func (m applyModel) apply(r wal.Record) bool {
	if r.CommitMicros <= m[r.Item] {
		return false
	}
	m[r.Item] = r.CommitMicros
	return true
}

func TestApplyCountsAndIdempotence(t *testing.T) {
	buf := frames(
		rec(1, 1, 10, 100),
		rec(2, 2, 20, 200),
		rec(3, 1, 11, 150), // stale vs seq 1? no: 150 > 100, applies
		rec(4, 1, 12, 120), // out-of-order older stamp: skipped
	)
	m := applyModel{}
	st := Apply(buf, m.apply)
	if st.Applied != 3 || st.Skipped != 1 || st.Torn != 0 {
		t.Fatalf("first pass stats %+v, want 3/1/0", st)
	}
	// Re-shipping the identical batch must be a no-op.
	st = Apply(buf, m.apply)
	if st.Applied != 0 || st.Skipped != 4 {
		t.Fatalf("replay not idempotent: %+v", st)
	}
}

// TestApplyTruncationEveryByte: a batch cut at any byte boundary must decode
// to a clean prefix — intact leading records apply, the damaged tail counts
// as torn, and nothing panics. This is the deterministic core of
// FuzzReplStream.
func TestApplyTruncationEveryByte(t *testing.T) {
	full := frames(rec(1, 1, 10, 100), rec(2, 2, 20, 200), rec(3, 3, 30, 300))
	for cut := 0; cut <= len(full); cut++ {
		m := applyModel{}
		st := Apply(full[:cut], m.apply)
		if cut == len(full) {
			if st.Applied != 3 || st.Torn != 0 {
				t.Fatalf("cut=%d (full): %+v", cut, st)
			}
			continue
		}
		if st.Torn == 0 && st.Applied == 3 {
			t.Fatalf("cut=%d: truncated stream decoded as complete", cut)
		}
		if st.Applied > 3 {
			t.Fatalf("cut=%d: invented records: %+v", cut, st)
		}
	}
}

// TestShippedBatchGoldenBytes: a ReplRecordsMsg envelope encoded at the
// commit before the WAL's fixed-width decoder was removed (three records
// spanning the field extremes, framed by wal.AppendRecordFrame) decodes to
// the same records, and re-encodes to the same bytes, now.
func TestShippedBatchGoldenBytes(t *testing.T) {
	const golden = "0104000102001c045fb1fd83c310000080010e0429e1a2f3ad070180808080804091a1e306" +
		"21000080020000ffffffffffffffffff01feffffffffffffff7fffffffffffffffffff0101" +
		"921c79bc1600008003feffffff0ffeffffff0f0900038080f28183898506030001"
	want := []wal.Record{
		{Seq: 1, Item: 7, Txn: model.TxnID{Site: 2, Seq: 41}, Value: -987654321, Version: 1, CommitMicros: 1 << 40},
		{Seq: 2, Item: 0, Txn: model.TxnID{Site: 0, Seq: 1<<64 - 1}, Value: 1<<62 - 1, Version: 1<<64 - 1, CommitMicros: -1},
		{Seq: 3, Item: 1<<31 - 1, Txn: model.TxnID{Site: 1<<31 - 1, Seq: 9}, Value: 0, Version: 3, CommitMicros: 1700000000000000},
	}
	raw, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	env, err := wire.DecodeEnvelope(raw)
	if err != nil {
		t.Fatal(err)
	}
	msg, ok := env.Msg.(model.ReplRecordsMsg)
	if !ok || msg.From != 2 || msg.NextAfterSeq != 3 || !msg.More {
		t.Fatalf("decoded %T %+v", env.Msg, env.Msg)
	}
	var got []wal.Record
	st := Apply(msg.Frames, func(r wal.Record) bool { got = append(got, r); return true })
	if st.Torn != 0 || st.Applied != len(want) {
		t.Fatalf("apply stats %+v, want %d applied and nothing torn", st, len(want))
	}
	for i, r := range got {
		if r != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, r, want[i])
		}
	}
	msg.Frames = frames(want...)
	re, err := wire.AppendEnvelope(nil, engine.Envelope{From: env.From, To: env.To, Msg: msg})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, raw) {
		t.Fatalf("re-encoded batch differs:\n got %x\nwant %x", re, raw)
	}
}
