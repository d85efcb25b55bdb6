package repl

import (
	"bytes"
	"encoding/hex"
	"errors"
	"slices"
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

// frames encodes rs as one shipped batch.
func frames(rs ...wal.Record) []byte {
	var buf []byte
	var prev int64
	for _, r := range rs {
		buf = wal.AppendShipped(buf, prev, r)
		prev = r.CommitMicros
	}
	return buf
}

func TestPullerWatermarks(t *testing.T) {
	p := NewPuller(Options{Site: 0, Peers: []model.SiteID{2, 1}})
	if got := p.Peers(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("peers not sorted ascending: %v", got)
	}
	if p.Pull(1, 0).AfterSeq != 0 || p.Pull(2, 0).AfterSeq != 0 {
		t.Fatal("fresh puller must start at watermark zero")
	}
	p.Advance(1, 0, 10)
	p.Advance(1, 0, 5) // regression attempt: must be ignored
	if p.Pull(1, 0).AfterSeq != 10 {
		t.Fatalf("watermark regressed: %d", p.Pull(1, 0).AfterSeq)
	}
	p.Advance(3, 0, 99) // unknown peer: ignored, not adopted
	if _, ok := p.Watermarks()[3]; ok {
		t.Fatal("advance for an unknown peer created a watermark")
	}
	w := p.Watermarks()
	w[1] = 999 // returned map must be a copy
	if p.Pull(1, 0).AfterSeq != 10 {
		t.Fatal("Watermarks leaked internal state")
	}
	inc := p.Incarnation()
	p.ResetAll()
	if p.Pull(1, 0).AfterSeq != 0 || p.Pull(2, 0).AfterSeq != 0 {
		t.Fatal("ResetAll must zero every watermark (crash wipes the store)")
	}
	if p.Incarnation() == inc {
		t.Fatal("ResetAll must start a new incarnation (replies to older pulls are dropped)")
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
	// One peer is pulled per tick, so the tick divides the period among
	// the peers; with none it stays the period.
	if p.TickMicros() != DefaultPeriodMicros {
		t.Fatalf("tick %d with no peers, want the period %d", p.TickMicros(), DefaultPeriodMicros)
	}
	p.SetPeers([]model.SiteID{0, 2, 3})
	if p.TickMicros() != DefaultPeriodMicros/3 {
		t.Fatalf("tick %d over 3 peers, want %d", p.TickMicros(), DefaultPeriodMicros/3)
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

func (s *memSource) RecordsSince(afterSeq uint64, max int, _ func(model.ItemID, int64) bool, dst []byte) ([]byte, uint64, bool, bool, error) {
	return append(dst, s.frames...), s.next, s.more, s.gap, s.err
}
func (s *memSource) HaveSince(afterSeq uint64, dst []wal.Have) ([]wal.Have, uint64) {
	return dst, afterSeq
}
func (s *memSource) SnapshotRecords(_ func(model.ItemID, int64) bool, dst []byte) ([]byte, uint64, error) {
	return append(dst, s.snap...), s.snapSeq, s.snapErr
}

func TestBuildBatchTail(t *testing.T) {
	src := &memSource{frames: frames(rec(3, 1, 30, 300)), next: 3, more: true}
	msg, err := BuildBatch(2, src, 2, 16, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if msg.From != 2 || msg.NextAfterSeq != 3 || !msg.More || msg.Reset {
		t.Fatalf("unexpected batch shape: %+v", msg)
	}
}

func TestBuildBatchGapFallsBackToSnapshot(t *testing.T) {
	src := &memSource{gap: true, snap: frames(rec(0, 1, 7, 700)), snapSeq: 42}
	msg, err := BuildBatch(1, src, 5, 16, nil, nil)
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
	if _, err := BuildBatch(0, &memSource{err: boom}, 0, 16, nil, nil); !errors.Is(err, boom) {
		t.Fatalf("log error not surfaced: %v", err)
	}
	if _, err := BuildBatch(0, &memSource{gap: true, snapErr: boom}, 0, 16, nil, nil); !errors.Is(err, boom) {
		t.Fatalf("snapshot error not surfaced: %v", err)
	}
	// An empty incremental batch (peer has no news, next == afterSeq) is
	// legitimate steady state — but a Reset image that does not move past
	// the watermark would re-ship forever, and must be refused.
	if msg, err := BuildBatch(0, &memSource{next: 3}, 3, 16, nil, nil); err != nil || msg.More {
		t.Fatalf("steady-state empty batch rejected: %+v %v", msg, err)
	}
	if _, err := BuildBatch(0, &memSource{gap: true, snapSeq: 3}, 3, 16, nil, nil); err == nil {
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
	recs := []wal.Record{rec(1, 1, 10, 100), rec(2, 2, 20, 200), rec(3, 3, 30, 300)}
	full := frames(recs...)
	// ends[i] is where record i's encoding ends: a cut there is a shorter
	// batch, a cut anywhere else tears the record it falls in.
	var ends []int
	for i := range recs {
		ends = append(ends, len(frames(recs[:i+1]...)))
	}
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
		whole, intact := 0, 0
		for _, end := range ends {
			if end <= cut {
				whole, intact = whole+1, end
			}
		}
		if st.Applied != whole || st.Torn != cut-intact {
			t.Fatalf("cut=%d: %+v, want %d applied and the %d bytes after them torn", cut, st, whole, cut-intact)
		}
	}
}

// TestShippedBatchGoldenBytes: a ReplRecordsMsg envelope, QM(2) → QM(1),
// shipping three records that span the field extremes in the shipped batch
// codec, decodes to the same records and re-encodes to the same bytes. The
// records carry no Seq or Version: neither is shipped. A catch-up reply ends
// in a zero epoch and a clear NotReady flag (wire v7).
func TestShippedBatchGoldenBytes(t *testing.T) {
	const golden = "12111c043d070229e1a2f3ad078080808080400000ffffffffffffffffff01" +
		"feffffffffffffff7f818080808040ffffffff07ffffffff0709008280f28183898506030001010000"
	want := []wal.Record{
		{Item: 7, Txn: model.TxnID{Site: 2, Seq: 41}, Value: -987654321, CommitMicros: 1 << 40},
		{Item: 0, Txn: model.TxnID{Site: 0, Seq: 1<<64 - 1}, Value: 1<<62 - 1, CommitMicros: -1},
		{Item: 1<<31 - 1, Txn: model.TxnID{Site: 1<<31 - 1, Seq: 9}, Value: 0, CommitMicros: 1700000000000000},
	}
	raw, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	env, err := wire.DecodeEnvelopePooled(raw)
	if err != nil {
		t.Fatal(err)
	}
	defer model.RecycleMessage(env.Msg)
	p, ok := env.Msg.(*model.ReplRecordsMsg)
	if !ok || p.From != 2 || p.NextAfterSeq != 3 || !p.More || p.Incarnation != 1 || p.Epoch != 0 || p.NotReady {
		t.Fatalf("decoded %T %+v", env.Msg, env.Msg)
	}
	msg := *p
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

// TestPullerFills: a fill starts at watermark 0 and every pull of it carries
// its epoch and scope; it holds back a later epoch's fill of its items; its
// mark moves apart from the peer's catch-up mark; a crash zeroes it with
// every other mark; it closes once, returning its items.
func TestPullerFills(t *testing.T) {
	p := NewPuller(Options{Site: 2, Peers: []model.SiteID{0}})
	pull := p.OpenFill(0, 5, []model.ItemID{3, 9})
	scope, ok := DecodeScope(pull.Scope, nil)
	if pull.From != 2 || pull.AfterSeq != 0 || pull.Epoch != 5 || pull.Have != nil || !ok || !slices.Equal(scope, []model.ItemID{3, 9}) {
		t.Fatalf("first fill pull %+v (scope %v, ok %v), want one from site 2 at 0 for epoch 5 over items 3 and 9", pull, scope, ok)
	}
	if !p.FillsOpen() || !p.FillOpen(0, 5) || p.FillOpen(0, 4) || p.FillOpen(1, 5) {
		t.Fatal("FillOpen must know exactly the fill from site 0 at epoch 5")
	}
	if !p.Filling(6, AppendScope(nil, []model.ItemID{1, 9})) || p.Filling(5, AppendScope(nil, []model.ItemID{9})) || p.Filling(6, AppendScope(nil, []model.ItemID{4})) {
		t.Fatal("Filling must hold back exactly a later epoch's fill of an item still being filled")
	}
	if !p.Advance(0, 5, 7) || p.Advance(0, 5, 6) || p.Pull(0, 0).AfterSeq != 0 {
		t.Fatal("a fill's mark must rise monotonically and apart from the catch-up mark")
	}
	p.Advance(0, 0, 3)
	n := 0
	for peer, pull := range p.FillPulls() {
		n++
		if peer != 0 || pull.AfterSeq != 7 || pull.Epoch != 5 || !bytes.Equal(pull.Scope, AppendScope(nil, []model.ItemID{3, 9})) {
			t.Fatalf("re-pull to %d: %+v, want the fill's from 7", peer, pull)
		}
	}
	if n != 1 || p.Pull(0, 0).AfterSeq != 3 || p.Pull(0, 0).Epoch != 0 {
		t.Fatalf("%d fill re-pulls and catch-up pull %+v, want one and a catch-up pull from 3", n, p.Pull(0, 0))
	}
	inc := p.Incarnation()
	p.ResetAll()
	if got := p.Pull(0, 5); got.AfterSeq != 0 || got.Incarnation == inc || p.Pull(0, 0).AfterSeq != 0 {
		t.Fatalf("after ResetAll the fill pulls %+v, catch-up from %d; want both from 0 in a new incarnation", got, p.Pull(0, 0).AfterSeq)
	}
	if items := p.CloseFill(0, 5); !slices.Equal(items, []model.ItemID{3, 9}) || p.FillsOpen() || p.CloseFill(0, 5) != nil || p.Advance(0, 5, 9) {
		t.Fatalf("CloseFill returned %v; a closed fill must be gone", items)
	}
}
