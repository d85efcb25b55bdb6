package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
)

// TestRoundTripCorpus: every corpus envelope (which covers every wire-
// contract message type) must decode back exactly equal (a pooled message
// in valueForm), and re-encoding the decoded envelope, pooled pointer and
// all, must reproduce the identical bytes (canonical encoding).
func TestRoundTripCorpus(t *testing.T) {
	for i, env := range Corpus() {
		payload, err := AppendEnvelope(nil, env)
		if err != nil {
			t.Fatalf("envelope %d (%T): encode: %v", i, env.Msg, err)
		}
		got, err := DecodeEnvelopePooled(payload)
		if err != nil {
			t.Fatalf("envelope %d (%T): decode: %v", i, env.Msg, err)
		}
		if kept := valueEnvelope(got); !reflect.DeepEqual(env, kept) {
			t.Fatalf("envelope %d (%T): round trip mismatch:\n in: %+v\nout: %+v", i, env.Msg, env, kept)
		}
		re, err := AppendEnvelope(nil, got)
		if err != nil {
			t.Fatalf("envelope %d (%T): re-encode: %v", i, env.Msg, err)
		}
		if !bytes.Equal(payload, re) {
			t.Fatalf("envelope %d (%T): re-encode differs from original bytes", i, env.Msg)
		}
		model.RecycleMessage(got.Msg)
	}
}

// TestCorpusCoversEveryTag guards the corpus itself: a message type added to
// the wire contract without a corpus entry would silently escape the round-
// trip, fuzz-seed, and benchmark coverage.
func TestCorpusCoversEveryTag(t *testing.T) {
	seen := map[model.WireTag]bool{}
	for _, env := range Corpus() {
		tag, ok := model.MessageTag(env.Msg)
		if !ok {
			t.Fatalf("corpus message %T has no wire tag", env.Msg)
		}
		seen[tag] = true
	}
	for tag := model.TagRequest; tag <= model.TagLast; tag++ {
		if seen[tag] == model.TagRetired(tag) {
			t.Errorf("tag %d: carried by a corpus envelope %v, retired %v", tag, seen[tag], model.TagRetired(tag))
		}
	}
}

// TestDecodeTruncated: every strict prefix of every valid payload must error
// cleanly — no panic, no success on partial data.
func TestDecodeTruncated(t *testing.T) {
	for i, env := range Corpus() {
		payload, err := AppendEnvelope(nil, env)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(payload); cut++ {
			if _, err := DecodeEnvelopePooled(payload[:cut]); err == nil {
				t.Fatalf("envelope %d (%T): decode of %d/%d-byte prefix succeeded", i, env.Msg, cut, len(payload))
			}
		}
	}
}

// TestDecodeTrailingBytes: extra bytes after a valid message are an error,
// not silently ignored — a frame is exactly one message.
func TestDecodeTrailingBytes(t *testing.T) {
	payload, err := AppendEnvelope(nil, Corpus()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeEnvelopePooled(append(payload, 0)); !errors.Is(err, ErrTrailingBytes) {
		t.Fatalf("trailing byte: got %v, want ErrTrailingBytes", err)
	}
}

// header returns the header of a hand-built frame, RI(1) → QM(2), followed
// by tag.
func header(t *testing.T, tag model.WireTag) []byte {
	t.Helper()
	b, err := AppendHeader(nil, engine.RIAddr(1), engine.QMAddr(2))
	if err != nil {
		t.Fatal(err)
	}
	return append(b, byte(tag))
}

// TestDecodeUnknownTag: a tag from a future build errors with
// ErrWireUnknownTag instead of misparsing.
func TestDecodeUnknownTag(t *testing.T) {
	if _, err := DecodeEnvelopePooled(header(t, 200)); !errors.Is(err, model.ErrWireUnknownTag) {
		t.Fatalf("unknown tag: got %v, want ErrWireUnknownTag", err)
	}
	if _, err := DecodeEnvelopePooled(header(t, model.TagInvalid)); !errors.Is(err, model.ErrWireUnknownTag) {
		t.Fatalf("tag 0 must be invalid: got %v", err)
	}
}

// TestOversizedElementCounts: a length prefix claiming more elements than
// the payload could possibly back must error immediately (no giant
// allocation, no hang). Construct a WFG report whose edge count is huge.
func TestOversizedElementCounts(t *testing.T) {
	b := header(t, model.TagWFGReport)
	b = model.AppendVarint(b, 2)      // From
	b = model.AppendUvarint(b, 1)     // Round
	b = model.AppendUvarint(b, 1<<40) // Edges count: absurd
	if _, err := DecodeEnvelopePooled(b); !errors.Is(err, model.ErrWireCorrupt) {
		t.Fatalf("oversized edge count: got %v, want ErrWireCorrupt", err)
	}

	// Same for a string length (Txn.Class) far past the payload end.
	b = append(header(t, model.TagSubmitTxn), 1)
	b = model.AppendVarint(b, 1)      // ID.Site
	b = model.AppendUvarint(b, 9)     // ID.Seq
	b = append(b, 0)                  // Protocol
	b = model.AppendUvarint(b, 0)     // ReadSet
	b = model.AppendUvarint(b, 0)     // WriteSet
	b = model.AppendVarint(b, 100)    // ComputeMicros
	b = model.AppendUvarint(b, 1<<50) // Class length: absurd
	if _, err := DecodeEnvelopePooled(b); !errors.Is(err, model.ErrWireCorrupt) {
		t.Fatalf("oversized string length: got %v, want ErrWireCorrupt", err)
	}
}

// TestQueueStatsDecodeRejects: a stats report whose entries repeat an item
// (a zero gap), stop mid-entry, or number more than the bytes could hold
// is corrupt or truncated, never a shorter report.
func TestQueueStatsDecodeRejects(t *testing.T) {
	report := func(count uint64, entries ...uint64) []byte {
		b := header(t, model.TagQueueStats)
		b = model.AppendVarint(b, 2)         // From
		b = model.AppendVarint(b, 1_000_000) // AtMicros
		b = model.AppendUvarint(b, 200_000)  // AtMicros − SinceMicros
		b = model.AppendUvarint(b, count)    // entries
		for _, v := range entries {
			b = model.AppendUvarint(b, v) // gap, zig-zag reads, zig-zag writes
		}
		return b
	}
	env, err := DecodeEnvelopePooled(report(2, 1, 10, 4, 3, 2, 0))
	if err != nil {
		t.Fatalf("well-formed report: %v", err)
	}
	model.RecycleMessage(env.Msg)
	for name, c := range map[string]struct {
		b    []byte
		want error
	}{
		"zero gap":        {report(2, 1, 10, 4, 0, 2, 0), model.ErrWireCorrupt},
		"zero first gap":  {report(1, 0, 10, 4), model.ErrWireCorrupt},
		"item past int32": {report(2, 1, 10, 4, 1<<31, 2, 0), model.ErrWireCorrupt},
		"truncated entry": {report(2, 1, 20_000, 4, 3, 2), model.ErrWireTruncated},
		"oversized count": {report(1<<40, 1, 10, 4), model.ErrWireCorrupt},
	} {
		if _, err := DecodeEnvelopePooled(c.b); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", name, err, c.want)
		}
	}
}

// TestHeaderGoldenBytes pins both address forms: one byte kind<<4 | id, and
// the marker 0x80|kind, the shard and the zig-zag id.
func TestHeaderGoldenBytes(t *testing.T) {
	for _, g := range []struct {
		from, to engine.Addr
		hex      string
	}{
		{engine.RIAddr(1), engine.QMAddr(2), "0112"},
		{engine.QMShardAddr(2, 3), engine.RIAddr(20), "810304800028"},
	} {
		b, err := AppendHeader(nil, g.from, g.to)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b); got != g.hex {
			t.Errorf("%v → %v encodes to %s, want %s", g.from, g.to, got, g.hex)
		}
	}
}

// TestDecodeRejectsNonCanonicalAddress: an address that fits one byte is
// accepted only in that form, so each envelope keeps exactly one encoding;
// the addresses that do not fit it travel in the long form and round-trip.
func TestDecodeRejectsNonCanonicalAddress(t *testing.T) {
	body, err := model.AppendMessage(nil, model.TickMsg{Tag: 3})
	if err != nil {
		t.Fatal(err)
	}
	short, _ := AppendHeader(nil, engine.RIAddr(1), engine.RIAddr(1))
	long := []byte{0x80 | byte(engine.KindRI), 0, 2} // RI(1), shard 0, varint id
	for name, hdr := range map[string][]byte{
		"long from": append(append(long[:3:3], short[1]), body...),
		"long to":   append(append(short[:1:1], long...), body...),
	} {
		if _, err := DecodeEnvelopePooled(hdr); !errors.Is(err, model.ErrWireCorrupt) {
			t.Errorf("%s: got %v, want ErrWireCorrupt", name, err)
		}
	}

	for _, a := range []engine.Addr{
		engine.QMShardAddr(2, 1),
		engine.RIAddr(16),
		engine.RIAddr(-1),
		{Kind: 8, ID: 3},
		{Kind: 0x7f, ID: math.MaxInt32, Shard: 255},
		{Kind: engine.KindQM, ID: math.MinInt32},
	} {
		env := engine.Envelope{From: a, To: engine.CollectorAddr(), Msg: model.TickMsg{Tag: 3}}
		b, err := AppendEnvelope(nil, env)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if b[0] < 0x80 {
			t.Errorf("%v encoded in the one-byte form %#x", a, b[0])
		}
		got, err := DecodeEnvelopePooled(b)
		if err != nil || got != env {
			t.Errorf("%v decodes to %+v (%v)", a, got, err)
		}
	}

	if _, err := AppendEnvelope(nil, engine.Envelope{From: engine.Addr{Kind: 0x80}, Msg: model.TickMsg{}}); !errors.Is(err, errAddrKind) {
		t.Errorf("kind 0x80 encoded: %v", err)
	}
}

// TestFrameTooLarge: a stream whose frame header claims more than
// MaxFrameBytes is abandoned with ErrFrameTooLarge before any allocation.
func TestFrameTooLarge(t *testing.T) {
	var b []byte
	b = binary.AppendUvarint(b, MaxFrameBytes+1)
	r := NewReader(bufio.NewReader(bytes.NewReader(b)))
	defer r.Release()
	if _, _, err := r.ReadEnvelopePooled(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: got %v, want ErrFrameTooLarge", err)
	}
}

// TestFrameTornMidPayload: a stream that ends anywhere inside a frame —
// length prefix or payload — must error (never a clean io.EOF, never a
// hang); io.EOF is reserved for exact frame boundaries.
func TestFrameTornMidPayload(t *testing.T) {
	frame, err := EncodeEnvelope(Corpus()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ReleaseFrame(frame)
	for cut := 1; cut < len(frame); cut++ {
		r := NewReader(bufio.NewReader(bytes.NewReader(frame[:cut])))
		_, _, err := r.ReadEnvelopePooled()
		r.Release()
		if err == nil {
			t.Fatalf("torn frame at %d/%d bytes decoded successfully", cut, len(frame))
		}
		if err == io.EOF {
			t.Fatalf("torn frame at %d/%d bytes reported a clean EOF", cut, len(frame))
		}
	}
	// A stream that dies inside a multi-byte length prefix is torn too.
	r := NewReader(bufio.NewReader(bytes.NewReader([]byte{0x80})))
	defer r.Release()
	if _, _, err := r.ReadEnvelopePooled(); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn length prefix: got %v, want ErrUnexpectedEOF", err)
	}
}

// TestWriterReaderStream: many envelopes through one Writer/Reader pair over
// a single buffered stream, interleaved with flushes, all arrive in order.
func TestWriterReaderStream(t *testing.T) {
	corpus := Corpus()
	var sink bytes.Buffer
	bw := bufio.NewWriter(&sink)
	w := NewWriter(bw)
	defer w.Release()
	for _, env := range corpus {
		if _, err := w.WriteEnvelope(env); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bufio.NewReader(&sink))
	defer r.Release()
	for i, want := range corpus {
		got, _, err := r.ReadEnvelopePooled()
		if err != nil {
			t.Fatalf("envelope %d: %v", i, err)
		}
		if kept := valueEnvelope(got); !reflect.DeepEqual(want, kept) {
			t.Fatalf("envelope %d mismatch:\n in: %+v\nout: %+v", i, want, kept)
		}
		model.RecycleMessage(got.Msg)
	}
	if _, _, err := r.ReadEnvelopePooled(); err != io.EOF {
		t.Fatalf("stream end: got %v, want io.EOF", err)
	}
}

// TestReaderBufferGrowsGeometrically: a stream whose frames creep up a few
// bytes at a time (the periodic queue stats do) must not buy a new payload
// buffer for every frame that is longer than the last.
func TestReaderBufferGrowsGeometrically(t *testing.T) {
	const frames = 200
	var sink bytes.Buffer
	bw := bufio.NewWriter(&sink)
	w := NewWriter(bw)
	defer w.Release()
	var cycle []model.TxnID
	for i := 0; i < 150+frames; i++ {
		cycle = append(cycle, model.TxnID{Site: 1, Seq: 1<<40 + uint64(i)}) // 7 bytes encoded
		if i < 150 {
			continue // past the pooled buffer's 1 KiB from the first frame
		}
		if _, err := w.WriteEnvelope(engine.Envelope{Msg: model.VictimMsg{Cycle: cycle}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bufio.NewReader(&sink))
	defer r.Release()
	buffers, last := 0, cap(r.buf)
	for i := 0; i < frames; i++ {
		env, _, err := r.ReadEnvelopePooled()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := len(env.Msg.(model.VictimMsg).Cycle); got != 151+i {
			t.Fatalf("frame %d carries %d transactions, want %d", i, got, 151+i)
		}
		if i == 0 && cap(r.buf) == last {
			t.Fatal("the first frame fitted the pooled buffer: the test grows nothing")
		}
		if cap(r.buf) != last {
			buffers, last = buffers+1, cap(r.buf)
		}
	}
	if buffers > 3 {
		t.Fatalf("%d growing frames bought %d buffers, want at most 3 (doubling)", frames, buffers)
	}
}

// TestEncodeUnknownMessageType: an envelope carrying a message with no
// encoding — none at all, or a batch with no members — errors instead of
// emitting a bogus frame.
func TestEncodeUnknownMessageType(t *testing.T) {
	for _, m := range []model.Message{nil, model.RequestBatchMsg{}, &model.GrantBatchMsg{}} {
		if _, err := AppendEnvelope(nil, engine.Envelope{Msg: m}); err == nil {
			t.Errorf("encoding %T %+v succeeded", m, m)
		}
	}
}

// TestEncodeSteadyStateAllocs: after warm-up, encoding through a Writer must
// not allocate at all.
func TestEncodeSteadyStateAllocs(t *testing.T) {
	corpus := Corpus()
	var sink bytes.Buffer
	bw := bufio.NewWriter(&sink)
	w := NewWriter(bw)
	defer w.Release()
	// Only the fixed-shape hot-path messages: map-carrying control messages
	// legitimately allocate their sorted-key scratch.
	hot := corpus[:0:0]
	for _, env := range corpus {
		switch env.Msg.(type) {
		case model.QueueStatsMsg, model.EstimateMsg, model.SubmitTxnMsg:
		default:
			hot = append(hot, env)
		}
	}
	run := func() {
		sink.Reset()
		bw.Reset(&sink)
		for _, env := range hot {
			if _, err := w.WriteEnvelope(env); err != nil {
				t.Fatal(err)
			}
		}
		bw.Flush()
	}
	run() // warm the scratch buffer
	if allocs := testing.AllocsPerRun(50, run); allocs > 0 {
		t.Fatalf("steady-state encode allocates %.1f allocs per corpus pass, want 0", allocs)
	}
}
