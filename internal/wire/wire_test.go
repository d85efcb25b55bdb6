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
	"slices"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
)

// payloadOf is env's frame payload as a fresh connection's Writer sends it.
func payloadOf(env engine.Envelope) ([]byte, error) {
	var sink bytes.Buffer
	bw := bufio.NewWriter(&sink)
	w := NewWriter(bw)
	defer w.Release()
	if _, err := w.WriteEnvelope(env); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	_, n := binary.Uvarint(sink.Bytes())
	return sink.Bytes()[n:], nil
}

// freshPayload is env's payload as a fresh connection's first frame,
// encoded without a Writer: both addresses explicit, the stream state zero.
func freshPayload(env engine.Envelope) ([]byte, error) {
	tag, ok := model.MessageTag(env.Msg)
	if !ok {
		return nil, model.ErrNoEncoding
	}
	b, err := new(addrMemo).appendHeader(nil, tag, env)
	if err != nil {
		return nil, err
	}
	return model.AppendBody(b, new(model.WireStream), env.Msg)
}

// frameOf length-prefixes a payload, as a Writer does.
func frameOf(payload []byte) []byte {
	return append(binary.AppendUvarint(nil, uint64(len(payload))), payload...)
}

// decodePayload decodes payload as a fresh connection's Reader reads its
// frame.
func decodePayload(payload []byte) (engine.Envelope, error) {
	r := NewReader(bufio.NewReader(bytes.NewReader(frameOf(payload))))
	defer r.Release()
	env, _, err := r.ReadEnvelopePooled()
	return env, err
}

// TestRoundTripCorpus: every corpus envelope (which covers every wire-
// contract message type) must decode back exactly equal (a pooled message
// in valueForm), and re-encoding the decoded envelope, pooled pointer and
// all, must reproduce the identical bytes (canonical encoding).
func TestRoundTripCorpus(t *testing.T) {
	for i, env := range Corpus() {
		payload, err := payloadOf(env)
		if err != nil {
			t.Fatalf("envelope %d (%T): encode: %v", i, env.Msg, err)
		}
		got, err := decodePayload(payload)
		if err != nil {
			t.Fatalf("envelope %d (%T): decode: %v", i, env.Msg, err)
		}
		if kept := valueEnvelope(got); !reflect.DeepEqual(env, kept) {
			t.Fatalf("envelope %d (%T): round trip mismatch:\n in: %+v\nout: %+v", i, env.Msg, env, kept)
		}
		re, err := payloadOf(got)
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
		payload, err := payloadOf(env)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(payload); cut++ {
			if _, err := decodePayload(payload[:cut]); err == nil {
				t.Fatalf("envelope %d (%T): decode of %d/%d-byte prefix succeeded", i, env.Msg, cut, len(payload))
			}
		}
	}
}

// TestDecodeTrailingBytes: extra bytes after a valid message are an error,
// not silently ignored — a frame is exactly one message.
func TestDecodeTrailingBytes(t *testing.T) {
	payload, err := payloadOf(Corpus()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodePayload(append(payload, 0)); !errors.Is(err, ErrTrailingBytes) {
		t.Fatalf("trailing byte: got %v, want ErrTrailingBytes", err)
	}
}

// header returns the header a fresh connection's first frame under tag
// carries from RI(1) to QM(2): both flags set, both addresses explicit.
func header(tag model.WireTag) []byte {
	return []byte{fromFlag | toFlag | byte(tag), 0x01, 0x12}
}

// TestDecodeUnknownTag: every tag a future build may take (41 to 63), and
// each retired tag, errors with ErrWireUnknownTag instead of misparsing,
// with its addresses explicit or left out.
func TestDecodeUnknownTag(t *testing.T) {
	if _, err := decodePayload(header(model.TagInvalid)); !errors.Is(err, model.ErrWireUnknownTag) {
		t.Fatalf("tag 0 must be invalid: got %v", err)
	}
	for tag := model.TagLast + 1; tag <= model.MaxTag; tag++ {
		if _, err := decodePayload(append(header(tag), 3)); !errors.Is(err, model.ErrWireUnknownTag) {
			t.Errorf("future tag %d: got %v, want ErrWireUnknownTag", tag, err)
		}
		if _, err := decodePayload([]byte{byte(tag), 3}); !errors.Is(err, model.ErrWireUnknownTag) {
			t.Errorf("future tag %d, addresses left out: got %v, want ErrWireUnknownTag", tag, err)
		}
	}
	for _, tag := range []model.WireTag{19, 20, 21, 23, 24, 25, 26, 32, 33, 40} {
		if _, err := decodePayload(append(header(tag), 3)); !errors.Is(err, model.ErrWireUnknownTag) {
			t.Errorf("retired tag %d: got %v, want ErrWireUnknownTag", tag, err)
		}
	}
}

// TestOversizedElementCounts: a length prefix claiming more elements than
// the payload could possibly back must error immediately (no giant
// allocation, no hang). Construct a WFG report whose edge count is huge.
func TestOversizedElementCounts(t *testing.T) {
	b := header(model.TagWFGReport)
	b = model.AppendVarint(b, 2)      // From
	b = model.AppendUvarint(b, 1)     // Round
	b = model.AppendUvarint(b, 1<<40) // Edges count: absurd
	if _, err := decodePayload(b); !errors.Is(err, model.ErrWireCorrupt) {
		t.Fatalf("oversized edge count: got %v, want ErrWireCorrupt", err)
	}

	// Same for a string length (Txn.Class) far past the payload end.
	b = append(header(model.TagSubmitTxn), 1)
	b = model.AppendVarint(b, 1)      // ID.Site
	b = model.AppendUvarint(b, 9)     // ID.Seq
	b = append(b, 0)                  // Protocol
	b = model.AppendUvarint(b, 0)     // ReadSet
	b = model.AppendUvarint(b, 0)     // WriteSet
	b = model.AppendVarint(b, 100)    // ComputeMicros
	b = model.AppendUvarint(b, 1<<50) // Class length: absurd
	if _, err := decodePayload(b); !errors.Is(err, model.ErrWireCorrupt) {
		t.Fatalf("oversized string length: got %v, want ErrWireCorrupt", err)
	}
}

// TestQueueStatsDecodeRejects: a stats report whose item set takes the
// form its size did not pick, has a bitmap with a clear end bit or set
// padding, or runs past int32, whose entries stop mid-entry, or whose
// count is more than the bytes could hold is corrupt or truncated, never a
// shorter report.
func TestQueueStatsDecodeRejects(t *testing.T) {
	report := func(set []uint64, entries ...uint64) []byte {
		b := header(model.TagQueueStats)
		b = model.AppendVarint(b, 2)         // From
		b = model.AppendVarint(b, 1_000_000) // AtMicros
		b = model.AppendUvarint(b, 200_000)  // AtMicros − SinceMicros
		for _, v := range set {
			b = model.AppendUvarint(b, v) // header, first item, then gaps less one or bitmap bytes
		}
		for _, v := range entries {
			b = model.AppendUvarint(b, v) // zig-zag reads, zig-zag writes
		}
		return b
	}
	// Items 10 and 14: the gap list {2·2, 10, 3} ties the bitmap
	// {2·5+1, 10, 0b10001}, and a tie goes to the gap list.
	env, err := decodePayload(report([]uint64{4, 10, 3}, 4, 3, 2, 0))
	if err != nil {
		t.Fatalf("well-formed report: %v", err)
	}
	model.RecycleMessage(env.Msg)
	for name, c := range map[string]struct {
		b    []byte
		want error
	}{
		"bitmap at a tie":       {report([]uint64{11, 10, 0b10001}, 4, 3, 2, 0), model.ErrWireCorrupt},
		"gap list past bitmap":  {report([]uint64{8, 10, 0, 0, 0}, 4, 3, 2, 0, 1, 1, 1, 1), model.ErrWireCorrupt},
		"bitmap first bit":      {report([]uint64{9, 10, 0b1110}, 4, 3, 2, 0, 1, 1, 1, 1), model.ErrWireCorrupt},
		"bitmap padding":        {report([]uint64{9, 10, 0b11111}, 4, 3, 2, 0, 1, 1, 1, 1), model.ErrWireCorrupt},
		"item past int32":       {report([]uint64{4, 10, 1 << 31}, 4, 3, 2, 0), model.ErrWireCorrupt},
		"first item past int32": {report([]uint64{2, 1 << 31}, 4, 3), model.ErrWireCorrupt},
		"bitmap past int32":     {report([]uint64{2*(1<<31) + 1, 1}), model.ErrWireCorrupt},
		"truncated entry":       {report([]uint64{4, 10, 3}, 20_000, 3, 2), model.ErrWireTruncated},
		"oversized count":       {report([]uint64{1 << 41, 1}, 10, 4), model.ErrWireCorrupt},
		"oversized bitmap":      {report([]uint64{1<<20 + 1, 1}, 10, 4), model.ErrWireCorrupt},
	} {
		if _, err := decodePayload(c.b); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want %v", name, err, c.want)
		}
	}
}

// TestHeaderGoldenBytes pins the v10 frame header: the header byte (the
// tag in six bits, 0x40 when from follows, 0x80 when to follows), then the
// explicit addresses, each in one of two forms — one byte kind<<4 | id, or
// the marker 0x80|kind, the shard and the zig-zag id. A fresh stream's
// first frame of a tag carries both; a later frame of the tag leaves out
// each address equal to the last frame of its tag's. The messages are
// ProbeWFGMsg{Round: 3} (tag 14, body 03), which codes nothing against the
// stream, and TxnFinishedMsg (tag 22) to show the memo is per tag.
func TestHeaderGoldenBytes(t *testing.T) {
	round3 := model.ProbeWFGMsg{Round: 3}
	var sink bytes.Buffer
	bw := bufio.NewWriter(&sink)
	w := NewWriter(bw)
	defer w.Release()
	for i, g := range []struct {
		from, to engine.Addr
		msg      model.Message
		hex      string
	}{
		{engine.RIAddr(1), engine.QMAddr(2), round3, "ce0112" + "03"},
		{engine.RIAddr(1), engine.QMAddr(2), round3, "0e" + "03"},
		{engine.RIAddr(1), engine.QMAddr(2), model.TxnFinishedMsg{}, "d60112" + "0000"},
		{engine.RIAddr(3), engine.QMAddr(2), round3, "4e03" + "03"},
		{engine.RIAddr(3), engine.QMAddr(4), round3, "8e14" + "03"},
		{engine.QMShardAddr(2, 3), engine.RIAddr(20), round3, "ce810304800028" + "03"},
		{engine.QMShardAddr(2, 3), engine.RIAddr(20), round3, "0e" + "03"},
		{engine.RIAddr(1), engine.QMAddr(2), model.TxnFinishedMsg{}, "16" + "0000"},
	} {
		sink.Reset()
		bw.Reset(&sink)
		if _, err := w.WriteEnvelope(engine.Envelope{From: g.from, To: g.to, Msg: g.msg}); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		_, n := binary.Uvarint(sink.Bytes())
		if got := hex.EncodeToString(sink.Bytes()[n:]); got != g.hex {
			t.Errorf("frame %d, %v → %v %T: payload %s, want %s", i, g.from, g.to, g.msg, got, g.hex)
		}
	}
}

// TestDecodeRejectsNonCanonicalAddress: an address that fits one byte is
// accepted only in that form, so each envelope keeps exactly one encoding;
// the addresses that do not fit it travel in the long form and round-trip.
func TestDecodeRejectsNonCanonicalAddress(t *testing.T) {
	body, err := model.AppendBody(nil, new(model.WireStream), model.ProbeWFGMsg{Round: 3})
	if err != nil {
		t.Fatal(err)
	}
	hdr, short := fromFlag|toFlag|byte(model.TagProbeWFG), byte(0x01) // RI(1) in one byte
	long := []byte{0x80 | byte(engine.KindRI), 0, 2}                  // RI(1), shard 0, varint id
	for name, payload := range map[string][]byte{
		"long from": slices.Concat([]byte{hdr}, long, []byte{short}, body),
		"long to":   slices.Concat([]byte{hdr, short}, long, body),
	} {
		if _, err := decodePayload(payload); !errors.Is(err, model.ErrWireCorrupt) {
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
		env := engine.Envelope{From: a, To: engine.CollectorAddr(), Msg: model.TxnFinishedMsg{Txn: model.TxnID{Site: 1, Seq: 3}}}
		b, err := payloadOf(env)
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if b[1] < 0x80 {
			t.Errorf("%v encoded in the one-byte form %#x", a, b[1])
		}
		got, err := decodePayload(b)
		if err != nil || got != env {
			t.Errorf("%v decodes to %+v (%v)", a, got, err)
		}
	}

	if _, err := payloadOf(engine.Envelope{From: engine.Addr{Kind: 0x80}, Msg: model.ProbeWFGMsg{}}); !errors.Is(err, errAddrKind) {
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
	payload, err := payloadOf(Corpus()[0])
	if err != nil {
		t.Fatal(err)
	}
	frame := frameOf(payload)
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

// TestStreamSkipsLeaveNoTrace: the frames a connection skips touch neither
// end's stream state. An envelope the Writer refuses (an EncodeError: a
// frame over MaxFrameBytes, whose message has its own Seq and stamp) is
// never sent, and a frame whose tag the Reader does not know is skipped
// unread; the envelopes around each, with Seqs and stamps of their own,
// decode exactly as sent.
func TestStreamSkipsLeaveNoTrace(t *testing.T) {
	const wall = 1_760_000_000_000_000
	req := func(seq uint64, ts model.Timestamp, items int) engine.Envelope {
		m := model.RequestBatchMsg{Txn: model.TxnID{Site: 1, Seq: seq}, Protocol: model.TO, TS: ts, CopySite: 2,
			Members: make([]model.RequestMember, items)}
		for i := range m.Members {
			m.Members[i].Item = 1<<28 + model.ItemID(i) // six bytes a member
		}
		return engine.Envelope{From: engine.RIAddr(1), To: engine.QMAddr(2), Msg: m}
	}
	var sink bytes.Buffer
	bw := bufio.NewWriter(&sink)
	w := NewWriter(bw)
	defer w.Release()
	write := func(env engine.Envelope) {
		t.Helper()
		if _, err := w.WriteEnvelope(env); err != nil {
			t.Fatal(err)
		}
	}
	sent := []engine.Envelope{req(1_000_000, wall, 1), req(1_000_004, wall+120, 2), req(1_000_009, wall+310, 1)}
	write(sent[0])
	var ee *EncodeError
	if _, err := w.WriteEnvelope(req(5_000_000, wall+90_000, MaxFrameBytes/6+1)); !errors.As(err, &ee) {
		t.Fatalf("oversized envelope: got %v, want an EncodeError", err)
	}
	write(sent[1])
	bw.Flush()
	sink.Write(frameOf(append(header(model.MaxTag), 0x80, 0x89, 0x7a))) // a newer build's tag
	write(sent[2])
	bw.Flush()

	r := NewReader(bufio.NewReader(&sink))
	defer r.Release()
	for i, want := range append(sent[:2:2], engine.Envelope{}, sent[2]) {
		got, _, err := r.ReadEnvelopePooled()
		if want.Msg == nil {
			if !errors.Is(err, model.ErrWireUnknownTag) {
				t.Fatalf("frame %d: got %v, want ErrWireUnknownTag", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if kept := valueEnvelope(got); !reflect.DeepEqual(want, kept) {
			t.Fatalf("frame %d mismatch:\n in: %+v\nout: %+v", i, want, kept)
		}
		model.RecycleMessage(got.Msg)
	}
}

// writeFrames frames envs through w, flushes, and returns each frame.
func writeFrames(t *testing.T, w *Writer, bw *bufio.Writer, sink *bytes.Buffer, envs ...engine.Envelope) [][]byte {
	t.Helper()
	var frames [][]byte
	for _, env := range envs {
		if _, err := w.WriteEnvelope(env); err != nil {
			t.Fatalf("%v → %v %T: %v", env.From, env.To, env.Msg, err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, slices.Clone(sink.Bytes()))
		sink.Reset()
	}
	return frames
}

// readFrames reads the frames of stream through one Reader and checks
// each against want: an envelope to decode exactly, or, where want's
// message is nil, a frame that fails with wantErr.
func readFrames(t *testing.T, stream []byte, want []engine.Envelope, wantErr error) {
	t.Helper()
	r := NewReader(bufio.NewReader(bytes.NewReader(stream)))
	defer r.Release()
	for i, w := range want {
		got, _, err := r.ReadEnvelopePooled()
		if w.Msg == nil {
			if !errors.Is(err, wantErr) {
				t.Fatalf("frame %d: got %v, want %v", i, err, wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("frame %d (%v → %v %T): %v", i, w.From, w.To, w.Msg, err)
		}
		if kept := valueEnvelope(got); !reflect.DeepEqual(w, kept) {
			t.Fatalf("frame %d mismatch:\n in: %+v\nout: %+v", i, w, kept)
		}
		model.RecycleMessage(got.Msg)
	}
	if _, _, err := r.ReadEnvelopePooled(); err != io.EOF {
		t.Fatalf("stream end: got %v, want io.EOF", err)
	}
}

// probe is an envelope whose body, ProbeWFGMsg{Round: 3} (tag 14, body 03),
// codes nothing against the stream state, so its payload is its header
// and one byte.
func probe(from, to engine.Addr) engine.Envelope {
	return engine.Envelope{From: from, To: to, Msg: model.ProbeWFGMsg{Round: 3}}
}

// TestMemoRefusedFrameLeavesSlots: an envelope the Writer refuses with an
// EncodeError — a frame over MaxFrameBytes, an address with no encoding, a
// process-local message — leaves every slot of its address memo as it
// was, so the next frame of the tag still leaves out the addresses the
// reader holds.
func TestMemoRefusedFrameLeavesSlots(t *testing.T) {
	batch := func(from, to engine.Addr, items int) engine.Envelope {
		m := model.RequestBatchMsg{Txn: model.TxnID{Site: 1, Seq: 9}, CopySite: 2, Members: make([]model.RequestMember, items)}
		for i := range m.Members {
			m.Members[i].Item = 1<<28 + model.ItemID(i) // six bytes a member
		}
		return engine.Envelope{From: from, To: to, Msg: m}
	}
	var sink bytes.Buffer
	bw := bufio.NewWriter(&sink)
	w := NewWriter(bw)
	defer w.Release()
	sent := batch(engine.RIAddr(1), engine.QMAddr(2), 2)
	first := writeFrames(t, w, bw, &sink, sent)[0]
	memo := w.memo
	for name, env := range map[string]engine.Envelope{
		"oversized":           batch(engine.RIAddr(3), engine.QMAddr(4), MaxFrameBytes/6+1),
		"no address encoding": batch(engine.RIAddr(3), engine.Addr{Kind: 0x80}, 2),
		"process-local":       {From: engine.RIAddr(3), To: engine.QMAddr(4), Msg: model.TickMsg{Tag: 1}},
	} {
		var ee *EncodeError
		if _, err := w.WriteEnvelope(env); !errors.As(err, &ee) {
			t.Fatalf("%s: got %v, want an EncodeError", name, err)
		}
		if w.memo != memo {
			t.Errorf("%s: a refused envelope moved the address memo", name)
		}
	}
	bw.Reset(&sink)
	second := writeFrames(t, w, bw, &sink, sent)[0]
	if len(second) != len(first)-2 {
		t.Errorf("the frame after the refusals is %d bytes, want %d: both addresses left out", len(second), len(first)-2)
	}
	readFrames(t, slices.Concat(first, second), []engine.Envelope{sent, sent}, nil)
}

// TestMemoSkippedTagsLeaveSlots: frames a reader skips — tags 41 and 63,
// which a newer build of the version may send, with their addresses left
// out (that build's second frame of the tag) or explicit, and the retired
// tag 20 — touch no slot. The frames of known tags around them, coded by a
// Writer that never saw the skipped frames, decode exactly: one with both
// addresses left out, one with its from changed.
func TestMemoSkippedTagsLeaveSlots(t *testing.T) {
	var sink bytes.Buffer
	bw := bufio.NewWriter(&sink)
	w := NewWriter(bw)
	defer w.Release()
	known := []engine.Envelope{
		probe(engine.RIAddr(1), engine.QMAddr(2)), probe(engine.RIAddr(1), engine.QMAddr(2)), probe(engine.RIAddr(3), engine.QMAddr(2)),
	}
	frames := writeFrames(t, w, bw, &sink, known...)
	if len(frames[1]) != 3 {
		t.Fatalf("the second frame is %x: want its addresses left out", frames[1])
	}
	// RI(7) → QM(9) explicit, where a slot moved by the frame would spoil
	// the known frames after it.
	skipped := [][]byte{
		frameOf([]byte{41, 0xde, 0xad}),
		frameOf([]byte{fromFlag | toFlag | 63, 0x07, 0x19, 0xbe}),
		frameOf([]byte{fromFlag | toFlag | 20, 0x07, 0x19, 0x00, 0x06, 0x01}),
		frameOf([]byte{toFlag | 20, 0x19, 0x00, 0x06, 0x01}),
	}
	stream := slices.Concat(append([][]byte{frames[0]}, append(skipped, frames[1:]...)...)...)
	want := append([]engine.Envelope{known[0]}, make([]engine.Envelope, len(skipped))...)
	readFrames(t, stream, append(want, known[1:]...), model.ErrWireUnknownTag)
}

// TestMemoFreshPairStartsEmpty: a new Writer and Reader, as a reconnect
// builds, start with empty memos at both ends. The new Writer's first
// frame carries both addresses, byte for byte the old Writer's first, and
// a new Reader refuses a frame that leaves out addresses it never saw.
func TestMemoFreshPairStartsEmpty(t *testing.T) {
	env := probe(engine.RIAddr(1), engine.QMAddr(2))
	var sink bytes.Buffer
	bw := bufio.NewWriter(&sink)
	w := NewWriter(bw)
	old := writeFrames(t, w, bw, &sink, env, env)
	w.Release()
	w = NewWriter(bw)
	defer w.Release()
	if fresh := writeFrames(t, w, bw, &sink, env)[0]; !bytes.Equal(fresh, old[0]) {
		t.Errorf("a new Writer's first frame is %x, want %x: a fresh stream's", fresh, old[0])
	}
	readFrames(t, old[1], []engine.Envelope{{}}, model.ErrWireCorrupt)
	readFrames(t, slices.Concat(old...), []engine.Envelope{env, env}, nil)
}

// TestMemoRejectsNonCanonicalHeaders: every frame has exactly one header,
// so a reader refuses as ErrWireCorrupt an explicit address equal to its
// tag's slot, which the writer must have left out, and a left-out address
// with no slot to fill it — on a fresh stream, or where only another tag's
// frames came before.
func TestMemoRejectsNonCanonicalHeaders(t *testing.T) {
	first := frameOf([]byte{fromFlag | toFlag | 14, 0x01, 0x12, 0x03}) // RI(1) → QM(2)
	for name, c := range map[string]struct {
		before, frame []byte
	}{
		"explicit from equal to the slot":  {first, []byte{fromFlag | 14, 0x01, 0x03}},
		"explicit to equal to the slot":    {first, []byte{toFlag | 14, 0x12, 0x03}},
		"both explicit, equal to the slot": {first, []byte{fromFlag | toFlag | 14, 0x01, 0x12, 0x03}},
		"from left out, fresh stream":      {nil, []byte{toFlag | 14, 0x12, 0x03}},
		"to left out, fresh stream":        {nil, []byte{fromFlag | 14, 0x01, 0x03}},
		"both left out, fresh stream":      {nil, []byte{14, 0x03}},
		"left out, another tag's slot":     {first, []byte{22, 0x00, 0x00}},
	} {
		t.Run(name, func(t *testing.T) {
			want := []engine.Envelope{{}}
			if c.before != nil {
				want = []engine.Envelope{probe(engine.RIAddr(1), engine.QMAddr(2)), {}}
			}
			readFrames(t, append(c.before[:len(c.before):len(c.before)], frameOf(c.frame)...), want, model.ErrWireCorrupt)
		})
	}
	// The one header of each change from the slot decodes.
	readFrames(t, slices.Concat(first,
		frameOf([]byte{fromFlag | 14, 0x03, 0x03}),
		frameOf([]byte{toFlag | 14, 0x14, 0x03}),
		frameOf([]byte{14, 0x03})),
		[]engine.Envelope{probe(engine.RIAddr(1), engine.QMAddr(2)), probe(engine.RIAddr(3), engine.QMAddr(2)),
			probe(engine.RIAddr(3), engine.QMAddr(4)), probe(engine.RIAddr(3), engine.QMAddr(4))}, nil)
}

// TestMemoLongAddresses: long-form addresses — queue-manager shards past
// 0, an id past 15 — are left out and restored like one-byte ones, and a
// shard that differs from the slot's in nothing but its shard is a
// different address.
func TestMemoLongAddresses(t *testing.T) {
	envs := []engine.Envelope{
		probe(engine.QMShardAddr(2, 1), engine.RIAddr(1)),
		probe(engine.QMShardAddr(2, 1), engine.RIAddr(1)),
		probe(engine.QMShardAddr(2, 1), engine.RIAddr(20)),
		probe(engine.QMShardAddr(2, 3), engine.RIAddr(20)),
		probe(engine.QMShardAddr(2, 3), engine.RIAddr(20)),
	}
	var sink bytes.Buffer
	bw := bufio.NewWriter(&sink)
	w := NewWriter(bw)
	defer w.Release()
	frames := writeFrames(t, w, bw, &sink, envs...)
	for i, want := range []string{"ce81010401", "0e", "8e800028", "4e810304", "0e"} {
		if got := hex.EncodeToString(frames[i][1 : len(frames[i])-1]); got != want {
			t.Errorf("frame %d, %v → %v: header %s, want %s", i, envs[i].From, envs[i].To, got, want)
		}
	}
	readFrames(t, slices.Concat(frames...), envs, nil)
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
		cycle = append(cycle, model.TxnID{Site: 1, Seq: uint64(i) << 40}) // 7 bytes encoded
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
// encoding — none at all, a batch with no members, or a process-local
// message, pooled or not — errors instead of emitting a bogus frame.
func TestEncodeUnknownMessageType(t *testing.T) {
	for _, m := range []model.Message{nil, model.RequestBatchMsg{}, &model.GrantBatchMsg{},
		model.TickMsg{Tag: 3}, &model.RestartMsg{}, model.FlushDoneMsg{Shard: 3}} {
		if _, err := payloadOf(engine.Envelope{Msg: m}); err == nil {
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
