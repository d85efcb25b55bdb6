package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
)

// TestRoundTripCorpus: every corpus envelope (which covers every wire-
// contract message type) must decode back exactly equal, and re-encoding the
// decoded envelope must reproduce the identical bytes (canonical encoding).
func TestRoundTripCorpus(t *testing.T) {
	for i, env := range Corpus() {
		payload, err := AppendEnvelope(nil, env)
		if err != nil {
			t.Fatalf("envelope %d (%T): encode: %v", i, env.Msg, err)
		}
		got, err := DecodeEnvelope(payload)
		if err != nil {
			t.Fatalf("envelope %d (%T): decode: %v", i, env.Msg, err)
		}
		if !reflect.DeepEqual(env, got) {
			t.Fatalf("envelope %d (%T): round trip mismatch:\n in: %+v\nout: %+v", i, env.Msg, env, got)
		}
		re, err := AppendEnvelope(nil, got)
		if err != nil {
			t.Fatalf("envelope %d (%T): re-encode: %v", i, env.Msg, err)
		}
		if !bytes.Equal(payload, re) {
			t.Fatalf("envelope %d (%T): re-encode differs from original bytes", i, env.Msg)
		}
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
		if !seen[tag] {
			t.Errorf("no corpus envelope carries tag %d", tag)
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
			if _, err := DecodeEnvelope(payload[:cut]); err == nil {
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
	if _, err := DecodeEnvelope(append(payload, 0)); !errors.Is(err, ErrTrailingBytes) {
		t.Fatalf("trailing byte: got %v, want ErrTrailingBytes", err)
	}
}

// TestDecodeUnknownTag: a tag from a future build errors with
// ErrWireUnknownTag instead of misparsing.
func TestDecodeUnknownTag(t *testing.T) {
	b := []byte{0, 2, 0, 1, 4, 0, 200} // addresses + tag 200
	if _, err := DecodeEnvelope(b); !errors.Is(err, model.ErrWireUnknownTag) {
		t.Fatalf("unknown tag: got %v, want ErrWireUnknownTag", err)
	}
	if _, err := DecodeEnvelope([]byte{0, 2, 0, 1, 4, 0, 0}); !errors.Is(err, model.ErrWireUnknownTag) {
		t.Fatalf("tag 0 must be invalid: got %v", err)
	}
}

// TestOversizedElementCounts: a length prefix claiming more elements than
// the payload could possibly back must error immediately (no giant
// allocation, no hang). Construct a WFG report whose edge count is huge.
func TestOversizedElementCounts(t *testing.T) {
	b := []byte{0, 4, 0, 1, 4, 0, byte(model.TagWFGReport)}
	b = model.AppendVarint(b, 2)      // From
	b = model.AppendUvarint(b, 1)     // Round
	b = model.AppendUvarint(b, 1<<40) // Edges count: absurd
	if _, err := DecodeEnvelope(b); !errors.Is(err, model.ErrWireCorrupt) {
		t.Fatalf("oversized edge count: got %v, want ErrWireCorrupt", err)
	}

	// Same for a string length (Txn.Class) far past the payload end.
	b = []byte{8, 2, 0, 1, 4, 0, byte(model.TagSubmitTxn), 1}
	b = model.AppendVarint(b, 1)      // ID.Site
	b = model.AppendUvarint(b, 9)     // ID.Seq
	b = append(b, 0)                  // Protocol
	b = model.AppendUvarint(b, 0)     // ReadSet
	b = model.AppendUvarint(b, 0)     // WriteSet
	b = model.AppendVarint(b, 100)    // ComputeMicros
	b = model.AppendUvarint(b, 1<<50) // Class length: absurd
	if _, err := DecodeEnvelope(b); !errors.Is(err, model.ErrWireCorrupt) {
		t.Fatalf("oversized string length: got %v, want ErrWireCorrupt", err)
	}
}

// TestFrameTooLarge: a stream whose frame header claims more than
// MaxFrameBytes is abandoned with ErrFrameTooLarge before any allocation.
func TestFrameTooLarge(t *testing.T) {
	var b []byte
	b = binary.AppendUvarint(b, MaxFrameBytes+1)
	r := NewReader(bufio.NewReader(bytes.NewReader(b)))
	defer r.Release()
	if _, _, err := r.ReadEnvelope(); !errors.Is(err, ErrFrameTooLarge) {
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
		_, _, err := r.ReadEnvelope()
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
	if _, _, err := r.ReadEnvelope(); err != io.ErrUnexpectedEOF {
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
		got, _, err := r.ReadEnvelope()
		if err != nil {
			t.Fatalf("envelope %d: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("envelope %d mismatch:\n in: %+v\nout: %+v", i, want, got)
		}
	}
	if _, _, err := r.ReadEnvelope(); err != io.EOF {
		t.Fatalf("stream end: got %v, want io.EOF", err)
	}
}

// TestReaderBufferGrowsGeometrically: a stream whose frames creep up a few
// bytes at a time (the periodic queue stats do) must not buy a new payload
// buffer for every frame that is longer than the last, and both read forms
// share the one frame reader.
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
		read := r.ReadEnvelope
		if i%2 == 1 {
			read = r.ReadEnvelopePooled
		}
		env, _, err := read()
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

// TestEncodeUnknownMessageType: an envelope carrying a message outside the
// wire contract errors instead of emitting a bogus frame.
func TestEncodeUnknownMessageType(t *testing.T) {
	type rogueMsg struct{ model.StopMsg }
	env := engine.Envelope{Msg: rogueMsg{}}
	if _, err := AppendEnvelope(nil, env); err == nil {
		t.Fatal("encoding a non-contract message type succeeded")
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
