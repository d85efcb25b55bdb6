package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"reflect"
	"slices"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
)

// FuzzWireRoundTrip feeds arbitrary bytes to the envelope decoder as a
// fresh connection's first frame. The invariants:
//
//  1. Decode never panics or hangs, whatever the input (hardening).
//  2. Decode is INJECTIVE: an input that decodes IS the canonical encoding,
//     so re-encoding the result reproduces the input byte-for-byte. Every
//     non-canonical shape — overlong varints, bool bytes other than 0/1,
//     out-of-range 32-bit fields, unsorted or duplicate map keys, trailing
//     bytes — must instead be rejected. One message, one encoding is the
//     property the WAL's checksummed frames and the compat matrix rely on.
//
// The seed corpus under testdata/fuzz/FuzzWireRoundTrip holds one encoded
// payload per wire-contract message type (generated from Corpus(); see
// TestWriteSeedCorpus in seed_test.go). The fuzzer also starts from every
// corpus envelope and from a frame under each retired tag, which decodes as
// an unknown tag (TestDecodeUnknownTag).
func FuzzWireRoundTrip(f *testing.F) {
	for _, env := range Corpus() {
		payload, err := payloadOf(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	for tag := model.TagRequest; tag <= model.MaxTag; tag++ {
		if model.TagRetired(tag) {
			f.Add(append(header(tag), 3))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := decodePayload(data)
		if err != nil {
			return // malformed input rejected cleanly: that's a pass
		}
		defer model.RecycleMessage(env.Msg)
		e1, err := payloadOf(env)
		if err != nil {
			t.Fatalf("decoded envelope failed to re-encode: %v\nenvelope: %+v", err, env)
		}
		if !bytes.Equal(data, e1) {
			t.Fatalf("accepted input is not the canonical encoding (decode not injective):\n in: %x\nout: %x\nenvelope: %+v", data, e1, env)
		}
		again, err := decodePayload(e1)
		if err != nil {
			t.Fatalf("re-encoded envelope failed to decode: %v\nbytes: %x", err, e1)
		}
		model.RecycleMessage(again.Msg)
	})
}

// streamStep is the length of one step of a FuzzWireStream script: a corpus
// pick, the addresses (streamAddrs[b&7] → streamAddrs[b>>4&7]), then the
// Seq and the anchor stamp to give it, little-endian.
const streamStep = 1 + 1 + 8 + 8

// streamAddrs are the addresses a FuzzWireStream step picks from: few, so
// a tag's frames repeat addresses as often as they change them, and
// long forms among them.
var streamAddrs = [8]engine.Addr{
	engine.RIAddr(1), engine.QMAddr(2), engine.QMShardAddr(2, 1), engine.RIAddr(20),
	engine.DriverAddr(1), engine.DriverAddr(2), engine.CollectorAddr(), engine.QMShardAddr(0, 3),
}

// FuzzWireStream sends a run of corpus envelopes through one Writer and
// reads them back through one Reader, as one connection carries them. The
// script gives each envelope its corpus pick, its addresses and the
// transaction Seq and anchor stamp it carries (restamp), so the run puts
// every value — 0, NoTimestamp, the int64 extremes, backward jumps, a
// repeated or a changed address — against the stream state and the address
// memo the frames before it left. The invariants:
//
//  1. Every envelope decodes exactly as sent, and the stream ends at a frame
//     boundary.
//  2. The decoder never panics on tail, an arbitrary frame payload read
//     against the state the run left; what decodes re-encodes to tail
//     through the run's Writer.
//
// The seed corpus under testdata/fuzz/FuzzWireStream is streamSeeds.
func FuzzWireStream(f *testing.F) {
	for _, s := range streamSeeds() {
		f.Add(s.script, s.tail)
	}
	corpus := Corpus()
	f.Fuzz(func(t *testing.T, script, tail []byte) {
		var sink bytes.Buffer
		bw := bufio.NewWriter(&sink)
		w := NewWriter(bw)
		defer w.Release()
		var sent []engine.Envelope
		for ; len(script) >= streamStep; script = script[streamStep:] {
			env := corpus[int(script[0])%len(corpus)]
			env.From, env.To = streamAddrs[script[1]&7], streamAddrs[script[1]>>4&7]
			env.Msg = restamp(env.Msg, binary.LittleEndian.Uint64(script[2:]), int64(binary.LittleEndian.Uint64(script[10:])))
			if _, err := w.WriteEnvelope(env); err != nil {
				t.Fatalf("%T: %v", env.Msg, err)
			}
			sent = append(sent, env)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		r := NewReader(bufio.NewReader(io.MultiReader(&sink, bytes.NewReader(frameOf(tail)))))
		defer r.Release()
		for i, want := range sent {
			got, _, err := r.ReadEnvelopePooled()
			if err != nil {
				t.Fatalf("envelope %d (%T): %v", i, want.Msg, err)
			}
			if kept := valueEnvelope(got); !reflect.DeepEqual(want, kept) {
				t.Fatalf("envelope %d mismatch:\n in: %+v\nout: %+v", i, want, kept)
			}
			model.RecycleMessage(got.Msg)
		}
		got, _, err := r.ReadEnvelopePooled()
		if err != nil {
			return // the tail rejected cleanly
		}
		defer model.RecycleMessage(got.Msg)
		sink.Reset()
		bw.Reset(&sink)
		if _, err := w.WriteEnvelope(got); err != nil {
			t.Fatalf("decoded tail failed to re-encode: %v\nenvelope: %+v", err, got)
		}
		bw.Flush()
		if re := sink.Bytes(); !bytes.Equal(re, frameOf(tail)) {
			t.Fatalf("accepted tail is not the canonical encoding against the stream:\n in: %x\nout: %x", frameOf(tail), re)
		}
	})
}

// restamp is m carrying transaction Seq seq and anchor stamp anchor where it
// has them (see model's appendAnchor for which stamp is a message's anchor),
// sharing no array with m; a message with neither is m.
func restamp(m model.Message, seq uint64, anchor int64) model.Message {
	switch v := m.(type) {
	case model.RequestBatchMsg:
		v.Txn.Seq, v.TS = seq, model.Timestamp(anchor)
		return v
	case model.GrantBatchMsg:
		v.Txn.Seq, v.Members = seq, slices.Clone(v.Members)
		v.Members[0].TS = model.Timestamp(anchor)
		return v
	case model.ReleaseBatchMsg:
		v.Txn.Seq, v.CommitMicros = seq, anchor
		return v
	case model.AbortBatchMsg:
		v.Txn.Seq = seq
		return v
	case model.SnapReadBatchMsg:
		v.Txn.Seq, v.SnapMicros = seq, anchor
		return v
	case model.SnapReadReplyBatchMsg:
		v.Txn.Seq, v.Members = seq, slices.Clone(v.Members)
		v.Members[0].CommitMicros = anchor
		return v
	case model.FinalTSMsg:
		v.Txn.Seq, v.TS = seq, model.Timestamp(anchor)
		return v
	case model.RejectMsg:
		v.Txn.Seq, v.Threshold = seq, model.Timestamp(anchor)
		return v
	case model.BackoffMsg:
		v.Txn.Seq, v.NewTS = seq, model.Timestamp(anchor)
		return v
	case model.NormalGrantMsg:
		v.Txn.Seq = seq
		return v
	case model.BusyMsg:
		v.Txn.Seq = seq
		return v
	case model.VictimMsg:
		v.Txn.Seq = seq
		return v
	case model.WrongEpochMsg:
		v.Txn.Seq = seq
		return v
	case model.TxnFinishedMsg:
		v.Txn.Seq = seq
		return v
	case model.TxnDoneMsg:
		v.Txn.Seq, v.DoneMicros = seq, anchor
		return v
	case model.QueueStatsMsg:
		v.AtMicros = anchor
		return v
	case model.SubmitTxnMsg:
		txn := *v.Txn
		txn.ID.Seq = seq
		return model.SubmitTxnMsg{Txn: &txn}
	}
	return m
}

// streamSeed is one FuzzWireStream input.
type streamSeed struct {
	name         string
	script, tail []byte
}

// streamSeeds are FuzzWireStream's seeds: a hot-path run a few
// transactions and microseconds apart, the stamps with codes of their own
// and the int64 extremes against a wall-clock anchor, Seqs and stamps
// jumping backwards, and one tag's frames changing one address, the other
// or both, long forms included; each with a tail that decodes, a request
// frame.
func streamSeeds() []streamSeed {
	corpus := Corpus()
	pick := func(want func(model.Message) bool) byte {
		for i, env := range corpus {
			if want(env.Msg) {
				return byte(i)
			}
		}
		panic("no such corpus envelope")
	}
	is := func(m model.Message) func(model.Message) bool {
		return func(c model.Message) bool { return reflect.TypeOf(c) == reflect.TypeOf(m) }
	}
	request, grant, release := pick(is(model.RequestBatchMsg{})), pick(is(model.GrantBatchMsg{})), pick(is(model.ReleaseBatchMsg{}))
	snapReply, done, stats := pick(is(model.SnapReadReplyBatchMsg{})), pick(is(model.TxnDoneMsg{})), pick(is(model.QueueStatsMsg{}))
	probe, submit := pick(is(model.ProbeWFGMsg{})), pick(is(model.SubmitTxnMsg{}))
	const wall = 1_760_000_000_000_000
	const noStamp = int64(model.NoTimestamp)
	// The addresses of a step: RI(1) → QM(2), QM(2) → RI(1) and
	// Driver(1) → RI(1) are the hot path's.
	const riQM, qmRI, drvRI = 0x10, 0x01, 0x04
	type step struct {
		pick   byte
		addrs  byte
		seq    uint64
		anchor int64
	}
	script := func(steps ...step) []byte {
		var b []byte
		for _, s := range steps {
			b = append(b, s.pick, s.addrs)
			b = binary.LittleEndian.AppendUint64(b, s.seq)
			b = binary.LittleEndian.AppendUint64(b, uint64(s.anchor))
		}
		return b
	}
	tail, err := payloadOf(engine.Envelope{From: engine.RIAddr(1), To: engine.QMAddr(2),
		Msg: model.RequestBatchMsg{Txn: model.TxnID{Site: 1, Seq: 9}, TS: 5, Members: []model.RequestMember{{Item: 3}}}})
	if err != nil {
		panic(err)
	}
	return []streamSeed{
		{"hot-path", script(
			step{submit, drvRI, 1_000_000, 0}, step{request, riQM, 1_000_000, wall}, step{grant, qmRI, 1_000_000, wall},
			step{request, riQM, 1_000_002, wall + 40}, step{probe, 0x60, 0, 0}, step{release, riQM, 1_000_000, wall + 310},
			step{grant, qmRI, 1_000_002, wall + 40}, step{done, 0x60, 1_000_000, wall + 420}, step{stats, 0x61, 0, wall + 500},
		), tail},
		{"extremes", script(
			step{request, riQM, 1_000_000, wall}, step{request, riQM, 1_000_001, 0}, step{request, riQM, 1_000_002, noStamp},
			step{grant, qmRI, math.MaxUint64, math.MinInt64}, step{release, riQM, 0, math.MaxInt64},
			step{snapReply, qmRI, 1, -1 - wall}, step{done, 0x60, math.MaxUint64, noStamp}, step{request, riQM, 7, math.MinInt64 + 1},
		), tail},
		{"backward", script(
			step{request, riQM, 1_000_000, wall}, step{grant, qmRI, 999_000, wall - 60_000_000}, step{release, riQM, 1_000_005, wall + 5},
			step{snapReply, qmRI, 3, 1}, step{request, riQM, 2, -2}, step{done, 0x60, 1, wall},
		), tail},
		{"addresses", script(
			step{submit, drvRI, 1_000_000, 0}, step{submit, 0x05, 1_000_001, 0}, step{submit, drvRI, 1_000_002, 0},
			step{grant, 0x02, 1_000_000, wall}, step{grant, 0x02, 1_000_001, wall + 30}, step{grant, 0x32, 1_000_002, wall + 60},
			step{grant, 0x37, 1_000_003, wall + 90}, step{grant, 0x32, 1_000_004, wall + 120},
			step{request, 0x23, 1_000_005, wall + 150}, step{request, 0x23, 1_000_006, wall + 180}, step{request, riQM, 1_000_007, wall + 210},
		), tail},
	}
}
