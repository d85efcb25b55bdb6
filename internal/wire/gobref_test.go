package wire

import (
	"bytes"
	"encoding/gob"
	"io"
	"runtime"
	"testing"
	"time"

	"ucc/internal/engine"
	"ucc/internal/model"
)

// The gob reference arm of TestWireCodecGate: the reflection-based stdlib
// encoding of the same corpus, kept only here as the yardstick the
// hand-rolled codec is measured against.

// gobEnvelope is engine.Envelope flattened to exported fields gob can carry.
type gobEnvelope struct {
	FromKind  uint8
	FromID    int32
	FromShard uint8
	ToKind    uint8
	ToID      int32
	ToShard   uint8
	Msg       model.Message
}

// gobPass round-trips the corpus through a fresh gob encoder/decoder pair
// (one type dictionary per stream), returning the stream size.
func gobPass(sink *bytes.Buffer, corpus []engine.Envelope) (streamBytes int, err error) {
	sink.Reset()
	enc := gob.NewEncoder(sink)
	for _, env := range corpus {
		ge := gobEnvelope{
			FromKind: uint8(env.From.Kind), FromID: int32(env.From.ID), FromShard: env.From.Shard,
			ToKind: uint8(env.To.Kind), ToID: int32(env.To.ID), ToShard: env.To.Shard,
			Msg: env.Msg,
		}
		if err := enc.Encode(ge); err != nil {
			return 0, err
		}
	}
	streamBytes = sink.Len()
	dec := gob.NewDecoder(bytes.NewReader(sink.Bytes()))
	for {
		var ge gobEnvelope
		if err := dec.Decode(&ge); err != nil {
			if err == io.EOF {
				return streamBytes, nil
			}
			return 0, err
		}
	}
}

// codecNumbers are one codec's measured costs over the corpus.
type codecNumbers struct {
	msgsPerSec, allocsPerMsg, bytesPerMsg float64
}

// timeCodec runs one warm pass (sizing buffers and pools), then times rounds
// invocations of pass and samples allocations around them.
func timeCodec(t *testing.T, corpusMsgs, rounds int, pass func() (int, error)) codecNumbers {
	t.Helper()
	bytesPerPass, err := pass()
	if err != nil {
		t.Fatal(err)
	}
	var msBefore, msAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := pass(); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&msAfter)

	msgs := float64(corpusMsgs * rounds)
	return codecNumbers{
		msgsPerSec:   msgs / elapsed.Seconds(),
		allocsPerMsg: float64(msAfter.Mallocs-msBefore.Mallocs) / msgs,
		bytesPerMsg:  float64(bytesPerPass) / float64(corpusMsgs),
	}
}

// TestWireCodecGate is the acceptance floor the CI bench-gate job runs: the
// v4 codec, decoding through the message pools as the transport does
// (PassPooled), must beat gob by ≥1.5× msgs/sec and use ≤10% of gob's
// allocations per message over the mixed corpus. Measured numbers are far beyond both
// bars (typically ≥8× and ≤5%), so the gate trips only on a genuine codec
// regression, not runner noise.
func TestWireCodecGate(t *testing.T) {
	if raceEnabled {
		t.Skip("timing/alloc ratios are distorted under -race; the bench-gate job runs without it")
	}
	if testing.Short() {
		t.Skip("codec gate skipped in -short")
	}
	const rounds = 300
	corpus := Corpus()
	for _, env := range corpus {
		gob.Register(env.Msg)
	}

	h := NewV3Harness()
	defer h.Release()
	v4 := timeCodec(t, len(corpus), rounds, func() (int, error) { return h.PassPooled(corpus) })
	var sink bytes.Buffer
	ref := timeCodec(t, len(corpus), rounds, func() (int, error) { return gobPass(&sink, corpus) })

	speedup := v4.msgsPerSec / ref.msgsPerSec
	allocRatio := v4.allocsPerMsg / ref.allocsPerMsg
	t.Logf("v4: %.0f msgs/s, %.2f allocs/msg, %.1f B/msg; gob: %.0f msgs/s, %.2f allocs/msg, %.1f B/msg; speedup %.2fx, alloc ratio %.3f",
		v4.msgsPerSec, v4.allocsPerMsg, v4.bytesPerMsg,
		ref.msgsPerSec, ref.allocsPerMsg, ref.bytesPerMsg,
		speedup, allocRatio)
	if speedup < 1.5 {
		t.Errorf("v4 codec speedup over gob is %.2fx, want ≥ 1.5x", speedup)
	}
	if allocRatio > 0.10 {
		t.Errorf("v4 codec allocates %.1f%% of gob's allocs/msg, want ≤ 10%%", allocRatio*100)
	}
}
