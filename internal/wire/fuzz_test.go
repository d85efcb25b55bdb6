package wire

import (
	"bytes"
	"testing"

	"ucc/internal/model"
)

// FuzzWireRoundTrip feeds arbitrary bytes to the envelope decoder. The
// invariants:
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
// TestWriteSeedCorpus in seed_test.go).
func FuzzWireRoundTrip(f *testing.F) {
	for _, env := range Corpus() {
		payload, err := AppendEnvelope(nil, env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := DecodeEnvelopePooled(data)
		if err != nil {
			return // malformed input rejected cleanly: that's a pass
		}
		defer model.RecycleMessage(env.Msg)
		e1, err := AppendEnvelope(nil, env)
		if err != nil {
			t.Fatalf("decoded envelope failed to re-encode: %v\nenvelope: %+v", err, env)
		}
		if !bytes.Equal(data, e1) {
			t.Fatalf("accepted input is not the canonical encoding (decode not injective):\n in: %x\nout: %x\nenvelope: %+v", data, e1, env)
		}
		again, err := DecodeEnvelopePooled(e1)
		if err != nil {
			t.Fatalf("re-encoded envelope failed to decode: %v\nbytes: %x", err, e1)
		}
		model.RecycleMessage(again.Msg)
	})
}
