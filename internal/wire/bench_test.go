package wire

import (
	"testing"
)

// BenchmarkWireCodec measures a full encode→decode round trip per envelope
// over the mixed-message corpus — what the transport pays on the two ends of
// the wire — through the same V3Harness TestWireCodecGate times. The
// hardware-robust custom metric:
//
//	msgs/KB  — corpus envelopes per KiB of encoded stream (wire density;
//	           deterministic given the corpus, so the CI bench gate holds it)
//
// ReportAllocs covers allocs/op; msgs/sec is wall-clock and host-bound, so
// the speed floor is gated as a ratio against the gob reference by
// TestWireCodecGate instead.
func BenchmarkWireCodec(b *testing.B) {
	corpus := Corpus()

	b.Run("v4", func(b *testing.B) {
		h := NewV3Harness()
		defer h.Release()
		var streamBytes int
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n, err := h.PassPooled(corpus)
			if err != nil {
				b.Fatal(err)
			}
			streamBytes = n
		}
		b.StopTimer()
		reportCodecMetrics(b, len(corpus), streamBytes)
	})
}

func reportCodecMetrics(b *testing.B, corpusMsgs, streamBytes int) {
	if streamBytes > 0 {
		b.ReportMetric(float64(corpusMsgs)/(float64(streamBytes)/1024), "msgs/KB")
	}
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(corpusMsgs*b.N)/b.Elapsed().Seconds(), "msgs/s")
	}
}
