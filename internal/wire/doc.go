// Package wire is the v5 binary codec for everything the cluster exchanges:
// a hand-rolled, length-prefixed framing of engine.Envelope over the
// per-message field encoders in internal/model (stable one-byte tags, varint
// integers, stamps as deltas within a message, no reflection anywhere on the
// path).
//
// # Frame layout
//
// A v5 stream is a sequence of frames, each:
//
//	uvarint payloadLen | payload
//
// where payload is:
//
//	from(addr) to(addr) msgTag(1) msgBody…
//
// and each addr is one of two forms:
//
//	short (1 byte):  kind<<4 | id                       shard 0, kind < 8, 0 ≤ id < 16
//	long:            0x80|kind(1) shard(1) id(varint)  any other address, kind < 0x80
//
// A cluster of up to 16 sites pays one byte per address, except for
// queue-manager shards past 0. The decoder rejects a long form that would
// fit the short form, so every envelope has exactly one encoding (the
// property FuzzWireRoundTrip checks); an address of kind 0x80 or above has
// none: AppendEnvelope fails on it, and a Writer reports an EncodeError.
// AppendHeader writes the
// two addresses alone, for callers that frame a message by hand.
//
// payloadLen is capped at MaxFrameBytes; a reader that sees a larger prefix
// abandons the stream instead of allocating for it, and a payload that
// decodes short, long, or to an unknown tag errors cleanly — truncated or
// hostile input can never panic or hang the read loop (see the hardening and
// fuzz tests).
//
// # Pooling lifecycle
//
// The codec is allocation-free at steady state for the fixed-shape hot-path
// messages (the request/grant/release cycle that dominates traffic); the
// rare map- or Txn-carrying control messages allocate their sorted-key
// scratch per encode. A Writer owns one scratch
// buffer, drawn from a package pool at construction and returned by Release
// when its connection retires; every WriteEnvelope encodes into that scratch
// and copies it to the underlying buffered writer, so the per-message cost is
// pure byte appends. A Reader likewise owns one payload buffer that grows (by
// at least doubling) to the largest frame seen and is reused for every
// subsequent frame. Decoded messages are built on the stack by the model
// decoders. ReadEnvelopePooled / DecodeEnvelopePooled — the transport's read
// path — then copy the hot fixed-size types into pooled structs, which the
// caller owns until model.RecycleMessage (the runtime's mailbox loop, for
// what the transport delivers); ReadEnvelope / DecodeEnvelope box every
// message into the model.Message interface instead, one allocation each, and
// are the reference decoder of the tests, fuzzers and golden-bytes checks.
// Either way the rare control-plane messages also own the slices and maps
// they carry.
//
// The connection handshake (version byte 5, ack 0xC5) lives in
// internal/transport, which refuses a v4 peer there: the two formats are not
// mixed on one connection. The WAL reuses the model varint primitives for
// its segment record payloads, whose format does not follow the wire
// version; the catch-up batches a ReplRecordsMsg carries are internal/wal's
// shipped codec, whose format does.
package wire
