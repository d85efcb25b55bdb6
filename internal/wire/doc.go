// Package wire is the v11 binary codec for everything the cluster exchanges
// between processes: a hand-rolled, length-prefixed framing of
// engine.Envelope over the per-message field encoders in internal/model
// (stable tags, varint integers, stamps as deltas within a message,
// transaction Seqs and anchor stamps as deltas from the previous frame's,
// addresses left out where they repeat the last frame of their tag's, no
// reflection anywhere on the path). A process-local message — a timer, the
// WAL offload pair, a simulator fault — has no encoding, and a Writer
// reports an EncodeError for it.
//
// # Frame layout
//
// A v11 stream is a sequence of frames, each:
//
//	uvarint payloadLen | payload
//
// where payload is:
//
//	hdr(1) from(addr)? to(addr)? msgBody…
//
// hdr holds the message tag in its low six bits (tags run to model.MaxTag,
// 63), 0x40 when from follows and 0x80 when to follows. An address left out
// equals the one the last frame of the same tag carried on the stream (see
// Stream state), so on a connection whose frames of one tag repeat their
// addresses, as nearly all do, the header is one byte. Each addr that
// follows is one of two forms:
//
//	short (1 byte):  kind<<4 | id                       shard 0, kind < 8, 0 ≤ id < 16
//	long:            0x80|kind(1) shard(1) id(varint)  any other address, kind < 0x80
//
// A cluster of up to 16 sites pays one byte per explicit address, except
// for queue-manager shards past 0. The decoder rejects a long form that
// would fit the short form, an explicit address equal to the one the
// writer had to leave out, and a left-out address with no earlier frame of
// its tag to fill it, so every envelope has exactly one encoding at each
// stream position (the property FuzzWireRoundTrip checks on a fresh stream
// and FuzzWireStream along one); an address of kind 0x80 or above has none,
// and a Writer reports an EncodeError for it.
//
// payloadLen is capped at MaxFrameBytes; a reader that sees a larger prefix
// abandons the stream instead of allocating for it, and a payload that
// decodes short, long, or to an unknown tag errors cleanly — truncated or
// hostile input can never panic or hang the read loop (see the hardening and
// fuzz tests).
//
// # Stream state
//
// A stream is coded against itself: each transaction Seq as the difference
// from the one before it on the stream, each message's anchor stamp as the
// difference from the anchor before it (model.WireStream), and each frame's
// addresses against the address memo, which holds per tag the addresses
// the last frame of that tag carried. So a Writer and a Reader each hold
// their stream's state, and a stream has no frame that decodes on its own
// but its first. Both start from the zero state and an empty memo, and the
// transport builds a new pair for every connection, so a batch retried on
// a fresh dial is coded from zero at both ends. Both advance their state in
// frame order and only for a frame that completed: a Writer only once the
// frame has encoded and passed the size check — an envelope refused with an
// EncodeError leaves no trace — and a Reader only once the frame has
// decoded, so a frame it skips for an unknown tag, whose body it never
// reads, leaves none either. A frame moves one memo slot, its tag's. The
// newer build that sent a frame of a tag added within the version advanced
// its Writer all the same, so such a tag must not touch the Seq and stamp
// state (model's "Adding a message type"); it cannot spoil the memo, since
// it moved only its own tag's slot, which no tag the reader knows reads.
// FuzzWireStream runs envelopes with fuzzed addresses, Seqs and anchors
// through one Writer and one Reader.
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
// subsequent frame. ReadEnvelopePooled — the transport's read path and the
// codec's only decoder — decodes the pooled types into pooled structs, each
// in the one form its actor matches: a single per-copy tag (a batch of one
// on the wire) as its pooled batch,
// every other pooled type as its pooled pointer. The caller owns them until
// model.RecycleMessage (the runtime's mailbox loop, for what the transport
// delivers); one that keeps a message, as the round-trip, golden-bytes and
// fuzz tests do to compare it with what was encoded, takes
// model.RetainMessage's copy. The rare control-plane messages decode as
// values and own the slices and maps they carry.
//
// The connection handshake (version byte 11, ack 0xCB) lives in
// internal/transport, which refuses a v10 peer there: the two formats are not
// mixed on one connection. The WAL reuses the model varint primitives for
// its segment record payloads, whose format does not follow the wire
// version; the catch-up batches a ReplRecordsMsg carries are internal/wal's
// shipped codec, whose format does.
package wire
