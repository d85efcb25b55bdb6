// Package wal is the durability subsystem: an append-only, checksummed,
// segmented write-ahead log of implemented writes plus periodic snapshots of
// a site's storage.Store, and a recovery path that reconstructs the store
// from the newest valid snapshot and the checksummed log tail.
//
// The paper's model (§2) assumes failure-free sites; this package lifts that
// assumption so the system — and the simulator — can express site crashes.
// The log is layered over a Media abstraction with two implementations: a
// directory of real files (cmd/uccnode, `kill -9` recovery) and a
// deterministic in-memory medium (simulated fault injection, where a crash
// discards exactly the bytes that were never synced).
//
// Both the log records and the snapshots are version-aware: a Record carries
// the write's version ordinal and commit stamp, and a snapshot images each
// copy's full retained version chain, not just its latest value. Recovery
// therefore rebuilds the multi-version store exactly — a requirement of the
// read-only snapshot fast path, whose reads deferred across an outage carry
// pre-crash snapshot timestamps and still need their exact versions.
//
// An image is taken under the store's barrier (storage.Store.EachChain):
// every chain is encoded straight from the store's memory, in item order,
// into one buffer the SiteLog keeps for all its snapshots — the periodic
// one, Open's seed image and recovery's re-base image — and that buffer is
// written to media as it is. Nothing is copied out of the store first, so a
// steady-state image allocates nothing, and the barrier is held only for
// the encoding. The format is crc32C(body) | body with fixed-width fields
// (TestSnapshotGoldenBytes pins it); the copy count and the checksum are
// patched in after the chains.
//
// Record payloads use internal/model's varint primitives, the ones the
// transport's message encoders are built from; the segment format is its
// own and does not follow the wire version. That is ~15 bytes for a typical
// record, ~23 framed. A frame is crc32C(lenWord | payload) | lenWord |
// payload, the length word always carrying the varint flag in its high bit;
// a frame that fails the checksum, lacks the flag, or decodes short or long
// ends the durable history there — replay stops, it never misreads.
//
// Records leave a site for catch-up and fills in a codec of their own
// (AppendShipped, DecodeShipped): only the fields a replica's apply reads,
// the commit stamp as a delta against the previous record's, no header and
// no checksum — the carrying message's length prefix delimits the batch.
// That format is part of the wire contract, not of the media's.
package wal
