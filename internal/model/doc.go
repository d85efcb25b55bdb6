// Package model defines the shared vocabulary of the unified concurrency
// control system: site/transaction/item identifiers, timestamps, the unified
// precedence space of Wang & Li (ICDE 1988) §4.1, transaction descriptors,
// and every message exchanged between Request Issuers (RI), data Queue
// Managers (QM), the deadlock detector, and the measurement plane.
//
// Beyond the paper's three member protocols (TwoPL, TO, PA), the package
// defines the ROSnapshot transaction class: pure-read transactions that
// bypass the queues entirely and read committed versions from the
// multi-version store at a snapshot timestamp (SnapReadMsg /
// SnapReadReplyMsg). ROSnapshot is not a member of the precedence space —
// it takes no locks and holds no queue position — which is why
// model.Protocols deliberately excludes it while model.NumProtocols sizes
// arrays that account for it.
//
// The package is deliberately free of behaviour beyond ordering, formatting,
// and serialization, so that every other package (simulator, runtime, TCP
// transport, WAL) can share one wire vocabulary. Serialization is the wire-v3
// contract (wire.go): a stable one-byte WireTag per message type — never
// renumbered — with explicit varint field encoders and error-latching
// decoding (WireReader), reused by internal/wire for envelope framing and by
// internal/wal for record payloads.
package model
