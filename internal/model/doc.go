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
// SnapReadReplyMsg, sent per queue-manager mailbox as SnapReadBatchMsg /
// SnapReadReplyBatchMsg). ROSnapshot is not a member of the precedence space —
// it takes no locks and holds no queue position — which is why
// model.Protocols deliberately excludes it while model.NumProtocols sizes
// arrays that account for it.
//
// An attempt's per-copy messages to one queue-manager mailbox travel as one
// batch per protocol step: RequestBatchMsg, GrantBatchMsg, ReleaseBatchMsg
// and AbortBatchMsg stand for that many RequestMsg, GrantMsg, ReleaseMsg and
// AbortMsg, member by member. A batch of one encodes to the very bytes of
// its single message, and those bytes decode back to the batch of one, so
// actors receive only batches; the single structs are the members' views.
//
// The log-shipping plane has one pull and one reply: ReplPullMsg and
// ReplRecordsMsg carry catch-up (Epoch 0) and the fills that bring a
// rebalance's gained copies up from their old primary (Epoch set, the
// gained items as Scope) alike.
//
// The package is deliberately free of behaviour beyond ordering, formatting,
// and serialization, so that every other package (simulator, runtime, TCP
// transport, WAL) can share one wire vocabulary. Serialization is the wire-v7
// contract (wire.go): a stable one-byte WireTag per message type — never
// renumbered — with explicit varint field encoders, stamps after a message's
// first encoded as deltas from an earlier stamp of the same message, and
// error-latching decoding (WireReader). internal/wire frames envelopes over
// it; internal/wal encodes its record payloads with the same varint
// primitives, not with message encoders, so the WAL format does not follow
// the wire version.
//
// # Adding a message type
//
// A message type is declared once, in these places:
//
//   - the struct and its wireTag method (messages.go), returning a new Tag
//     constant appended after the last one (wire.go);
//   - its AppendWire encoder and decodeX decoder (wire.go), and one row in
//     the decode table, codecs, at its tag — TagLast follows the table;
//   - its tag in TestMessageTagsStable, an entry in internal/wire's Corpus,
//     and its fuzz seed (WIRE_WRITE_CORPUS=1 go test -run
//     TestWriteSeedCorpus ./internal/wire).
//
// A type missing its tag or its encoder is not a Message and does not
// compile; one missing its row, its corpus entry or its seed fails
// TestEveryMessageTypeIsInTheTable, TestCorpusCoversEveryTag or
// TestSeedCorpusCommitted. A pooled type (wirepool.go) adds its msgPool,
// its PooledX constructor, its one-line recycle and its retain (a pooled
// copy, RetainMessage), and its row uses pooled instead of plain, so it
// reaches its actor as the pooled pointer however it travelled. No receiver
// carries a value case for it.
//
// A deleted message type's tag is retired, not freed: TagRetired names it,
// its decode-table row stays empty (it decodes as an unknown tag),
// TestMessageTagsStable holds it apart from every live tag, and it is never
// reused. Tags 32 and 33, the rebalance transfer's pull and reply, retired
// with wire v7.
package model
