package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"

	"ucc/internal/model"
)

// Record is one journaled physical write: transaction txn installed value as
// the given version of item's copy at this site, stamped with the writer's
// commit point. Seq totally orders a site's records; replaying records in
// sequence order rebuilds the store — including its version chains, which
// the commit stamps order for snapshot reads — exactly.
type Record struct {
	Seq          uint64
	Item         model.ItemID
	Txn          model.TxnID
	Value        int64
	Version      uint64
	CommitMicros int64
}

const (
	segPrefix  = "wal-"
	snapPrefix = "snap-"

	// frameHeader is crc32C(lenWord | payload) + uint32 payload length word.
	frameHeader = 8
	// varintFlag is set in every frame's length word: the payload is in the
	// wire-v3 varint codec (the same primitives the transport's message
	// encoders use, see internal/model's wire encoders). A length word
	// without it is corruption and stops replay at that frame.
	varintFlag = uint32(1) << 31
	// maxRecordPayload bounds a record payload (7 fields × ≤10 bytes worst
	// case); anything larger is corruption.
	maxRecordPayload = 70
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// segName names the segment whose first record is seq. Zero-padded hex keeps
// lexicographic order chronological.
func segName(firstSeq uint64) string { return fmt.Sprintf("%s%016x", segPrefix, firstSeq) }

func snapName(appliedSeq uint64) string { return fmt.Sprintf("%s%016x", snapPrefix, appliedSeq) }

func isSeg(name string) bool  { return strings.HasPrefix(name, segPrefix) }
func isSnap(name string) bool { return strings.HasPrefix(name, snapPrefix) }

// appendRecord frames and appends one record:
// crc32C(lenWord | payload) | varintFlag|len | payload, payload in the
// shared wire-v3 varint codec (~15 bytes for a typical record). The crc
// covers the length word as well as the payload, so a bit flipped in either
// on media fails the checksum and stops replay; it can never misdecode.
// The frame is built in place — header reserved, payload appended behind it,
// length and checksum back-filled — so framing into a buffer with room
// allocates nothing.
func appendRecord(buf []byte, r Record) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, frameHeader)...)
	buf = appendRecordPayload(buf, r)
	binary.LittleEndian.PutUint32(buf[start+4:], uint32(len(buf)-start-frameHeader)|varintFlag)
	binary.LittleEndian.PutUint32(buf[start:], crc32.Checksum(buf[start+4:], crcTable))
	return buf
}

// appendRecordPayload encodes the record fields with the same varint
// primitives the transport's message codecs use (field order frozen).
func appendRecordPayload(p []byte, r Record) []byte {
	p = model.AppendUvarint(p, r.Seq)
	p = model.AppendVarint(p, int64(r.Item))
	p = model.AppendVarint(p, int64(r.Txn.Site))
	p = model.AppendUvarint(p, r.Txn.Seq)
	p = model.AppendVarint(p, r.Value)
	p = model.AppendUvarint(p, r.Version)
	return model.AppendVarint(p, r.CommitMicros)
}

// decodeRecordPayload decodes a varint payload; ok is false on any
// truncation, corruption, or trailing bytes (the caller treats that exactly
// like a checksum failure: the durable history ends here).
func decodeRecordPayload(p []byte) (Record, bool) {
	rd := model.NewWireReader(p)
	var r Record
	r.Seq = rd.Uvarint()
	r.Item = model.ItemID(rd.Varint32())
	r.Txn.Site = model.SiteID(rd.Varint32())
	r.Txn.Seq = rd.Uvarint()
	r.Value = rd.Varint()
	r.Version = rd.Uvarint()
	r.CommitMicros = rd.Varint()
	if rd.Err() != nil || rd.Remaining() != 0 {
		return Record{}, false
	}
	return r, true
}

// decodeRecords yields every intact record at the front of data. It stops —
// without error — at the first torn or corrupt frame: a crash mid-write
// leaves a damaged suffix, and exactly the checksummed prefix is the durable
// truth. The number of dropped trailing bytes is returned for diagnostics.
func decodeRecords(data []byte, fn func(Record)) (torn int) {
	for len(data) > 0 {
		if len(data) < frameHeader {
			return len(data)
		}
		crc := binary.LittleEndian.Uint32(data[0:])
		lenWord := binary.LittleEndian.Uint32(data[4:])
		n := lenWord &^ varintFlag
		if lenWord&varintFlag == 0 || n == 0 || n > maxRecordPayload {
			return len(data)
		}
		end := frameHeader + int(n)
		if len(data) < end {
			return len(data)
		}
		// data[4:end] is contiguous: lenWord then payload.
		if crc32.Checksum(data[4:end], crcTable) != crc {
			return len(data)
		}
		r, ok := decodeRecordPayload(data[frameHeader:end])
		if !ok {
			return len(data)
		}
		fn(r)
		data = data[end:]
	}
	return 0
}

// AppendRecordFrame frames one record onto buf in the segment frame format
// — exported for log shipping (internal/repl): a catch-up batch on
// the wire is byte-identical to the segment bytes it came from, so one
// decoder (DecodeRecordFrames) hardens both the local-replay and the
// shipped-stream paths.
func AppendRecordFrame(buf []byte, r Record) []byte { return appendRecord(buf, r) }

// DecodeRecordFrames yields every intact record at the front of data and
// returns the number of trailing bytes dropped at the first torn or corrupt
// frame — the log-shipping counterpart of replaying a segment (same framing,
// same stop-at-damage contract). Exported for internal/repl.
func DecodeRecordFrames(data []byte, fn func(Record)) (torn int) {
	return decodeRecords(data, fn)
}

// Log is the append side of a segmented write-ahead log. Append buffers
// records in memory; Flush writes the buffer to the current segment and
// syncs it (one sync no matter how many records were appended — the unit of
// group commit). Not safe for concurrent use; SiteLog serializes access.
type Log struct {
	media    Media
	segBytes int
	nextSeq  uint64
	cur      Writer
	curName  string
	curSize  int
	buf      []byte
	// poisoned latches the first Flush failure: a partial segment write
	// leaves torn frames in place, and a retried Flush that "succeeded"
	// would report records durable that Replay stops before. Once poisoned,
	// every Flush fails; recovery (which rebuilds the Log) is the only way
	// forward.
	poisoned error
}

// NewLog opens an appender whose next record will carry seq nextSeq, on a
// fresh segment. segBytes is the roll threshold (records never split across
// segments).
func NewLog(media Media, segBytes int, nextSeq uint64) (*Log, error) {
	if segBytes <= 0 {
		segBytes = 1 << 20
	}
	l := &Log{media: media, segBytes: segBytes, nextSeq: nextSeq}
	if err := l.roll(); err != nil {
		return nil, err
	}
	return l, nil
}

// NextSeq returns the sequence number the next Append will be assigned.
func (l *Log) NextSeq() uint64 { return l.nextSeq }

// SegmentName returns the current (open) segment's name.
func (l *Log) SegmentName() string { return l.curName }

// Append assigns the next sequence number to the record and buffers it. The
// record is volatile until the next Flush.
func (l *Log) Append(r Record) uint64 {
	r.Seq = l.nextSeq
	l.nextSeq++
	l.buf = appendRecord(l.buf, r)
	return r.Seq
}

// Flush writes every buffered record to the current segment and syncs it.
// After a successful Flush all appended records are durable. The segment is
// rolled once it exceeds the size threshold.
func (l *Log) Flush() error {
	if l.poisoned != nil {
		return l.poisoned
	}
	if len(l.buf) > 0 {
		if _, err := l.cur.Write(l.buf); err != nil {
			l.poisoned = fmt.Errorf("wal: segment %s write: %w", l.curName, err)
			return l.poisoned
		}
		l.curSize += len(l.buf)
		l.buf = l.buf[:0]
	}
	if err := l.cur.Sync(); err != nil {
		l.poisoned = fmt.Errorf("wal: segment %s sync: %w", l.curName, err)
		return l.poisoned
	}
	if l.curSize >= l.segBytes {
		return l.roll()
	}
	return nil
}

// Roll seals the current segment and starts a new one at the next sequence
// number (used by the snapshot path so every sealed segment is entirely
// covered by the snapshot).
func (l *Log) Roll() error { return l.roll() }

func (l *Log) roll() error {
	if l.cur != nil {
		if err := l.cur.Close(); err != nil {
			return fmt.Errorf("wal: segment %s close: %w", l.curName, err)
		}
	}
	l.curName = segName(l.nextSeq)
	w, err := l.media.Create(l.curName)
	if err != nil {
		return fmt.Errorf("wal: create segment %s: %w", l.curName, err)
	}
	l.cur = w
	l.curSize = 0
	return nil
}

// Close seals the log without syncing buffered records (durability is
// Flush's job).
func (l *Log) Close() error {
	if l.cur == nil {
		return nil
	}
	err := l.cur.Close()
	l.cur = nil
	return err
}

// Replay streams every intact record with Seq > afterSeq from the media's
// segments, in sequence order, and returns the last sequence number seen
// (afterSeq if none). Replay stops at the first torn or corrupt record —
// the durable history is exactly the checksummed prefix — and at any gap in
// the sequence numbers (a segment lost out from under its successors).
func Replay(media Media, afterSeq uint64, fn func(Record) error) (lastSeq uint64, err error) {
	names, err := media.List()
	if err != nil {
		return afterSeq, err
	}
	lastSeq = afterSeq
	var stop bool
	var cbErr error
	for _, name := range names {
		if stop || !isSeg(name) {
			continue
		}
		data, err := media.ReadAll(name)
		if err != nil {
			return lastSeq, fmt.Errorf("wal: read segment %s: %w", name, err)
		}
		torn := decodeRecords(data, func(r Record) {
			if stop || cbErr != nil {
				return
			}
			if r.Seq <= afterSeq {
				return // already covered by the snapshot
			}
			if r.Seq != lastSeq+1 {
				stop = true // sequence gap: do not replay past it
				return
			}
			if err := fn(r); err != nil {
				cbErr = err
				return
			}
			lastSeq = r.Seq
		})
		if cbErr != nil {
			return lastSeq, cbErr
		}
		if torn > 0 {
			stop = true // damaged suffix ends the durable history
		}
	}
	return lastSeq, nil
}
