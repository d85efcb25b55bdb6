package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"ucc/internal/model"
	"ucc/internal/storage"
)

// chainAt builds a test version chain of depth versions for one copy.
func chainAt(site model.SiteID, item int, depth int) storage.CopyChain {
	cc := storage.CopyChain{ID: model.CopyID{Item: model.ItemID(item), Site: site}}
	for v := 0; v < depth; v++ {
		cc.Versions = append(cc.Versions, storage.Version{
			Value:        int64(item*100 + v),
			Version:      uint64(v),
			Writer:       model.TxnID{Site: site, Seq: uint64(v)},
			CommitMicros: int64(v) * 1_000,
		})
	}
	return cc
}

func rec(seq uint64, item int, value int64) Record {
	return Record{
		Seq:   seq, // assigned by Append; kept for expectations
		Item:  model.ItemID(item),
		Txn:   model.TxnID{Site: 1, Seq: seq},
		Value: value, Version: seq,
	}
}

func replayAll(t *testing.T, media Media, after uint64) []Record {
	t.Helper()
	var out []Record
	if _, err := Replay(media, after, func(r Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestLogAppendFlushReplay(t *testing.T) {
	media := NewMemMedia()
	l, err := NewLog(media, 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		l.Append(rec(0, i, int64(100+i)))
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, media, 0)
	if len(got) != 10 {
		t.Fatalf("replayed %d records, want 10", len(got))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) || r.Item != model.ItemID(i+1) || r.Value != int64(101+i) {
			t.Fatalf("record %d mismatch: %+v", i, r)
		}
	}
	// afterSeq filters the snapshot-covered prefix.
	if got := replayAll(t, media, 7); len(got) != 3 || got[0].Seq != 8 {
		t.Fatalf("tail replay after 7: %+v", got)
	}
}

func TestLogUnflushedRecordsAreVolatile(t *testing.T) {
	media := NewMemMedia()
	l, _ := NewLog(media, 1<<20, 1)
	l.Append(rec(0, 1, 1))
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	l.Append(rec(0, 2, 2)) // buffered, never flushed
	media.Crash()
	if got := replayAll(t, media, 0); len(got) != 1 || got[0].Seq != 1 {
		t.Fatalf("after crash want exactly the flushed record, got %+v", got)
	}
}

// TestMemMediaWriteSyncAllocatesNothing: once an object's array has grown,
// a write and its sync allocate nothing — a sync copies nothing — and a
// crash still keeps exactly the synced bytes, even after newer, unsynced
// ones were written behind them.
func TestMemMediaWriteSyncAllocatesNothing(t *testing.T) {
	media := NewMemMedia()
	w, err := media.Create("seg")
	if err != nil {
		t.Fatal(err)
	}
	write := func(p string) {
		if _, err := w.Write([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	sync := func() {
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	write("abc")
	sync()
	write("de")
	sync()
	write("xyz") // into the buffer the last sync emptied, never synced
	media.Crash()
	if got, _ := media.ReadAll("seg"); string(got) != "abcde" {
		t.Fatalf("after a crash the object holds %q, want the synced %q", got, "abcde")
	}

	if raceEnabled {
		return // allocation counts mean nothing under the race detector
	}
	rec := make([]byte, 64)
	appendSync := func() {
		w.Write(rec)
		w.Sync()
	}
	for i := 0; i < 1000; i++ {
		appendSync()
	}
	if n := testing.AllocsPerRun(100, appendSync); n != 0 {
		t.Fatalf("a MemMedia write and sync allocate %v times, want 0", n)
	}
}

// TestMemMediaRollAllocatesNothing: after warm-up, rolling to a new segment
// or writing a new snapshot object — create, write and sync, close, remove
// the object it replaces — allocates nothing: the new object takes a
// removed one's array. A reused object holds only what was written to it.
func TestMemMediaRollAllocatesNothing(t *testing.T) {
	media := NewMemMedia()
	segs := [2]string{segName(1), segName(2)}
	snaps := [2]string{snapName(1, 0), snapName(2, 0)}
	chunk := bytes.Repeat([]byte{7}, 4096)
	turn := 0
	roll := func() {
		cur, old := turn%2, (turn+1)%2
		turn++
		for _, pair := range [][2]string{segs, snaps} {
			w, err := media.Create(pair[cur])
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 64; i++ {
				w.Write(chunk)
				if i%8 == 7 {
					w.Sync()
				}
			}
			w.Close()
			media.Remove(pair[old])
		}
	}
	for i := 0; i < 4; i++ {
		roll()
	}
	if got, _ := media.ReadAll(segs[(turn-1)%2]); len(got) != 64*len(chunk) {
		t.Fatalf("a reused object holds %d bytes, want the %d written to it", len(got), 64*len(chunk))
	}
	if raceEnabled {
		return // allocation counts mean nothing under the race detector
	}
	if n := testing.AllocsPerRun(20, roll); n != 0 {
		t.Fatalf("a segment roll and a snapshot object allocate %v times, want 0", n)
	}
}

func TestLogSegmentRollover(t *testing.T) {
	media := NewMemMedia()
	l, _ := NewLog(media, 30, 1) // tiny segments (~2 varint records each)
	for i := 1; i <= 9; i++ {
		l.Append(rec(0, i, int64(i)))
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	names, _ := media.List()
	var segs int
	for _, n := range names {
		if isSeg(n) {
			segs++
		}
	}
	if segs < 3 {
		t.Fatalf("expected multiple segments, got %d (%v)", segs, names)
	}
	if got := replayAll(t, media, 0); len(got) != 9 {
		t.Fatalf("replay across segments: %d records, want 9", len(got))
	}
}

// TestTornWriteRecoversPrefix is acceptance criterion (b): a file-backed log
// truncated mid-record replays exactly the checksummed prefix.
func TestTornWriteRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	media, err := NewDirMedia(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLog(media, 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 20; i++ {
		l.Append(rec(0, i, int64(i)))
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	seg := l.SegmentName()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: chop 13 bytes off the file (mid-payload).
	path := filepath.Join(dir, seg)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-13); err != nil {
		t.Fatal(err)
	}

	got := replayAll(t, media, 0)
	if len(got) != 19 {
		t.Fatalf("torn log replayed %d records, want exactly the 19 intact ones", len(got))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
}

func TestCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	media, _ := NewDirMedia(dir)
	l, _ := NewLog(media, 1<<20, 1)
	for i := 1; i <= 5; i++ {
		l.Append(rec(0, i, int64(i)))
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	seg := l.SegmentName()
	l.Close()

	// Flip one byte in the middle of record 4's payload (frames are varint-
	// sized now, so walk the first three frames to find it).
	path := filepath.Join(dir, seg)
	data, _ := os.ReadFile(path)
	off := 0
	for i := 0; i < 3; i++ {
		n := int(binary.LittleEndian.Uint32(data[off+4:]) &^ varintFlag)
		off += frameHeader + n
	}
	off += frameHeader + 2
	data[off] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Records 1..3 are the intact prefix; 4 is corrupt; 5 must NOT replay
	// (no replaying past damage).
	if got := replayAll(t, media, 0); len(got) != 3 {
		t.Fatalf("replayed %d records past corruption, want 3", len(got))
	}
}

func TestReplayStopsAtSequenceGap(t *testing.T) {
	media := NewMemMedia()
	l, _ := NewLog(media, 60, 1) // roll roughly every flush
	for i := 1; i <= 6; i++ {
		l.Append(rec(0, i, int64(i)))
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// Drop a middle segment.
	names, _ := media.List()
	var segs []string
	for _, n := range names {
		if isSeg(n) {
			segs = append(segs, n)
		}
	}
	if len(segs) < 3 {
		t.Skipf("need ≥3 segments, got %v", segs)
	}
	if err := media.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, media, 0)
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("replay crossed the gap: %+v", got)
		}
	}
	if len(got) >= 6 {
		t.Fatalf("replayed %d records despite a missing segment", len(got))
	}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	st := storage.NewStore(3)
	var want []storage.CopyChain
	for i := 0; i < 5; i++ {
		// Varying chain depth exercises the variable-length encoding.
		cc := chainAt(3, i, i+1)
		st.RestoreChain(cc)
		want = append(want, cc)
	}
	enc := appendSnapshot(nil, 42, st)
	got, err := decodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.AppliedSeq != 42 || got.Site != 3 || len(got.Chains) != 5 {
		t.Fatalf("round trip: %+v", got)
	}
	for i, c := range got.Chains {
		if c.ID != want[i].ID || len(c.Versions) != len(want[i].Versions) {
			t.Fatalf("chain %d: got %+v want %+v", i, c, want[i])
		}
		for j, v := range c.Versions {
			if v != want[i].Versions[j] {
				t.Fatalf("chain %d version %d: got %+v want %+v", i, j, v, want[i].Versions[j])
			}
		}
	}
	// Corruption is detected.
	enc[len(enc)-1] ^= 1
	if _, err := decodeSnapshot(enc); err == nil {
		t.Fatal("corrupt snapshot decoded without error")
	}
}

// TestRecordRoundTripExtremes: varint payloads must round-trip the field
// extremes (negative values, max versions) and reject truncation at every
// byte.
func TestRecordRoundTripExtremes(t *testing.T) {
	recs := []Record{
		{},
		{Seq: 1<<64 - 1, Item: -1, Txn: model.TxnID{Site: -1, Seq: 1<<64 - 1}, Value: -1 << 62, Version: 1<<64 - 1, CommitMicros: -1},
		{Seq: 7, Item: 1<<31 - 1, Txn: model.TxnID{Site: 1<<31 - 1, Seq: 9}, Value: 1<<62 - 1, Version: 3, CommitMicros: 1 << 50},
	}
	for i, r := range recs {
		p := appendRecordPayload(nil, r)
		if len(p) > maxRecordPayload {
			t.Fatalf("record %d payload is %d bytes, over maxRecordPayload", i, len(p))
		}
		got, ok := decodeRecordPayload(p)
		if !ok || got != r {
			t.Fatalf("record %d: round trip got %+v ok=%v, want %+v", i, got, ok, r)
		}
		for cut := 0; cut < len(p); cut++ {
			if _, ok := decodeRecordPayload(p[:cut]); ok {
				t.Fatalf("record %d: truncated payload (%d/%d bytes) decoded", i, cut, len(p))
			}
		}
		if _, ok := decodeRecordPayload(append(append([]byte{}, p...), 0)); ok {
			t.Fatalf("record %d: trailing byte accepted", i)
		}
	}
}

// goldenRecords and goldenFrames pin the segment frame bytes: the hex string
// is appendRecord's output for these records at the commit before the
// fixed-width decoder was removed. Segments written then must replay
// identically now.
var goldenRecords = []Record{
	{Seq: 1, Item: 7, Txn: model.TxnID{Site: 2, Seq: 41}, Value: -987654321, Version: 1, CommitMicros: 1 << 40},
	{Seq: 2, Item: 0, Txn: model.TxnID{Site: 0, Seq: 1<<64 - 1}, Value: 1<<62 - 1, Version: 1<<64 - 1, CommitMicros: -1},
	{Seq: 3, Item: 1<<31 - 1, Txn: model.TxnID{Site: 1<<31 - 1, Seq: 9}, Value: 0, Version: 3, CommitMicros: 1700000000000000},
}

const goldenFrames = "b1fd83c310000080010e0429e1a2f3ad070180808080804091a1e306" +
	"21000080020000ffffffffffffffffff01feffffffffffffff7fffffffffffffffffff0101" +
	"921c79bc1600008003feffffff0ffeffffff0f0900038080f28183898506"

func writeSegment(t *testing.T, media Media, frames []byte) {
	t.Helper()
	w, err := media.Create(segName(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(frames); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	w.Close()
}

// TestRecordFrameGoldenBytes: the written frame format is unchanged, and a
// segment holding the golden bytes replays to the golden records.
func TestRecordFrameGoldenBytes(t *testing.T) {
	want, err := hex.DecodeString(goldenFrames)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	for _, r := range goldenRecords {
		got = appendRecord(got, r)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("frame bytes changed:\n got %x\nwant %x", got, want)
	}
	media := NewMemMedia()
	writeSegment(t, media, want)
	replayed := replayAll(t, media, 0)
	if len(replayed) != len(goldenRecords) {
		t.Fatalf("replayed %d records, want %d", len(replayed), len(goldenRecords))
	}
	for i, r := range replayed {
		if r != goldenRecords[i] {
			t.Fatalf("record %d: got %+v want %+v", i, r, goldenRecords[i])
		}
	}
}

// TestUnflaggedFrameStopsReplay: every frame's length word carries
// varintFlag; one without it is corruption, and replay stops there with the
// preceding records intact — even when the frame is otherwise well-formed
// under some checksum convention (the flag check, not luck with the crc, is
// what refuses it).
func TestUnflaggedFrameStopsReplay(t *testing.T) {
	r1 := Record{Seq: 1, Item: 1, Txn: model.TxnID{Site: 1, Seq: 1}, Value: 7}
	r2 := Record{Seq: 2, Item: 2, Txn: model.TxnID{Site: 1, Seq: 2}, Value: 8}
	r3 := Record{Seq: 3, Item: 3, Txn: model.TxnID{Site: 1, Seq: 3}, Value: 9}

	frame := func(lenWord uint32, payload []byte, crcCoversLenWord bool) []byte {
		out := make([]byte, frameHeader, frameHeader+len(payload))
		binary.LittleEndian.PutUint32(out[4:], lenWord)
		out = append(out, payload...)
		sum := crc32.Checksum(payload, crcTable)
		if crcCoversLenWord {
			sum = crc32.Checksum(out[4:], crcTable)
		}
		binary.LittleEndian.PutUint32(out[0:], sum)
		return out
	}
	// The 48-byte fixed-width payload pre-varint builds wrote.
	var fixed [48]byte
	binary.LittleEndian.PutUint64(fixed[0:], r2.Seq)
	binary.LittleEndian.PutUint32(fixed[8:], uint32(r2.Item))
	binary.LittleEndian.PutUint32(fixed[12:], uint32(r2.Txn.Site))
	binary.LittleEndian.PutUint64(fixed[16:], r2.Txn.Seq)
	binary.LittleEndian.PutUint64(fixed[24:], uint64(r2.Value))
	varint := appendRecordPayload(nil, r2)
	stripped := appendRecord(nil, r2)
	stripped[7] &^= 0x80 // bit 31 of the little-endian length word

	for name, bad := range map[string][]byte{
		"fixed-width frame, payload-only crc":          frame(uint32(len(fixed)), fixed[:], false),
		"varint frame, flag cleared, crc left stale":   stripped,
		"varint frame, flag cleared, crc recomputed":   frame(uint32(len(varint)), varint, true),
		"varint frame, flag cleared, payload-only crc": frame(uint32(len(varint)), varint, false),
	} {
		media := NewMemMedia()
		writeSegment(t, media, append(append(appendRecord(nil, r1), bad...), appendRecord(nil, r3)...))
		got := replayAll(t, media, 0)
		if len(got) != 1 || got[0] != r1 {
			t.Errorf("%s: replayed %+v, want exactly the record before it", name, got)
		}
	}
}
