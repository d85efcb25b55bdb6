package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"ucc/internal/model"
)

// segmentItems is the number of copies the fuzzed segment's base snapshot
// holds (items 0..segmentItems-1, initial value 100); a record of any other
// item is a replayed write to an unknown item, which Open refuses.
const segmentItems = 4

// cleanSegment is a valid first segment: three writes, one item written
// twice, stamped as a live site stamps them.
func cleanSegment() []byte {
	var seg []byte
	for i, r := range []Record{
		{Item: 0, Txn: model.TxnID{Site: 1, Seq: 7}, Value: -5, Version: 1, CommitMicros: 1_700_000_000_000_000},
		{Item: 2, Txn: model.TxnID{Site: 2, Seq: 1 << 40}, Value: 42, Version: 1, CommitMicros: 1_700_000_000_000_250},
		{Item: 0, Txn: model.TxnID{Site: 0, Seq: 9}, Value: 300, Version: 2, CommitMicros: 1_700_000_000_001_000},
	} {
		r.Seq = uint64(i + 1)
		seg = appendRecord(seg, r)
	}
	return seg
}

// seedSegments are FuzzOpenSegments' committed seeds: the clean segment, torn
// in the middle of its last frame, with one payload bit of its second frame
// flipped, and cut right behind its second frame's length word.
func seedSegments() map[string][]byte {
	clean := cleanSegment()
	first := frameHeader + int(binary.LittleEndian.Uint32(clean[4:])&^varintFlag)
	flipped := slices.Clone(clean)
	flipped[first+frameHeader+2] ^= 0x04
	return map[string][]byte{
		"clean":           clean,
		"torn-mid-frame":  clean[:len(clean)-5],
		"bit-flipped":     flipped,
		"cut-at-len-word": clean[:first+frameHeader],
	}
}

func segmentSeedDir() string { return filepath.Join("testdata", "fuzz", "FuzzOpenSegments") }

// TestSegmentSeedCorpusCommitted: the committed corpus holds exactly the
// seeds above, in the fuzzing engine's file format.
func TestSegmentSeedCorpusCommitted(t *testing.T) {
	for name, data := range seedSegments() {
		got, err := os.ReadFile(filepath.Join(segmentSeedDir(), name))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data))); string(got) != want {
			t.Fatalf("committed seed %s differs from seedSegments:\n got %q\nwant %q", name, got, want)
		}
	}
}

// FuzzOpenSegments runs recovery (Open) over a valid base snapshot and one
// fuzzed segment, and over the same segment with its frame checksums
// repaired, so the fuzzer reaches the payload decoder and the replay's
// sequence and item checks. Open must never panic or hang; when it
// succeeds, the store holds the base plus exactly the records
// decodeRecords accepts before the first tear, as far as their
// sequence runs on unbroken; and opening the media Open left behind again
// gives the same store.
func FuzzOpenSegments(f *testing.F) {
	f.Fuzz(func(t *testing.T, seg []byte) {
		checkOpenSegment(t, seg)
		checkOpenSegment(t, repairFrames(seg))
	})
}

// repairFrames returns a copy of seg with the checksum of every frame
// recomputed, for as long as the frames' length words are well formed.
func repairFrames(seg []byte) []byte {
	out := slices.Clone(seg)
	for b := out; len(b) >= frameHeader; {
		n := binary.LittleEndian.Uint32(b[4:]) &^ varintFlag
		end := frameHeader + int(n)
		if n == 0 || n > maxRecordPayload || end > len(b) {
			break
		}
		binary.LittleEndian.PutUint32(b, crc32.Checksum(b[4:end], crcTable))
		b = b[end:]
	}
	return out
}

func checkOpenSegment(t *testing.T, seg []byte) {
	media := NewMemMedia()
	base := newStore(t, 0, segmentItems, 100)
	sl, err := Open(media, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	name := sl.log.SegmentName()
	w, err := media.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(seg); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}

	// The records replay must recover: the intact prefix, from seq 1 on
	// until the sequence breaks (seq 0 is the base snapshot's). A write to an
	// unknown item ends it with Open's error.
	want := newStore(t, 0, segmentItems, 100)
	var replayed uint64
	stopped, unknown := false, false
	decodeRecords(seg, func(r Record) {
		switch {
		case stopped || r.Seq == 0:
		case r.Seq != replayed+1:
			stopped = true
		case !want.Has(r.Item):
			stopped, unknown = true, true
		default:
			want.Apply(r.Item, r.Txn, r.Value, r.Version, r.CommitMicros)
			replayed++
		}
	})

	st := newStore(t, 0, segmentItems, 100)
	got, err := Open(media, st, Options{})
	if err != nil {
		if !unknown {
			t.Fatalf("Open refused a segment whose intact prefix replays cleanly: %v\nsegment %x", err, seg)
		}
		return
	}
	if unknown {
		t.Fatalf("Open accepted a replayed write to an unknown item\nsegment %x", seg)
	}
	if n := got.Stats().Replayed; n != replayed {
		t.Fatalf("replayed %d records, want the %d of the intact prefix\nsegment %x", n, replayed, seg)
	}
	if !reflect.DeepEqual(st.Chains(), want.Chains()) {
		t.Fatalf("recovered chains %+v, want %+v\nsegment %x", st.Chains(), want.Chains(), seg)
	}
	again := newStore(t, 0, segmentItems, 100)
	if _, err := Open(media, again, Options{}); err != nil {
		t.Fatalf("reopening the recovered media: %v\nsegment %x", err, seg)
	}
	if !reflect.DeepEqual(again.Chains(), st.Chains()) {
		t.Fatalf("second open recovered %+v, first %+v\nsegment %x", again.Chains(), st.Chains(), seg)
	}
}
