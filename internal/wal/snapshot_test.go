package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"ucc/internal/model"
	"ucc/internal/storage"
)

// goldenSnapshotStore is the store behind goldenSnapshot: site 3, items
// restored out of order, chains of 1, 2 and 3 versions, a negative value and
// a writer whose Seq has the top bit set.
func goldenSnapshotStore() *storage.Store {
	st := storage.NewStore(3)
	st.RestoreChain(storage.CopyChain{ID: model.CopyID{Item: 9, Site: 3}, Versions: []storage.Version{
		{Value: 70},
		{Value: -12345, Version: 1, Writer: model.TxnID{Site: 1, Seq: 1 << 63}, CommitMicros: 1_700_000_000_000_000},
		{Value: 71, Version: 2, Writer: model.TxnID{Site: 3, Seq: 4}, CommitMicros: 1_700_000_000_000_250},
	}})
	st.RestoreChain(storage.CopyChain{ID: model.CopyID{Item: 2, Site: 3}, Versions: []storage.Version{
		{Value: 20},
	}})
	st.RestoreChain(storage.CopyChain{ID: model.CopyID{Item: 5, Site: 3}, Versions: []storage.Version{
		{Value: 50, Version: 6, Writer: model.TxnID{Site: 0, Seq: 17}, CommitMicros: 1 << 40},
		{Value: 51, Version: 7, Writer: model.TxnID{Site: 2, Seq: 18}, CommitMicros: 1<<40 + 3},
	}})
	return st
}

// goldenSnapshot is goldenSnapshotStore's image at AppliedSeq 42.
const goldenSnapshot = "d80f01432a00000000000000030000000300000002000000010000001400000000000000" +
	"000000000000000000000000000000000000000000000000000000000500000002000000" +
	"320000000000000006000000000000000000000011000000000000000000000000010000" +
	"330000000000000007000000000000000200000012000000000000000300000000010000" +
	"090000000300000046000000000000000000000000000000000000000000000000000000" +
	"0000000000000000c7cfffffffffffff0100000000000000010000000000000000000080" +
	"00401e18240a060047000000000000000200000000000000030000000400000000000000" +
	"fa401e18240a0600"

func equalChains(a, b []storage.CopyChain) bool {
	return slices.EqualFunc(a, b, func(x, y storage.CopyChain) bool {
		return x.ID == y.ID && slices.Equal(x.Versions, y.Versions)
	})
}

// TestSnapshotGoldenBytes: the snapshot format on media is unchanged, and
// the golden image decodes back to the store it was taken from.
func TestSnapshotGoldenBytes(t *testing.T) {
	want, err := hex.DecodeString(goldenSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	st := goldenSnapshotStore()
	if got := appendSnapshot(nil, 42, st); !bytes.Equal(got, want) {
		t.Fatalf("snapshot bytes changed:\n got %x\nwant %x", got, want)
	}
	s, err := decodeSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	if s.AppliedSeq != 42 || s.Site != 3 || !equalChains(s.Chains, st.Chains()) {
		t.Fatalf("golden image decodes to %+v", s)
	}
}

// TestSnapshotImageMatchesStore: an image of a full-size store — items
// created out of order, chains of 1 to 16 versions — decodes to exactly the
// store's chains, in item order.
func TestSnapshotImageMatchesStore(t *testing.T) {
	const copies = 4096
	st := storage.NewStore(1)
	for i := 0; i < copies; i++ {
		item := model.ItemID(i * 2731 % copies) // odd stride: every item once, out of order
		st.Create(item, int64(item))
		for v := 1; v <= int(item)%16; v++ {
			st.Write(item, model.TxnID{Site: 2, Seq: uint64(i)}, int64(item)*100+int64(v), int64(v)*10)
		}
	}
	image := appendSnapshot(nil, 7, st)
	s, err := decodeSnapshot(image)
	if err != nil {
		t.Fatal(err)
	}
	want := st.Chains()
	if s.AppliedSeq != 7 || s.Site != 1 || len(s.Chains) != copies || !equalChains(s.Chains, want) {
		t.Fatalf("image of %d copies does not decode to the store's chains", copies)
	}
	if n := len(want[copies-1].Versions); n != 16 {
		t.Fatalf("longest chain holds %d versions, want 16", n)
	}
}

// TestShorterImageLeavesNoStaleBytes: the site log reuses one buffer for
// every image, so an image shorter than the one before it must carry none of
// the older bytes; and an image taken after a copy is created on the
// map-install path holds that copy in item order.
func TestShorterImageLeavesNoStaleBytes(t *testing.T) {
	media := NewMemMedia()
	st := newStore(t, 2, 64, 5)
	sl, err := Open(media, st, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.SetJournal(sl)
	txn := model.TxnID{Site: 1, Seq: 1}
	snapshotNow := func() {
		t.Helper()
		if err := sl.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		st.Write(model.ItemID(i), txn, int64(i), int64(i+1))
	}
	snapshotNow()
	long := len(sl.snapBuf)

	// Fewer copies, one version each; a journaled write gives the next image
	// a newer applied sequence.
	st.Wipe()
	for i := 0; i < 8; i++ {
		st.RestoreChain(chainAt(2, i*3, 1))
	}
	st.Write(3, txn, 333, 1_000)
	snapshotNow()
	if short := len(sl.snapBuf); short >= long {
		t.Fatalf("second image is %d bytes, not shorter than the first's %d", short, long)
	}
	want := st.Chains()
	sl.Crash()
	st.Wipe()
	if err := sl.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := st.Chains(); !equalChains(got, want) {
		t.Fatalf("recovered store differs from the live one:\n got %+v\nwant %+v", got, want)
	}
	if n := sl.Stats().RecoveredCopies; n != 8 {
		t.Fatalf("recovered %d copies from the short image, want 8", n)
	}

	// The map-install path creates a copy between two images.
	st.Create(10, 77)
	st.Write(10, txn, 78, 2_000)
	snapshotNow()
	s, ok, err := newestSnapshot(media)
	if err != nil || !ok {
		t.Fatalf("newest snapshot: ok=%v err=%v", ok, err)
	}
	if !equalChains(s.Chains, st.Chains()) {
		t.Fatalf("image after Create differs from the store: %+v", s.Chains)
	}
	if i := slices.IndexFunc(s.Chains, func(c storage.CopyChain) bool { return c.ID.Item == 10 }); i != 4 {
		t.Fatalf("created item 10 sits at index %d of the image, want 4", i)
	}
}

// TestSnapshotDamagedCountAllocatesLittle: a checksummed image whose copy
// count claims far more copies than its body holds is rejected without
// sizing anything by the claim.
func TestSnapshotDamagedCountAllocatesLittle(t *testing.T) {
	image := appendSnapshot(nil, 5, goldenSnapshotStore())
	binary.LittleEndian.PutUint32(image[16:], 1<<32-1)
	binary.LittleEndian.PutUint32(image, crc32.Checksum(image[4:], crcTable))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeSnapshot(image)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("image claiming 2^32-1 copies decoded without error")
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<16 {
		t.Fatalf("decoding a damaged count allocated %d bytes", n)
	}
}

// imageStore builds a store of copies × versions for the snapshot
// allocation gate and benchmark.
func imageStore(copies, versions int) *storage.Store {
	st := storage.NewStore(0)
	for i := 0; i < copies; i++ {
		st.RestoreChain(chainAt(0, i, versions))
	}
	return st
}

// TestSnapshotAllocatesNothing: once the site log's buffer has held one
// image (Open's seed image), imaging a 4 096-copy store allocates nothing.
func TestSnapshotAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts mean nothing under the race detector")
	}
	sl, err := Open(NewMemMedia(), imageStore(4096, 6), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { sl.image(1) }); n != 0 {
		t.Fatalf("a snapshot image allocates %v times", n)
	}
}

// seedSnapshots are FuzzSnapshotDecode's committed seeds: the golden image,
// a truncation of it, and a copy with one bit flipped inside a version.
func seedSnapshots() map[string][]byte {
	golden, err := hex.DecodeString(goldenSnapshot)
	if err != nil {
		panic(err)
	}
	flipped := slices.Clone(golden)
	flipped[60] ^= 0x10
	return map[string][]byte{
		"golden":      golden,
		"truncated":   golden[:len(golden)-7],
		"bit-flipped": flipped,
	}
}

func snapshotSeedDir() string { return filepath.Join("testdata", "fuzz", "FuzzSnapshotDecode") }

// TestSnapshotSeedCorpusCommitted: the committed corpus holds exactly the
// seeds above, in the fuzzing engine's file format, so a fuzz run starts
// from the golden image's neighbourhood.
func TestSnapshotSeedCorpusCommitted(t *testing.T) {
	for name, data := range seedSnapshots() {
		got, err := os.ReadFile(filepath.Join(snapshotSeedDir(), name))
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data))); string(got) != want {
			t.Fatalf("committed seed %s differs from seedSnapshots:\n got %q\nwant %q", name, got, want)
		}
	}
}

// FuzzSnapshotDecode hardens the recovery decoder against damaged images.
// decodeSnapshot must not panic on any input and must reject every input
// whose checksum fails. An accepted image whose items are strictly
// ascending — the only images a store produces — must be canonical: restored
// into a fresh store and imaged again, it reproduces its own bytes. Each
// input is also tried with its checksum repaired, so mutations of the body
// reach the parser instead of stopping at the checksum.
func FuzzSnapshotDecode(f *testing.F) {
	for _, data := range seedSnapshots() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSnapshotDecode(t, data)
		if len(data) >= 4 {
			repaired := slices.Clone(data)
			binary.LittleEndian.PutUint32(repaired, crc32.Checksum(repaired[4:], crcTable))
			checkSnapshotDecode(t, repaired)
		}
	})
}

func checkSnapshotDecode(t *testing.T, data []byte) {
	s, err := decodeSnapshot(data)
	if err != nil {
		return
	}
	if binary.LittleEndian.Uint32(data) != crc32.Checksum(data[4:], crcTable) {
		t.Fatalf("accepted an image whose checksum fails: %x", data)
	}
	for i := 1; i < len(s.Chains); i++ {
		if s.Chains[i].ID.Item <= s.Chains[i-1].ID.Item {
			return // restoring would reorder or merge copies
		}
	}
	st := storage.NewStore(s.Site)
	for _, cc := range s.Chains {
		st.RestoreChain(cc)
	}
	if re := appendSnapshot(nil, s.AppliedSeq, st); !bytes.Equal(re, data) {
		t.Fatalf("accepted image is not canonical:\n in: %x\nout: %x", data, re)
	}
}
