package repl

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"ucc/internal/model"
	"ucc/internal/wal"
)

// seedCorpora maps each fuzz target to its committed seeds, under
// testdata/fuzz/<target>.
var seedCorpora = map[string]func() map[string][]byte{
	"FuzzReplStream": seedStreams,
	"FuzzHaveDigest": seedDigests,
}

func seedDir(target string) string { return filepath.Join("testdata", "fuzz", target) }

// seedStreams are the committed fuzz seeds: a clean multi-record batch, a
// batch with duplicate and overlapping ranges (the re-ship case), a
// mid-record truncation, an unterminated varint, and raw garbage. One seed
// per shape, so the first fuzz iteration already walks every decode branch.
func seedStreams() map[string][]byte {
	clean := frames(rec(1, 1, 10, 100), rec(2, 2, 20, 200), rec(3, 3, 30, 300))
	dup := frames(rec(1, 1, 10, 100), rec(1, 1, 10, 100), rec(2, 1, 11, 90), rec(3, 2, 20, 200), rec(2, 1, 11, 90))
	torn := append([]byte(nil), clean[:len(clean)-5]...)
	corrupt := append([]byte(nil), clean...)
	corrupt[len(corrupt)-1] |= 0x80 // the last varint never ends
	return map[string][]byte{
		"clean":    clean,
		"dup":      dup,
		"torn":     torn,
		"corrupt":  corrupt,
		"garbage":  {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x02, 0x03},
		"empty":    {},
		"one-byte": {0x7F},
	}
}

// TestWriteSeedCorpus regenerates the committed seed corpus when
// REPL_WRITE_CORPUS=1 (same workflow as internal/wire's corpus):
//
//	REPL_WRITE_CORPUS=1 go test ./internal/repl -run TestWriteSeedCorpus
func TestWriteSeedCorpus(t *testing.T) {
	if os.Getenv("REPL_WRITE_CORPUS") == "" {
		t.Skip("set REPL_WRITE_CORPUS=1 to regenerate the seed corpus")
	}
	for target, seeds := range seedCorpora {
		if err := os.MkdirAll(seedDir(target), 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range seeds() {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
			if err := os.WriteFile(filepath.Join(seedDir(target), name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSeedCorpusCommitted fails if the checked-in corpus is missing — the CI
// fuzz job depends on seeds existing.
func TestSeedCorpusCommitted(t *testing.T) {
	for target, seeds := range seedCorpora {
		entries, err := os.ReadDir(seedDir(target))
		if err != nil {
			t.Fatalf("seed corpus missing (run REPL_WRITE_CORPUS=1 go test -run TestWriteSeedCorpus ./internal/repl): %v", err)
		}
		if want := len(seeds()); len(entries) < want {
			t.Fatalf("%s seed corpus has %d entries, want ≥ %d", target, len(entries), want)
		}
	}
}

// FuzzReplStream hardens the shipped-batch decode→replay path against
// arbitrary bytes off the wire. For every input, whatever its shape:
//
//   - Apply must not panic and must account for every decoded record
//     (Applied + Skipped = decode count, Torn = trailing damage).
//   - Replaying the same bytes against the same replica must apply nothing —
//     duplicate and overlapping re-ships are absorbed by the stamp gate.
//   - Truncating the input at any point must only ever shorten the applied
//     prefix, never change or reorder what was applied before the cut.
func FuzzReplStream(f *testing.F) {
	for _, data := range seedStreams() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var decoded int
		torn := wal.DecodeShipped(data, func(wal.Record) { decoded++ })

		m := applyModel{}
		st := Apply(data, m.apply)
		if st.Applied+st.Skipped != decoded {
			t.Fatalf("stats %+v do not account for %d decoded records", st, decoded)
		}
		if st.Torn != torn {
			t.Fatalf("torn mismatch: Apply=%d decode=%d", st.Torn, torn)
		}

		// Idempotence: the identical batch re-shipped is all skips.
		again := Apply(data, m.apply)
		if again.Applied != 0 || again.Skipped != decoded {
			t.Fatalf("replay not idempotent: %+v (decoded %d)", again, decoded)
		}

		// Truncation at an arbitrary interior point (derived from the data
		// itself to stay deterministic): the prefix replayed into a fresh
		// replica must agree with the full replay on every item it reached.
		if len(data) > 0 {
			cut := int(data[0]) % (len(data) + 1)
			pm := applyModel{}
			var prefixOrder []wal.Record
			Apply(data[:cut], func(r wal.Record) bool {
				prefixOrder = append(prefixOrder, r)
				return pm.apply(r)
			})
			var fullOrder []wal.Record
			fm := applyModel{}
			Apply(data, func(r wal.Record) bool {
				fullOrder = append(fullOrder, r)
				return fm.apply(r)
			})
			if len(prefixOrder) > len(fullOrder) {
				t.Fatalf("truncation grew the stream: %d > %d", len(prefixOrder), len(fullOrder))
			}
			for i, r := range prefixOrder {
				if fullOrder[i] != r {
					t.Fatalf("record %d differs between prefix and full replay", i)
				}
			}
		}

		// Round-trip: one batch, one encoding — re-encoding every decoded
		// record reproduces the intact prefix byte for byte.
		var reenc []byte
		var prev int64
		wal.DecodeShipped(data, func(r wal.Record) {
			reenc = wal.AppendShipped(reenc, prev, r)
			prev = r.CommitMicros
		})
		if !bytes.Equal(reenc, data[:len(data)-torn]) {
			t.Fatalf("accepted records are not the canonical encoding:\n in: %x\nout: %x", data[:len(data)-torn], reenc)
		}
	})
}

// seedDigests are FuzzHaveDigest's committed seeds: a typical digest, one
// spanning the field extremes, a truncation, items out of order, an item
// beyond the ID range, a fill's scope, and raw garbage.
func seedDigests() map[string][]byte {
	clean := AppendHave(nil, []wal.Have{{Item: 3, CommitMicros: 1_700_000_000_000_000}, {Item: 4, CommitMicros: 1_700_000_000_000_900}, {Item: 900, CommitMicros: 1_699_999_999_999_000}})
	extremes := AppendHave(nil, []wal.Have{{Item: -1 << 31, CommitMicros: -1 << 63}, {Item: 0, CommitMicros: 1<<63 - 1}, {Item: 1<<31 - 1, CommitMicros: 0}})
	unsorted := model.AppendVarint(model.AppendVarint(append([]byte(nil), clean...), -2), 5)
	return map[string][]byte{
		"clean":     clean,
		"extremes":  extremes,
		"truncated": clean[:len(clean)-1],
		"unsorted":  unsorted,
		"wide-item": model.AppendVarint(model.AppendVarint(nil, 1<<31), 7),
		"scope":     AppendScope(nil, []model.ItemID{0, 1, 3, 900, 1<<31 - 1}),
		"garbage":   {0xDE, 0xAD, 0xBE, 0xEF, 0xFF, 0xFF, 0xFF},
		"empty":     {},
	}
}

// fuzzKnownItems is the item count of the map FuzzHaveDigest's Known is
// reset to: the bound a learned digest is held to.
const fuzzKnownItems = 1 << 16

// FuzzHaveDigest hardens the pull's digest, and a fill's scope, which
// shares its item coding, against arbitrary bytes off the wire. For every
// input:
//
//   - DecodeHave must not panic; what it accepts is strictly item-ascending
//     and re-encodes to the same bytes (one encoding per digest).
//   - A digest that does not decode is treated as absent: Known learns
//     nothing from it, so the pull it rode on is served in full.
//   - What Known learns from an accepted digest is exactly its entries.
//   - DecodeScope holds to the same: no panic, an accepted scope strictly
//     ascending and canonical, and a rejected one yields no item — and is
//     not served (Known.Serve), never widened to every item.
func FuzzHaveDigest(f *testing.F) {
	for _, data := range seedDigests() {
		f.Add(data)
	}
	pm := installMap(nil, 8, 0, 1) // a fill is served by its scope alone
	f.Fuzz(func(t *testing.T, data []byte) {
		scope, ok := DecodeScope(data, nil)
		switch {
		case !ok && len(scope) != 0:
			t.Fatalf("rejected scope still yielded %v", scope)
		case ok && (!slices.IsSorted(scope) || len(slices.Compact(slices.Clone(scope))) != len(scope)):
			t.Fatalf("accepted scope not strictly ascending: %v", scope)
		case ok && !bytes.Equal(AppendScope(nil, scope), data):
			t.Fatalf("accepted scope is not the canonical encoding:\n in: %x\nout: %x", data, AppendScope(nil, scope))
		}
		var sk Known
		if _, served, _ := sk.Serve(0, &emptyLog{}, model.ReplPullMsg{From: 1, Epoch: 1, Scope: data}, pm, 16, nil); served != ok {
			t.Fatalf("scope decoded %v but the fill was served %v", ok, served)
		}

		have, ok := DecodeHave(data, nil)
		var k Known
		k.Reset(fuzzKnownItems)
		k.Learn(1, data)
		if !ok {
			if len(have) != 0 || len(k.peers[1]) != 0 {
				t.Fatalf("rejected digest still yielded %d entries, taught %d", len(have), len(k.peers[1]))
			}
			return
		}
		for i := 1; i < len(have); i++ {
			if have[i].Item <= have[i-1].Item {
				t.Fatalf("accepted digest not strictly ascending at %d: %v", i, have)
			}
		}
		if re := AppendHave(nil, have); !bytes.Equal(re, data) {
			t.Fatalf("accepted digest is not the canonical encoding:\n in: %x\nout: %x", data, re)
		}
		// The table holds exactly the entries inside its bound: an item
		// outside [0, fuzzKnownItems) is not remembered.
		inside := 0
		for _, h := range have {
			if h.Item < 0 || h.Item >= fuzzKnownItems {
				if k.Holds(1, h.Item, h.CommitMicros) {
					t.Fatalf("entry %+v outside the bound was learned", h)
				}
				continue
			}
			inside++
			if slot := k.peers[1][h.Item]; !slot.held || slot.stamp != h.CommitMicros {
				t.Fatalf("entry %+v learned as %+v", h, slot)
			}
		}
		held := 0
		for _, slot := range k.peers[1] {
			if slot.held {
				held++
			}
		}
		if held != inside {
			t.Fatalf("%d entries inside the bound taught %d items", inside, held)
		}
	})
}

// emptyLog is a Source holding nothing: what a fill over it is served does
// not matter, only whether it is served.
type emptyLog struct{}

func (*emptyLog) RecordsSince(afterSeq uint64, _ int, _ func(model.ItemID, int64) bool, dst []byte) ([]byte, uint64, bool, bool, error) {
	return dst, afterSeq, false, false, nil
}
func (*emptyLog) SnapshotRecords(_ func(model.ItemID, int64) bool, dst []byte) ([]byte, uint64, error) {
	return dst, 0, nil
}
func (*emptyLog) HaveSince(afterSeq uint64, dst []wal.Have) ([]wal.Have, uint64) {
	return dst, afterSeq
}
