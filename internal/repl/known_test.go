package repl

import (
	"slices"
	"testing"

	"ucc/internal/model"
	"ucc/internal/storage"
	"ucc/internal/wal"
)

// serverLog is a site log holding the given (item, stamp) writes, synced, as
// sequence numbers 1..n.
func serverLog(t *testing.T, opts wal.Options, writes ...wal.Have) *wal.SiteLog {
	t.Helper()
	st := storage.NewStore(0)
	for i := 0; i < 8; i++ {
		st.Create(model.ItemID(i), 0)
	}
	sl, err := wal.Open(wal.NewMemMedia(), st, opts)
	if err != nil {
		t.Fatal(err)
	}
	st.SetJournal(sl)
	for i, w := range writes {
		st.Write(w.Item, model.TxnID{Site: 0, Seq: uint64(i + 1)}, w.CommitMicros, w.CommitMicros)
	}
	if err := sl.Flush(); err != nil {
		t.Fatal(err)
	}
	return sl
}

// shipped decodes a batch into its (item, stamp) pairs.
func shipped(t *testing.T, msg model.ReplRecordsMsg) []wal.Have {
	t.Helper()
	var out []wal.Have
	st := Apply(msg.Frames, func(r wal.Record) bool {
		out = append(out, wal.Have{Item: r.Item, CommitMicros: r.CommitMicros})
		return true
	})
	if st.Torn != 0 {
		t.Fatalf("served batch torn: %+v", st)
	}
	return out
}

func digest(have ...wal.Have) []byte { return AppendHave(nil, have) }

// TestServeWithholdsOnlyWhatThePeerHolds: a record is left out exactly when
// its stamp is at or below the peer's claim for its item — the mirror of
// ApplyShipped's gate — and next moves past it all the same. A newer record
// of a claimed item, and every record of an unclaimed one, still ships.
func TestServeWithholdsOnlyWhatThePeerHolds(t *testing.T) {
	src := serverLog(t, wal.Options{},
		wal.Have{Item: 1, CommitMicros: 10}, wal.Have{Item: 2, CommitMicros: 15},
		wal.Have{Item: 1, CommitMicros: 20}, wal.Have{Item: 3, CommitMicros: 25}, wal.Have{Item: 1, CommitMicros: 30})
	var k Known
	msg, err := k.Serve(0, src, model.ReplPullMsg{From: 1, AfterSeq: 1, Have: digest(wal.Have{Item: 1, CommitMicros: 20}, wal.Have{Item: 3, CommitMicros: 25})}, 16)
	if err != nil {
		t.Fatal(err)
	}
	want := []wal.Have{{Item: 2, CommitMicros: 15}, {Item: 1, CommitMicros: 30}}
	if got := shipped(t, msg); !slices.Equal(got, want) || msg.NextAfterSeq != 5 || msg.More || msg.Reset {
		t.Fatalf("shipped %v next %d more %v reset %v; want %v next 5", got, msg.NextAfterSeq, msg.More, msg.Reset, want)
	}
	// The claim is stored: a later pull without a digest is still spared the
	// same records — and still gets the one newer than the claim.
	msg, err = k.Serve(0, src, model.ReplPullMsg{From: 1, AfterSeq: 2}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := shipped(t, msg); !slices.Equal(got, want[1:]) || msg.NextAfterSeq != 5 {
		t.Fatalf("stored claim: shipped %v next %d; want %v next 5", got, msg.NextAfterSeq, want[1:])
	}
	// Another peer claimed nothing and is withheld nothing.
	msg, err = k.Serve(0, src, model.ReplPullMsg{From: 2, AfterSeq: 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := shipped(t, msg); len(got) != 4 {
		t.Fatalf("peer 2 claimed nothing but was shipped %v", got)
	}
	// The bound counts shipped records: withheld ones do not use it up.
	msg, err = k.Serve(0, src, model.ReplPullMsg{From: 1, AfterSeq: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := shipped(t, msg); !slices.Equal(got, want[:1]) || !msg.More || msg.NextAfterSeq != 4 {
		t.Fatalf("bound 1: shipped %v more %v next %d; want %v, more, next 4 (past the withheld 3 and 4)", got, msg.More, msg.NextAfterSeq, want[:1])
	}
}

// TestServeForgetsOnPullFromZero: a digest names journaled, possibly
// unsynced writes. A pull from sequence zero is what the peer sends after a
// crash lost them, so everything it claimed before is dropped and the whole
// log is offered again — less only what that very pull claims afresh.
func TestServeForgetsOnPullFromZero(t *testing.T) {
	src := serverLog(t, wal.Options{}, wal.Have{Item: 1, CommitMicros: 10}, wal.Have{Item: 2, CommitMicros: 15})
	var k Known
	k.Learn(1, digest(wal.Have{Item: 1, CommitMicros: 10}, wal.Have{Item: 2, CommitMicros: 15}))
	k.Note(1, 3, 99)
	msg, err := k.Serve(0, src, model.ReplPullMsg{From: 1, AfterSeq: 0, Have: digest(wal.Have{Item: 2, CommitMicros: 15})}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := shipped(t, msg); !slices.Equal(got, []wal.Have{{Item: 1, CommitMicros: 10}}) || msg.NextAfterSeq != 2 {
		t.Fatalf("after the peer's crash: shipped %v next %d; want item 1's record, next 2", got, msg.NextAfterSeq)
	}
	if k.Holds(1, 3, 99) || !k.Holds(1, 2, 15) {
		t.Fatal("a pull from zero must leave exactly its own digest in the table")
	}
}

// TestServeForgetsOnReset: a peer behind both tail and log is re-imaged from
// the snapshot, and what was believed about it goes with its old state.
func TestServeForgetsOnReset(t *testing.T) {
	src := serverLog(t, wal.Options{}, wal.Have{Item: 1, CommitMicros: 10}, wal.Have{Item: 2, CommitMicros: 15})
	src.Crash()
	if err := src.Recover(); err != nil { // empties the tail, snapshots at seq 2
		t.Fatal(err)
	}
	var k Known
	k.Note(1, 1, 10)
	msg, err := k.Serve(0, src, model.ReplPullMsg{From: 1, AfterSeq: 1, Have: digest(wal.Have{Item: 2, CommitMicros: 15})}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !msg.Reset || !msg.More || msg.NextAfterSeq != 2 {
		t.Fatalf("want the Reset image at seq 2, got %+v", msg)
	}
	if got := shipped(t, msg); len(got) != 8 {
		t.Fatalf("the Reset image ships every copy, got %v", got)
	}
	if k.Holds(1, 1, 10) || !k.Holds(1, 2, 15) {
		t.Fatal("a Reset must leave exactly the pull's own digest in the table")
	}
}

// TestMalformedDigestShipsEverything: bytes that do not decode are no digest.
func TestMalformedDigestShipsEverything(t *testing.T) {
	src := serverLog(t, wal.Options{}, wal.Have{Item: 1, CommitMicros: 10}, wal.Have{Item: 2, CommitMicros: 15})
	good := digest(wal.Have{Item: 1, CommitMicros: 10}, wal.Have{Item: 2, CommitMicros: 15})
	var k Known
	msg, err := k.Serve(0, src, model.ReplPullMsg{From: 1, AfterSeq: 0, Have: good[:len(good)-1]}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := shipped(t, msg); len(got) != 2 {
		t.Fatalf("truncated digest withheld records: shipped %v", got)
	}
}

// TestKnownIsBounded: past maxKnownItems a peer's table is cleared, never
// grown; forgetting only ships more.
func TestKnownIsBounded(t *testing.T) {
	var k Known
	for i := 0; i < maxKnownItems; i++ {
		k.Note(1, model.ItemID(i), 7)
	}
	k.Note(1, 0, 9) // raising a held item is not growth
	if len(k.peers[1]) != maxKnownItems || !k.Holds(1, 0, 9) {
		t.Fatalf("table has %d entries before the bound is crossed", len(k.peers[1]))
	}
	k.Note(1, maxKnownItems, 7)
	if len(k.peers[1]) != 1 || k.Holds(1, 0, 7) {
		t.Fatalf("table has %d entries after crossing the bound, want 1", len(k.peers[1]))
	}
}

// TestPullerKeepsPeersSorted: Peers is one slice kept in order, rebuilt only
// when the set changes, and TickHave encodes what the log hands it.
func TestPullerKeepsPeersSorted(t *testing.T) {
	p := NewPuller(Options{Site: 0, Peers: []model.SiteID{3, 1, 2, 1}})
	if got := p.Peers(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("peers %v, want [1 2 3]", got)
	}
	if n := testing.AllocsPerRun(10, func() { _ = p.Peers() }); n != 0 {
		t.Fatalf("Peers allocates %v times per call", n)
	}
	p.Advance(3, 7)
	p.SetPeers([]model.SiteID{4, 3})
	if got := p.Peers(); len(got) != 2 || got[0] != 3 || got[1] != 4 || p.Mark(3) != 7 || p.Mark(4) != 0 {
		t.Fatalf("after SetPeers: peers %v marks %v", got, p.Watermarks())
	}
	if !p.Advance(4, 2) || p.Advance(4, 2) || p.Advance(9, 1) {
		t.Fatal("Advance must report exactly the calls that moved a watermark")
	}

	src := serverLog(t, wal.Options{}, wal.Have{Item: 2, CommitMicros: 15}, wal.Have{Item: 1, CommitMicros: 10}, wal.Have{Item: 2, CommitMicros: 30})
	have, ok := DecodeHave(p.TickHave(src), nil)
	if !ok || !slices.Equal(have, []wal.Have{{Item: 1, CommitMicros: 10}, {Item: 2, CommitMicros: 30}}) {
		t.Fatalf("tick digest %v ok %v", have, ok)
	}
	if again := p.TickHave(src); again != nil {
		t.Fatalf("an idle period still carries a digest: %x", again)
	}
}
