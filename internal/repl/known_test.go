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

// installMap is the map of items 0..items-1 with a copy of each at every one
// of sites, the stores these tests seed (serverLog seeds eight items); k,
// when not nil, is reset to it, as a queue manager resets its Known at
// every map install.
func installMap(k *Known, items int, sites ...model.SiteID) *model.PartitionMap {
	pm := &model.PartitionMap{Assignments: make([][]model.SiteID, items)}
	for i := range pm.Assignments {
		pm.Assignments[i] = sites
	}
	if k != nil {
		k.Reset(items)
	}
	return pm
}

// TestServeWithholdsOnlyWhatThePeerHolds: a record is left out exactly when
// its stamp is at or below the peer's claim for its item — the mirror of
// ApplyShipped's gate — and next moves past it all the same. A newer record
// of a claimed item, and every record of an unclaimed one, still ships.
func TestServeWithholdsOnlyWhatThePeerHolds(t *testing.T) {
	src := serverLog(t, wal.Options{},
		wal.Have{Item: 1, CommitMicros: 10}, wal.Have{Item: 2, CommitMicros: 15},
		wal.Have{Item: 1, CommitMicros: 20}, wal.Have{Item: 3, CommitMicros: 25}, wal.Have{Item: 1, CommitMicros: 30})
	var k Known
	pm := installMap(&k, 8, 0, 1, 2)
	msg, _, err := k.Serve(0, src, model.ReplPullMsg{From: 1, AfterSeq: 1, Have: digest(wal.Have{Item: 1, CommitMicros: 20}, wal.Have{Item: 3, CommitMicros: 25})}, pm, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []wal.Have{{Item: 2, CommitMicros: 15}, {Item: 1, CommitMicros: 30}}
	if got := shipped(t, msg); !slices.Equal(got, want) || msg.NextAfterSeq != 5 || msg.More || msg.Reset {
		t.Fatalf("shipped %v next %d more %v reset %v; want %v next 5", got, msg.NextAfterSeq, msg.More, msg.Reset, want)
	}
	// The claim is stored: a later pull without a digest is still spared the
	// same records — and still gets the one newer than the claim.
	msg, _, err = k.Serve(0, src, model.ReplPullMsg{From: 1, AfterSeq: 2}, pm, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := shipped(t, msg); !slices.Equal(got, want[1:]) || msg.NextAfterSeq != 5 {
		t.Fatalf("stored claim: shipped %v next %d; want %v next 5", got, msg.NextAfterSeq, want[1:])
	}
	// Another peer claimed nothing and is withheld nothing.
	msg, _, err = k.Serve(0, src, model.ReplPullMsg{From: 2, AfterSeq: 1}, pm, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := shipped(t, msg); len(got) != 4 {
		t.Fatalf("peer 2 claimed nothing but was shipped %v", got)
	}
	// The bound counts shipped records: withheld ones do not use it up.
	msg, _, err = k.Serve(0, src, model.ReplPullMsg{From: 1, AfterSeq: 1}, pm, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := shipped(t, msg); !slices.Equal(got, want[:1]) || !msg.More || msg.NextAfterSeq != 4 {
		t.Fatalf("bound 1: shipped %v more %v next %d; want %v, more, next 4 (past the withheld 3 and 4)", got, msg.More, msg.NextAfterSeq, want[:1])
	}
}

// TestServeWithholdsItemsThePeerHoldsNoCopyOf: a record of an item the map
// gives the puller no copy of is left out like one it already holds, and
// next moves past it; each puller is served its own copies.
func TestServeWithholdsItemsThePeerHoldsNoCopyOf(t *testing.T) {
	src := serverLog(t, wal.Options{},
		wal.Have{Item: 0, CommitMicros: 10}, wal.Have{Item: 1, CommitMicros: 15},
		wal.Have{Item: 2, CommitMicros: 20}, wal.Have{Item: 3, CommitMicros: 25})
	pm := &model.PartitionMap{Assignments: [][]model.SiteID{{0, 1}, {0, 2}, {1, 0}, {2, 0}}}
	var k Known
	k.Reset(pm.Items())
	msg, _, err := k.Serve(0, src, model.ReplPullMsg{From: 1}, pm, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []wal.Have{{Item: 0, CommitMicros: 10}, {Item: 2, CommitMicros: 20}}
	if got := shipped(t, msg); !slices.Equal(got, want) || msg.NextAfterSeq != 4 {
		t.Fatalf("shipped %v next %d; want %v next 4", got, msg.NextAfterSeq, want)
	}
	msg, _, err = k.Serve(0, src, model.ReplPullMsg{From: 2}, pm, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	want = []wal.Have{{Item: 1, CommitMicros: 15}, {Item: 3, CommitMicros: 25}}
	if got := shipped(t, msg); !slices.Equal(got, want) || msg.NextAfterSeq != 4 {
		t.Fatalf("to site 2 shipped %v next %d; want %v next 4", got, msg.NextAfterSeq, want)
	}
}

// TestServeForgetsOnPullFromZero: a digest names journaled, possibly
// unsynced writes. A pull from sequence zero is what the peer sends after a
// crash lost them, so everything it claimed before is dropped and the whole
// log is offered again — less only what that very pull claims afresh.
func TestServeForgetsOnPullFromZero(t *testing.T) {
	src := serverLog(t, wal.Options{}, wal.Have{Item: 1, CommitMicros: 10}, wal.Have{Item: 2, CommitMicros: 15})
	var k Known
	pm := installMap(&k, 8, 0, 1)
	k.Learn(1, digest(wal.Have{Item: 1, CommitMicros: 10}, wal.Have{Item: 2, CommitMicros: 15}))
	k.Note(1, 3, 99)
	msg, _, err := k.Serve(0, src, model.ReplPullMsg{From: 1, AfterSeq: 0, Have: digest(wal.Have{Item: 2, CommitMicros: 15})}, pm, 16, nil)
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
// the snapshot, less the copies it holds at the image's stamps already, and
// what was believed about it goes with its old state.
func TestServeForgetsOnReset(t *testing.T) {
	src := serverLog(t, wal.Options{}, wal.Have{Item: 1, CommitMicros: 10}, wal.Have{Item: 2, CommitMicros: 15})
	src.Crash()
	if err := src.Recover(); err != nil { // empties the tail, snapshots at seq 2
		t.Fatal(err)
	}
	var k Known
	pm := installMap(&k, 8, 0, 1)
	k.Note(1, 1, 10)
	msg, _, err := k.Serve(0, src, model.ReplPullMsg{From: 1, AfterSeq: 1, Have: digest(wal.Have{Item: 2, CommitMicros: 15})}, pm, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !msg.Reset || !msg.More || msg.NextAfterSeq != 2 {
		t.Fatalf("want the Reset image at seq 2, got %+v", msg)
	}
	if got := shipped(t, msg); len(got) != 6 || slices.ContainsFunc(got, func(h wal.Have) bool { return h.Item == 1 || h.Item == 2 }) {
		t.Fatalf("the Reset image ships every copy but items 1 and 2, which the peer holds at the image's stamps, got %v", got)
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
	pm := installMap(&k, 8, 0, 1)
	msg, _, err := k.Serve(0, src, model.ReplPullMsg{From: 1, AfterSeq: 0, Have: good[:len(good)-1]}, pm, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := shipped(t, msg); len(got) != 2 {
		t.Fatalf("truncated digest withheld records: shipped %v", got)
	}
}

// TestKnownIsBounded: a peer's table is indexed by item and bounded by the
// installed map's item count, which Reset sets and nothing else: before any
// Reset nothing is remembered, and an item at or past the bound, or a
// negative one, is not remembered and does not grow the table; forgetting
// only ships more. Reset to a smaller map cuts the tables and forgets them,
// and a slot cut off and grown back holds nothing.
func TestKnownIsBounded(t *testing.T) {
	const bound = 1 << 16
	var k Known
	k.Note(1, 0, 7)
	if k.Holds(1, 0, 7) || len(k.peers[1]) != 0 {
		t.Fatalf("a Known with no map remembered item 0 in a table of %d entries", len(k.peers[1]))
	}
	k.Reset(bound)
	for i := 0; i < bound; i++ {
		k.Note(1, model.ItemID(i), 7)
	}
	k.Note(1, 0, 9) // raising a held item is not growth
	if len(k.peers[1]) != bound || !k.Holds(1, 0, 9) {
		t.Fatalf("table has %d entries before the bound is crossed", len(k.peers[1]))
	}
	k.Note(1, bound, 7)
	k.Note(1, -1, 7)
	if len(k.peers[1]) != bound || k.Holds(1, bound, 7) || k.Holds(1, -1, 7) || !k.Holds(1, 0, 9) {
		t.Fatalf("table has %d entries after notes outside the bound, want %d and item 0 kept", len(k.peers[1]), bound)
	}
	k.Reset(8)
	if len(k.peers[1]) > 8 || k.Holds(1, 0, 0) {
		t.Fatalf("Reset(8) kept %d entries, item 0 held %v", len(k.peers[1]), k.Holds(1, 0, 0))
	}
	k.Note(1, 8, 7)
	k.Note(1, 7, 5)
	if k.Holds(1, 8, 7) || !k.Holds(1, 7, 5) || k.Holds(1, 7, 6) || k.Holds(1, 6, 0) {
		t.Fatal("after Reset(8): item 8 is outside the bound, item 7 held at 5, item 6 never noted")
	}
	k.Reset(4)
	k.Note(1, 2, 1)
	k.Reset(8)
	k.Note(1, 7, 1)
	for item := model.ItemID(0); item < 7; item++ {
		if k.Holds(1, item, -1<<63) {
			t.Fatalf("item %d held after the table was cut and grown back", item)
		}
	}
}

// TestPullerKeepsPeersSorted: Peers is one slice kept in order, rebuilt only
// when the set changes, and NextPull takes the peers in that order, each
// digest encoding what the log hands it for that peer.
func TestPullerKeepsPeersSorted(t *testing.T) {
	p := NewPuller(Options{Site: 0, Peers: []model.SiteID{3, 1, 2, 1}})
	if got := p.Peers(); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("peers %v, want [1 2 3]", got)
	}
	if n := testing.AllocsPerRun(10, func() { _ = p.Peers() }); n != 0 {
		t.Fatalf("Peers allocates %v times per call", n)
	}
	p.Advance(3, 0, 7)
	p.SetPeers([]model.SiteID{4, 3})
	if got := p.Peers(); len(got) != 2 || got[0] != 3 || got[1] != 4 || p.Pull(3, 0).AfterSeq != 7 || p.Pull(4, 0).AfterSeq != 0 {
		t.Fatalf("after SetPeers: peers %v marks %v", got, p.Watermarks())
	}
	if !p.Advance(4, 0, 2) || p.Advance(4, 0, 2) || p.Advance(9, 0, 1) {
		t.Fatal("Advance must report exactly the calls that moved a watermark")
	}

	src := serverLog(t, wal.Options{}, wal.Have{Item: 2, CommitMicros: 15}, wal.Have{Item: 1, CommitMicros: 10}, wal.Have{Item: 2, CommitMicros: 30})
	pm := installMap(nil, 8, 0, 3, 4)
	for _, want := range []model.SiteID{3, 4} {
		peer, pull, ok := p.NextPull(src, pm)
		have, dok := DecodeHave(pull.Have, nil)
		if !ok || peer != want || !dok || !slices.Equal(have, []wal.Have{{Item: 1, CommitMicros: 10}, {Item: 2, CommitMicros: 30}}) {
			t.Fatalf("pull to %d (ok %v) carries digest %v (ok %v), want one to %d naming items 1@10 and 2@30", peer, ok, have, dok, want)
		}
	}
	if peer, again, _ := p.NextPull(src, pm); peer != 3 || again.Have != nil {
		t.Fatalf("the round robin's second lap pulls %d with digest %x, want 3 with none", peer, again.Have)
	}
}

// TestServeAndApplyAllocatesNothing: once warm, serving a 512-record
// catch-up batch — digest learnt, records skipped and shipped into a reused
// buffer — and applying it through a store's stamp-gated apply allocate
// nothing.
func TestServeAndApplyAllocatesNothing(t *testing.T) {
	const records = 2048
	writes := make([]wal.Have, records)
	for i := range writes {
		writes[i] = wal.Have{Item: model.ItemID(i % 8), CommitMicros: int64(i + 1)}
	}
	src := serverLog(t, wal.Options{}, writes...)
	dst := storage.NewStore(1)
	for i := 0; i < 8; i++ {
		dst.Create(model.ItemID(i), 0)
	}
	pull := model.ReplPullMsg{From: 1, AfterSeq: 100, Have: digest(wal.Have{Item: 3, CommitMicros: 2000})}
	var k Known
	pm := installMap(&k, 8, 0, 1)
	var frames []byte
	var shippedN int
	serveApply := func() {
		batch, _, err := k.Serve(0, src, pull, pm, 512, frames[:0])
		if err != nil {
			t.Fatal(err)
		}
		frames = batch.Frames
		st := Apply(batch.Frames, func(r wal.Record) bool {
			return dst.ApplyShipped(r.Item, r.Txn, r.Value, r.CommitMicros)
		})
		shippedN = st.Applied + st.Skipped
	}
	serveApply()
	if shippedN != 512 {
		t.Fatalf("served %d records, want a full batch of 512", shippedN)
	}
	if n := testing.AllocsPerRun(50, serveApply); n != 0 {
		t.Fatalf("%v allocations per served and applied batch, want 0", n)
	}
}

// TestServeFillShipsOnlyItsScope: a fill is served the records of its
// scope's items and no others, from the tail and from a Reset image alike,
// and echoes its epoch. It neither reads nor changes what is known about the
// puller: a claim withholds nothing from it, and a fill from zero forgets
// nothing. A scope that does not decode is not served at all.
func TestServeFillShipsOnlyItsScope(t *testing.T) {
	src := serverLog(t, wal.Options{},
		wal.Have{Item: 1, CommitMicros: 10}, wal.Have{Item: 2, CommitMicros: 15},
		wal.Have{Item: 3, CommitMicros: 20}, wal.Have{Item: 2, CommitMicros: 25})
	var k Known
	pm := installMap(&k, 8, 0, 1)
	k.Note(1, 2, 99)
	fill := model.ReplPullMsg{From: 1, Epoch: 4, Incarnation: 2, Scope: AppendScope(nil, []model.ItemID{2, 3})}
	msg, ok, err := k.Serve(0, src, fill, pm, 16, nil)
	if err != nil || !ok {
		t.Fatalf("fill served ok %v, err %v", ok, err)
	}
	want := []wal.Have{{Item: 2, CommitMicros: 15}, {Item: 3, CommitMicros: 20}, {Item: 2, CommitMicros: 25}}
	if got := shipped(t, msg); !slices.Equal(got, want) || msg.NextAfterSeq != 4 || msg.Epoch != 4 || msg.Incarnation != 2 || msg.More || msg.NotReady {
		t.Fatalf("fill shipped %v in %+v, want %v to next 4, epoch 4, incarnation 2", got, msg, want)
	}
	if !k.Holds(1, 2, 99) {
		t.Fatal("a fill from zero forgot what was known about the puller")
	}

	src.Crash()
	if err := src.Recover(); err != nil { // empties the tail, snapshots at seq 4
		t.Fatal(err)
	}
	msg, ok, err = k.Serve(0, src, fill, pm, 16, nil)
	if err != nil || !ok || !msg.Reset || !msg.More {
		t.Fatalf("fill from 0 after the log was truncated: %+v (ok %v, err %v), want a Reset image", msg, ok, err)
	}
	if got := shipped(t, msg); !slices.Equal(got, []wal.Have{{Item: 2, CommitMicros: 25}, {Item: 3, CommitMicros: 20}}) {
		t.Fatalf("the Reset image shipped %v, want items 2 and 3 alone", got)
	}

	fill.Scope = []byte{0x80} // an unterminated varint
	if _, ok, err := k.Serve(0, src, fill, pm, 16, nil); ok || err != nil {
		t.Fatalf("a scope that does not decode was served (ok %v, err %v)", ok, err)
	}
}

// TestNextPullAllocatesNothing: a catch-up pull's digest, filtered by the
// installed map, is built in the puller's own scratch.
func TestNextPullAllocatesNothing(t *testing.T) {
	src := serverLog(t, wal.Options{}, wal.Have{Item: 1, CommitMicros: 10}, wal.Have{Item: 2, CommitMicros: 15}, wal.Have{Item: 5, CommitMicros: 20})
	pm := &model.PartitionMap{Assignments: [][]model.SiteID{{0}, {0, 1}, {0}, {0}, {0}, {0, 1}, {0}, {0}}}
	p := NewPuller(Options{Site: 0, Peers: []model.SiteID{1}})
	pull := func() {
		p.ResetAll() // the pull digests the whole tail again
		if _, pull, _ := p.NextPull(src, pm); len(pull.Have) == 0 {
			t.Fatal("empty digest")
		}
	}
	pull()
	if n := testing.AllocsPerRun(50, pull); n != 0 {
		t.Fatalf("%v allocations per pull, want 0", n)
	}
}
