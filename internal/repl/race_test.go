package repl

import (
	"sync"
	"testing"

	"ucc/internal/model"
	"ucc/internal/storage"
	"ucc/internal/wal"
)

// TestConcurrentCatchUpReplayVsLiveWrites is the -race witness for the
// catch-up plane's locking story: while one goroutine replays shipped
// batches into the low half of a site's item space (the lagging copies), a
// second drives live journaled writes into the high half, and a third keeps
// serving pulls from the source site's log as it is still being appended to.
// Shard-disjoint items are exactly what the queue manager guarantees at
// apply time (each record applies under its owning shard's lock), so the
// test exercises the same interleaving: ApplyShipped and Write racing on the
// same store, the same journal, and a source log that is read and written
// concurrently.
func TestConcurrentCatchUpReplayVsLiveWrites(t *testing.T) {
	const items = 32
	const half = items / 2
	const writesEach = 400

	newSite := func(site model.SiteID) (*storage.Store, *wal.SiteLog) {
		st := storage.NewStore(site)
		for i := 0; i < items; i++ {
			st.Create(model.ItemID(i), 0)
		}
		sl, err := wal.Open(wal.NewMemMedia(), st, wal.Options{SnapshotEvery: 100})
		if err != nil {
			t.Fatal(err)
		}
		st.SetJournal(sl)
		return st, sl
	}
	srcStore, srcLog := newSite(0)
	dstStore, dstLog := newSite(1)

	var wg sync.WaitGroup
	wg.Add(3)

	// Source site: live traffic on the shipped half, flushed continuously
	// so RecordsSince keeps finding fresh durable tail to serve.
	go func() {
		defer wg.Done()
		for n := 0; n < writesEach; n++ {
			item := model.ItemID(n % half)
			srcStore.Write(item, model.TxnID{Site: 0, Seq: uint64(n + 1)},
				int64(n+1), int64(n+1))
			if err := srcLog.Flush(); err != nil {
				panic(err)
			}
		}
	}()

	// Destination site, live half: journaled writes racing the replayer on
	// the shared store and journal.
	go func() {
		defer wg.Done()
		for n := 0; n < writesEach; n++ {
			item := model.ItemID(half + n%half)
			dstStore.Write(item, model.TxnID{Site: 1, Seq: uint64(n + 1)},
				int64(1000+n), int64(n+1))
			if err := dstLog.Flush(); err != nil {
				panic(err)
			}
		}
	}()

	// Destination site, catch-up: pull from the live source log — each pull
	// carrying the digest drained from the destination's own log while the
	// writer above appends to it, and served less what that digest and the
	// earlier ones claimed — and replay through the stamp gate until the
	// source's whole run has shipped.
	go func() {
		defer wg.Done()
		var mark uint64
		var known Known
		puller := NewPuller(Options{Site: 1, Peers: []model.SiteID{0}})
		for {
			pull := model.ReplPullMsg{From: 1, AfterSeq: mark, Have: puller.TickHave(dstLog)}
			batch, err := known.Serve(0, srcLog, pull, 64)
			if err != nil {
				panic(err)
			}
			st := Apply(batch.Frames, func(r wal.Record) bool {
				// A snapshot-reset batch images the source's whole store;
				// the live half belongs to the writer goroutine above (in
				// the queue manager, to another shard's lock).
				if r.Item >= half {
					return false
				}
				return dstStore.ApplyShipped(r.Item, r.Txn, r.Value, r.CommitMicros)
			})
			if err := dstLog.Flush(); err != nil {
				panic(err)
			}
			if st.Torn == 0 && batch.NextAfterSeq > mark {
				mark = batch.NextAfterSeq
			}
			if mark >= writesEach {
				return
			}
		}
	}()

	wg.Wait()

	// Every shipped item converged to the source's final value; every live
	// item holds the destination's own final write. The same chains that
	// raced are then re-derived from the destination's log to prove the
	// interleaved journaling stayed recoverable.
	for i := 0; i < half; i++ {
		want, _ := srcStore.Read(model.ItemID(i))
		got, _ := dstStore.Read(model.ItemID(i))
		if got != want {
			t.Fatalf("shipped item %d: %d, want source's %d", i, got, want)
		}
	}
	for i := half; i < items; i++ {
		if got, _ := dstStore.Read(model.ItemID(i)); got != int64(1000+writesEach-half+i-half) {
			t.Fatalf("live item %d: %d", i, got)
		}
	}
	wantCopies := dstStore.Copies()
	dstLog.Crash()
	dstStore.Wipe()
	if err := dstLog.Recover(); err != nil {
		t.Fatal(err)
	}
	gotCopies := dstStore.Copies()
	if len(gotCopies) != len(wantCopies) {
		t.Fatalf("recovered %d copies, want %d", len(gotCopies), len(wantCopies))
	}
	for i := range wantCopies {
		if gotCopies[i] != wantCopies[i] {
			t.Fatalf("copy %d: recovered %+v, want %+v", i, gotCopies[i], wantCopies[i])
		}
	}
}
