package wal

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ucc/internal/model"
	"ucc/internal/storage"
)

// The group-commit acceptance benchmark: N concurrently committing
// transactions against one site log, comparing one-fsync-per-commit with
// group commit. The in-memory media charges a fixed SyncDelay per sync (the
// fsync cost), so the win is the amortization factor commits/syncs.

func benchStore(items int) *storage.Store {
	st := storage.NewStore(0)
	for i := 0; i < items; i++ {
		st.Create(model.ItemID(i), 0)
	}
	return st
}

func runCommitters(b *testing.B, sl *SiteLog, writers int, total int64) {
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := atomic.AddInt64(&next, 1)
				if i > total {
					return
				}
				sl.RecordWrite(model.ItemID(i%64), model.TxnID{Site: 0, Seq: uint64(i)}, i, 1, 0)
				if err := sl.Flush(); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func benchWAL(b *testing.B, group bool, writers int) {
	media := NewMemMedia()
	media.SyncDelay = 100 * time.Microsecond
	sl, err := Open(media, benchStore(64), Options{GroupCommit: group})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	runCommitters(b, sl, writers, int64(b.N))
	b.StopTimer()
	if group {
		commits, syncs := sl.GroupStats()
		if syncs > 0 {
			b.ReportMetric(float64(commits)/float64(syncs), "commits/sync")
		}
	} else {
		b.ReportMetric(1, "commits/sync")
	}
}

// BenchmarkCommitSyncEach: every transaction pays its own sync.
func BenchmarkCommitSyncEach(b *testing.B) { benchWAL(b, false, 16) }

// BenchmarkCommitGroup16: 16 concurrent committers share syncs.
func BenchmarkCommitGroup16(b *testing.B) { benchWAL(b, true, 16) }

// BenchmarkCommitGroup64: heavier concurrency amortizes further.
func BenchmarkCommitGroup64(b *testing.B) { benchWAL(b, true, 64) }

// BenchmarkSiteSnapshot: one snapshot image of a 4 096-copy store with six
// versions a copy, encoded into the site log's reused buffer — the part of a
// periodic snapshot that holds the store's barrier.
func BenchmarkSiteSnapshot(b *testing.B) {
	sl, err := Open(NewMemMedia(), imageStore(4096, 6), Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sl.image(uint64(i))
	}
}
