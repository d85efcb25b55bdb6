package main

import (
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"ucc/internal/model"
)

// hash digests the pool's content (protocols, set sizes, items in order).
func (p *shapePool) hash() uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(v uint32) {
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(b[:])
	}
	for _, sh := range p.shapes {
		put(uint32(sh.protocol))
		put(uint32(len(sh.reads)))
		put(uint32(len(sh.writes)))
		for _, it := range sh.reads {
			put(uint32(it))
		}
		for _, it := range sh.writes {
			put(uint32(it))
		}
	}
	return h.Sum64()
}

func TestShapePoolDeterministic(t *testing.T) {
	for _, w := range workloads {
		a := newShapePool(w, 7, poolSize).hash()
		b := newShapePool(w, 7, poolSize).hash()
		c := newShapePool(w, 8, poolSize).hash()
		if a != b {
			t.Errorf("%s: same seed gave different pools: %x vs %x", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same pool %x", w.name, a)
		}
	}
}

// TestShapeStatistics checks every workload's pool against its spec: set
// sizes, sortedness and disjointness, read fraction, hot-set share, protocol
// thirds and read-only share.
func TestShapeStatistics(t *testing.T) {
	const n = 30000
	// near accepts a share observed over count draws within four standard
	// deviations of want (plus rounding room).
	near := func(t *testing.T, what string, got, want, count float64) {
		t.Helper()
		tol := 4*math.Sqrt(want*(1-want)/count) + 0.002
		if math.Abs(got-want) > tol {
			t.Errorf("%s = %.3f, want %.3f ± %.3f", what, got, want, tol)
		}
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			pool := newShapePool(w, 1, n)
			var accesses, reads, hot, ro float64
			var byProtocol [model.NumProtocols]float64
			for i, sh := range pool.shapes {
				size := len(sh.reads) + len(sh.writes)
				want := w.size
				if sh.protocol == model.ROSnapshot {
					want = w.roSize
					ro++
					if len(sh.writes) != 0 {
						t.Fatalf("shape %d: read-only snapshot with %d writes", i, len(sh.writes))
					}
				}
				if size != want {
					t.Fatalf("shape %d: %d items, want %d", i, size, want)
				}
				all := append(append([]model.ItemID(nil), sh.reads...), sh.writes...)
				if !sort.SliceIsSorted(sh.reads, func(a, b int) bool { return sh.reads[a] < sh.reads[b] }) ||
					!sort.SliceIsSorted(sh.writes, func(a, b int) bool { return sh.writes[a] < sh.writes[b] }) {
					t.Fatalf("shape %d: sets not sorted: %v %v", i, sh.reads, sh.writes)
				}
				seen := map[model.ItemID]bool{}
				for _, it := range all {
					if it < 0 || it >= numItems {
						t.Fatalf("shape %d: item %d out of range", i, it)
					}
					if seen[it] {
						t.Fatalf("shape %d: item %d twice in %v %v", i, it, sh.reads, sh.writes)
					}
					seen[it] = true
					if int(it) < w.hotItems {
						hot++
					}
				}
				byProtocol[sh.protocol]++
				if sh.protocol != model.ROSnapshot {
					accesses += float64(size)
					reads += float64(len(sh.reads))
				}
			}
			near(t, "read fraction of read-write transactions", reads/accesses, w.readFrac, accesses)
			near(t, "read-only share", ro/n, w.roShare, n)
			rw := n - ro
			for _, p := range model.Protocols {
				near(t, "share of "+p.String(), byProtocol[p]/rw, 1.0/3, rw)
			}
			if w.hotFrac > 0 {
				// A uniform draw lands in the hot set too, and duplicates are
				// redrawn, so the share is a little off hotFrac itself.
				total := accesses + ro*float64(w.roSize)
				if got := hot / total; got < w.hotFrac-0.05 || got > w.hotFrac+0.05 {
					t.Errorf("hot-set share = %.3f, want about %.2f", got, w.hotFrac)
				}
			}
		})
	}
}

func TestTxnIDRoundRobin(t *testing.T) {
	seen := map[model.TxnID]bool{}
	for k := uint64(0); k < 300; k++ {
		id := txnID(k)
		if id.Site != model.SiteID(k%numSites) || id.Seq != k+1 {
			t.Fatalf("txnID(%d) = %v", k, id)
		}
		if seen[id] {
			t.Fatalf("txnID(%d) = %v repeats", k, id)
		}
		seen[id] = true
	}
}
