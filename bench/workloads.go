package main

import (
	"math/rand"

	"ucc/internal/model"
)

// Cluster constants shared by every workload. They are cmd/uccnode's flag
// defaults (see README.md), so the benchmark measures the shipped
// configuration.
const (
	numSites     = 3
	numItems     = 4096
	initialValue = 100
	// poolSize is the number of pre-generated transaction shapes;
	// transaction k uses shape k mod poolSize.
	poolSize = 131072
)

// workload describes one traffic mix and the deployment it runs on.
type workload struct {
	name string
	why  string
	// durable selects the replicated deployment: 3 copies per item, quorum
	// N3/W2/R2, a WAL per site on MemMedia and log-shipping catch-up. The
	// other workloads run 1 volatile copy per item.
	durable bool
	// size is the number of items a read-write transaction accesses;
	// readFrac the probability that an access is a read.
	size     int
	readFrac float64
	// hotFrac of the accesses fall uniformly in items [0, hotItems).
	hotFrac  float64
	hotItems int
	// roShare of the transactions are ROSnapshot reading roSize items.
	roShare float64
	roSize  int
	// slots is the closed-loop client count of the saturation phase.
	slots int
}

// workloads lists the benchmark's workloads in run order. BENCHMARK.json
// repeats the names and reasons; TestBenchmarkJSONMatches keeps them equal.
var workloads = []workload{
	{
		name: "uniform_rw",
		why:  "mixed 2PL/T-O/PA with almost no conflicts: message handling in engine, transport, wire and the ri/qm fast paths is the cost",
		size: 4, readFrac: 0.5, slots: 16,
	},
	{
		name: "hotspot_rw",
		why:  "80% of accesses hit 64 hot items: qm rejects, back-offs and revokes and ri restart back-off run about 5x more often",
		size: 2, readFrac: 0.5, hotFrac: 0.8, hotItems: 64, slots: 16,
	},
	{
		name: "snapshot_read",
		why:  "90% read-only snapshot transactions of 8 items: storage.ReadAt, the qm queue bypass and ri scatter/gather, more and smaller messages",
		size: 8, readFrac: 0.5, roShare: 0.9, roSize: 8, slots: 16,
	},
	{
		name:    "durable_quorum",
		why:     "3 copies, quorum W2/R2, WAL sync before every grant, log-shipping catch-up: wal, the commit sequencer and repl do the work, CPU is idle",
		durable: true, size: 4, readFrac: 0.2, slots: 16,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// shape is one pre-generated transaction: its protocol and its read and
// write sets as sorted, disjoint sub-slices of the pool's item array.
type shape struct {
	protocol model.Protocol
	reads    []model.ItemID
	writes   []model.ItemID
}

// shapePool is the benchmark's whole input: a fixed sequence of shapes drawn
// from one seeded source. The program under test sees nothing else.
type shapePool struct {
	shapes []shape
	items  []model.ItemID // backing array of every read and write set
}

// newShapePool draws n shapes for w from seed. The same (w, seed, n) gives
// the same pool.
func newShapePool(w workload, seed int64, n int) *shapePool {
	rng := rand.New(rand.NewSource(seed))
	maxSize := w.size
	if w.roSize > maxSize {
		maxSize = w.roSize
	}
	p := &shapePool{
		shapes: make([]shape, n),
		items:  make([]model.ItemID, 0, n*maxSize),
	}
	picked := make([]model.ItemID, 0, maxSize)
	isRead := make([]bool, 0, maxSize)
	for i := range p.shapes {
		size, readFrac := w.size, w.readFrac
		protocol := model.Protocols[rng.Intn(len(model.Protocols))]
		if w.roShare > 0 && rng.Float64() < w.roShare {
			protocol, size, readFrac = model.ROSnapshot, w.roSize, 1
		}
		picked, isRead = picked[:0], isRead[:0]
		for len(picked) < size {
			item := model.ItemID(rng.Intn(numItems))
			if w.hotFrac > 0 && rng.Float64() < w.hotFrac {
				item = model.ItemID(rng.Intn(w.hotItems))
			}
			if containsItem(picked, item) {
				continue
			}
			picked = append(picked, item)
			isRead = append(isRead, readFrac >= 1 || rng.Float64() < readFrac)
		}
		start := len(p.items)
		for j, item := range picked {
			if isRead[j] {
				p.items = append(p.items, item)
			}
		}
		mid := len(p.items)
		for j, item := range picked {
			if !isRead[j] {
				p.items = append(p.items, item)
			}
		}
		sh := shape{
			protocol: protocol,
			reads:    p.items[start:mid:mid],
			writes:   p.items[mid:len(p.items):len(p.items)],
		}
		sortItems(sh.reads)
		sortItems(sh.writes)
		p.shapes[i] = sh
	}
	return p
}

func containsItem(items []model.ItemID, item model.ItemID) bool {
	for _, it := range items {
		if it == item {
			return true
		}
	}
	return false
}

// sortItems is an insertion sort: the sets hold at most 8 items, and it
// allocates nothing, which keeps set-up time steady.
func sortItems(items []model.ItemID) {
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && items[j] < items[j-1]; j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
}

// txnID is the identifier of the k-th submitted transaction: issuing sites
// round-robin and sequence numbers are unique across the run.
func txnID(k uint64) model.TxnID {
	return model.TxnID{Site: model.SiteID(k % numSites), Seq: k + 1}
}
