package placement

import (
	"fmt"
	"sort"

	"ucc/internal/model"
)

// Policy names an epoch-0 placement strategy.
type Policy string

const (
	// RoundRobin places item i's r-th copy at sites[(i+r) mod len(sites)];
	// the default.
	RoundRobin Policy = "round-robin"
	// Range places items in contiguous equal ranges, one range per site,
	// with additional copies at the following sites (wrapping).
	Range Policy = "range"
	// Hash places item i's primary at sites[fnv(i) mod len(sites)], copies
	// at the following sites (wrapping).
	Hash Policy = "hash"
)

// ParsePolicy maps a config string to a Policy; empty selects RoundRobin.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case "":
		return RoundRobin, nil
	case RoundRobin, Range, Hash:
		return Policy(s), nil
	default:
		return "", fmt.Errorf("placement: unknown policy %q (want round-robin, range, or hash)", s)
	}
}

// Validate rejects unknown policies (empty is allowed and means RoundRobin —
// mirrors how other optional config knobs default).
func (p Policy) Validate() error {
	_, err := ParsePolicy(string(p))
	return err
}

// fnv32 is FNV-1a over the item id's four little-endian bytes.
func fnv32(item model.ItemID) uint32 {
	h := uint32(2166136261)
	v := uint32(item)
	for i := 0; i < 4; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= 16777619
	}
	return h
}

// Build constructs the epoch-0 partition map: items copies over sites under
// policy, replicas copies per item (clamped to [1, len(sites)]). Panics on
// an empty site list or unknown policy — callers validate config first.
func Build(policy Policy, items int, sites []model.SiteID, replicas int) *model.PartitionMap {
	if len(sites) == 0 {
		panic("placement: no sites")
	}
	if replicas < 1 {
		replicas = 1
	}
	if replicas > len(sites) {
		replicas = len(sites)
	}
	pm := &model.PartitionMap{Assignments: make([][]model.SiteID, items)}
	for i := 0; i < items; i++ {
		var base int
		switch policy {
		case RoundRobin, "":
			base = i
		case Range:
			// Contiguous ranges, first (items mod sites) ranges one larger —
			// the usual balanced split.
			n := len(sites)
			per, extra := items/n, items%n
			acc := 0
			for s := 0; s < n; s++ {
				size := per
				if s < extra {
					size++
				}
				if i < acc+size {
					base = s
					break
				}
				acc += size
			}
		case Hash:
			base = int(fnv32(model.ItemID(i)) % uint32(len(sites)))
		default:
			panic(fmt.Sprintf("placement: unknown policy %q", policy))
		}
		reps := make([]model.SiteID, replicas)
		for r := 0; r < replicas; r++ {
			reps[r] = sites[(base+r)%len(sites)]
		}
		pm.Assignments[i] = reps
	}
	return pm
}

// activeSites returns the ascending sites owning at least one copy in pm.
func activeSites(pm *model.PartitionMap) []model.SiteID { return pm.Sites() }

// PlanMove returns epoch N+1 with every item in items re-homed so dst is its
// primary. The new assignment is dst followed by the old copy list minus dst,
// truncated to the old copy count — so per-item replication degree is
// preserved and (unless dst already held a copy) the last old copy is the one
// given up. Items already primaried at dst are untouched. Errors on an item
// outside the map.
func PlanMove(cur *model.PartitionMap, items []model.ItemID, dst model.SiteID) (*model.PartitionMap, error) {
	next := cur.Clone()
	next.Epoch = cur.Epoch + 1
	for _, it := range items {
		if int(it) < 0 || int(it) >= len(next.Assignments) {
			return nil, fmt.Errorf("placement: move of item %d outside map (%d items)", it, len(next.Assignments))
		}
		old := next.Assignments[it]
		if old[0] == dst {
			continue
		}
		reps := make([]model.SiteID, 0, len(old))
		reps = append(reps, dst)
		for _, s := range old {
			if s != dst && len(reps) < len(old) {
				reps = append(reps, s)
			}
		}
		next.Assignments[it] = reps
	}
	return next, nil
}

// PlanAdd returns epoch N+1 with site owning an even share of primaries: the
// items whose id ≡ (active) mod (active+1), where active is the count of
// sites currently owning copies. A site already active is a no-op plan (epoch
// still bumps — publishing it is harmless but callers usually check first).
func PlanAdd(cur *model.PartitionMap, site model.SiteID) (*model.PartitionMap, error) {
	act := activeSites(cur)
	for _, s := range act {
		if s == site {
			// Already active: nothing to carve out.
			next := cur.Clone()
			next.Epoch = cur.Epoch + 1
			return next, nil
		}
	}
	n := len(act) + 1
	var move []model.ItemID
	for i := 0; i < cur.Items(); i++ {
		if i%n == n-1 {
			move = append(move, model.ItemID(i))
		}
	}
	return PlanMove(cur, move, site)
}

// PlanDrain returns epoch N+1 with site evacuated: every copy it holds is
// re-assigned to a remaining active site not already holding that item,
// chosen round-robin for balance. Primaries it held promote the next copy
// and append the replacement at the tail. Errors when no site can take a
// copy (replication degree equals the surviving site count... minus none).
func PlanDrain(cur *model.PartitionMap, site model.SiteID) (*model.PartitionMap, error) {
	next := cur.Clone()
	next.Epoch = cur.Epoch + 1
	var survivors []model.SiteID
	for _, s := range activeSites(cur) {
		if s != site {
			survivors = append(survivors, s)
		}
	}
	if len(survivors) == 0 {
		return nil, fmt.Errorf("placement: cannot drain site %d — it is the only active site", site)
	}
	rr := 0
	for i, old := range next.Assignments {
		idx := -1
		for j, s := range old {
			if s == site {
				idx = j
				break
			}
		}
		if idx < 0 {
			continue
		}
		// Drop the draining site (promoting the next copy when it was
		// primary), then append a replacement survivor for the lost copy.
		reps := make([]model.SiteID, 0, len(old))
		for _, s := range old {
			if s != site {
				reps = append(reps, s)
			}
		}
		replaced := false
		for tries := 0; tries < len(survivors); tries++ {
			cand := survivors[rr%len(survivors)]
			rr++
			dup := false
			for _, s := range reps {
				if s == cand {
					dup = true
					break
				}
			}
			if !dup {
				reps = append(reps, cand)
				replaced = true
				break
			}
		}
		if !replaced {
			return nil, fmt.Errorf("placement: cannot drain site %d — item %d needs %d copies but only %d other sites exist", site, i, len(old), len(survivors))
		}
		next.Assignments[i] = reps
	}
	return next, nil
}

// PlanHotMoves picks the hottest ceil(frac·items) items by observed grant
// count (ties by ascending item id) together with the least-loaded
// destination site — fewest copies in cur, ties by lowest id. The returned
// item list feeds PlanMove; empty when counts are empty or frac ≤ 0.
func PlanHotMoves(counts map[model.ItemID]uint64, cur *model.PartitionMap, frac float64) (items []model.ItemID, dst model.SiteID) {
	act := activeSites(cur)
	if len(counts) == 0 || frac <= 0 || len(act) == 0 {
		return nil, -1
	}
	type hot struct {
		item  model.ItemID
		count uint64
	}
	hs := make([]hot, 0, len(counts))
	for it, c := range counts {
		hs = append(hs, hot{it, c})
	}
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].count != hs[j].count {
			return hs[i].count > hs[j].count
		}
		return hs[i].item < hs[j].item
	})
	n := int(frac*float64(cur.Items()) + 0.999999)
	if n < 1 {
		n = 1
	}
	if n > len(hs) {
		n = len(hs)
	}
	for _, h := range hs[:n] {
		items = append(items, h.item)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })

	load := map[model.SiteID]int{}
	for _, s := range act {
		load[s] = 0
	}
	for _, reps := range cur.Assignments {
		for _, s := range reps {
			load[s]++
		}
	}
	dst = act[0]
	for _, s := range act[1:] {
		if load[s] < load[dst] {
			dst = s
		}
	}
	return items, dst
}
