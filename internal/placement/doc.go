// Package placement builds and evolves the cluster's versioned partition map
// (model.PartitionMap): which sites hold copies of which items, and how that
// assignment changes while the cluster runs.
//
// The package splits into two halves:
//
//   - Builders construct epoch-0 maps from a Policy (round-robin, contiguous
//     ranges, or hashed) — the startup placement cluster.NewSim seeds stores
//     and queue managers from. Build is the only constructor of a map.
//
//   - Planners derive epoch N+1 from an installed map: PlanMove re-homes an
//     explicit item set onto a destination site, PlanAdd carves an even share
//     out for a joining site, PlanDrain evacuates a leaving site onto the
//     survivors, and PlanHotMoves picks the hottest items from observed grant
//     counts. Planners are pure — they clone, edit, bump the epoch, and
//     return; distributing the result (MapInstallMsg/MapUpdateMsg) and
//     driving the fills of gained copies is the cluster/qm layer's job.
//
// Every function here is deterministic: same inputs, same map, which is what
// keeps rebalance scenarios seed-stable in the virtual-time simulator.
package placement
