// Package deploy assembles the sites of the system, once, for both hosts:
// the virtual-time simulator (internal/cluster, and through it the ucc
// facade, experiments and scenarios) and the real-time runtime behind a TCP
// transport node (cmd/uccnode, one process per site).
//
// A site, as in the paper, both holds data and issues transactions: a
// multi-version store with the site's copies; with Durability, a
// write-ahead log (files under Dir/site<N>, or in-memory media for the
// simulator's crash injection); a queue manager, registered once per
// shard; with Quorum, the catch-up puller; and a request issuer. Site 0
// also hosts the one deadlock detector. The metrics collector and the
// workload drivers belong to the host: the simulator runs them beside the
// sites, and over TCP they live in cmd/uccclient.
//
// Config.Validate is the one place the configuration rules live. Site
// builds one site and hands its actors to the host's register function;
// Start posts the first tick of each periodic chain — detector probes, the
// host's own periodic actors, queue-manager stats pushes, catch-up pulls —
// in an order seeded simulator runs depend on; Publish broadcasts a new
// partition-map epoch, queue managers before issuers.
package deploy
