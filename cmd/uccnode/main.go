// Command uccnode runs one data/user site of the distributed system as a
// real process: the site's queue manager (with its storage partition), its
// request issuer, and — on site 0 — the deadlock-detection coordinator. The
// metrics collector and workload drivers live in cmd/uccclient.
//
// The site is assembled by internal/deploy, the same code that builds every
// simulated site: the flags become a deploy.Config, validated by the same
// rules as the simulator's, and deploy.Site wires it onto a real-time
// engine.Runtime. What is uccnode's own is the flag parsing, the TCP
// transport node and the shutdown log.
//
// Example 3-site cluster on one machine:
//
//	uccnode -site 0 -sites 3 -listen :7700 -peers :7700,:7701,:7702 &
//	uccnode -site 1 -sites 3 -listen :7701 -peers :7700,:7701,:7702 &
//	uccnode -site 2 -sites 3 -listen :7702 -peers :7700,:7701,:7702 &
//	uccclient -peers :7700,:7701,:7702 -listen :7709 -rate 50 -duration 5s
//
// Every process must agree on -sites/-items/-replicas/-shards (they derive
// the same static catalog and the same item→shard routing).
//
// With -data-dir the site journals every committed write to a file-backed
// write-ahead log (group-committed) and snapshots its partition; after a
// crash — `kill -9` included — restarting with the same -data-dir rebuilds
// the partition from snapshot + log replay instead of reinitializing it.
//
// Overload defense defaults ON for a real node: mailboxes, per-item data
// queues, and per-peer send queues are all bounded (-mailbox-depth,
// -queue-depth, -send-queue-cap), requests past a bound are NAK'd busy
// rather than queued, and the issuer's admission controller (-admission,
// -admission-window, -admission-rate, -admission-target-ms) sheds arrivals
// beyond capacity so goodput plateaus instead of the node melting. Restart
// delays back off exponentially to -restart-delay-cap-us.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ucc/internal/deploy"
	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/placement"
	"ucc/internal/transport"
)

func main() {
	f := defineFlags(flag.CommandLine)
	flag.Parse()

	cfg, err := f.config()
	if err != nil {
		log.Fatalf("uccnode: %v", err)
	}
	peerList, err := parsePeers(f.peers, cfg.Sites)
	if err != nil {
		log.Fatalf("uccnode: %v", err)
	}

	// Build this site's slice of the system. A runtime send is a mailbox push
	// or a hand-off to the transport: the only latency is the network's.
	self := model.SiteID(f.site)
	rt := engine.NewRuntime(engine.FixedLatency{}, int64(self)+1)
	// Bound every mailbox registered below: new-work requests beyond the
	// bound are NAK'd busy rather than queued without limit.
	rt.SetMailboxDepth(f.mailboxDepth)
	pmap := cfg.InitialMap()
	site, err := deploy.Site(cfg, self, pmap, nil, nil, rt.Register)
	if err != nil {
		log.Fatalf("uccnode: %v", err)
	}
	if site.WAL != nil {
		if st := site.WAL.Stats(); st.Recoveries > 0 {
			log.Printf("uccnode: site %d recovered %d copies from snapshot, replayed %d WAL records",
				self, st.RecoveredCopies, st.Replayed)
		} else {
			log.Printf("uccnode: site %d initialized fresh durable partition", self)
		}
	}

	// The node installs the runtime's uplink, so it is up before any tick is
	// posted: the detector's first probe round and the first catch-up pull go
	// to other sites.
	node, err := transport.NewNode(rt, fmt.Sprintf("site%d", self), f.listen, transport.StandardTopology(peerList, f.client))
	if err != nil {
		log.Fatalf("uccnode: %v", err)
	}
	node.SetSendQueueCap(f.sendCap)
	deploy.Start(cfg, []model.SiteID{self}, func(to engine.Addr, m model.Message) {
		rt.Post(engine.Envelope{From: to, To: to, Msg: m})
	})
	log.Printf("uccnode: site %d up on %s (%d items stored, %d sites, %d replicas, placement=%s, %d qm shards, durability=%v, admission=%v)",
		self, node.Addr(), site.Store.Len(), cfg.Sites, cfg.Replicas, cfg.Placement, site.Manager.NumShards(), site.WAL != nil, cfg.RI.Admission.Enabled)

	if f.moveAfter > 0 {
		moved, err := parseItems(f.moveItems)
		if err != nil {
			log.Fatalf("uccnode: -move-items: %v", err)
		}
		if len(moved) == 0 || f.moveTo < 0 || f.moveTo >= cfg.Sites {
			log.Fatalf("uccnode: -move-after requires -move-items and a -move-to in [0,%d)", cfg.Sites)
		}
		next, err := placement.PlanMove(pmap, moved, model.SiteID(f.moveTo))
		if err != nil {
			log.Fatalf("uccnode: plan move: %v", err)
		}
		time.AfterFunc(f.moveAfter, func() {
			log.Printf("uccnode: site %d publishing epoch %d: %d items -> site %d", self, next.Epoch, len(moved), f.moveTo)
			deploy.Publish(cfg, next, func(to engine.Addr, m model.Message) {
				rt.Post(engine.Envelope{From: engine.QMAddr(self), To: to, Msg: m})
			})
		})
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("uccnode: site %d shutting down", self)
	mgr, siteLog := site.Manager, site.WAL
	ovf, mbHigh := rt.MailboxStats()
	dropped, sqHigh := node.QueueStats()
	st := site.Issuer.Snapshot()
	log.Printf("uccnode: site %d backpressure: mailbox NAKs=%d high=%d, send-queue drops=%d high=%d, shed=%d, busy NAKs=%d",
		self, ovf, mbHigh, dropped, sqHigh, st.Shed, st.BusyNAKs)
	ws := node.Wire().Snapshot()
	log.Printf("uccnode: site %d wire: out %d msgs/%d B (%.1f B/msg), in %d msgs/%d B (%.1f B/msg), conns out=%d",
		self, ws.MsgsOut, ws.BytesOut, ws.BytesPerMsgOut(), ws.MsgsIn, ws.BytesIn, ws.BytesPerMsgIn(), ws.ConnsOut)
	qc := mgr.Snapshot()
	if cfg.CatchUp() {
		log.Printf("uccnode: site %d repl: pulls served=%d, applied=%d, dup-skipped=%d, snapshot resets=%d, watermarks=%v",
			self, qc.ReplPulls, qc.ReplApplied, qc.ReplSkipped, qc.ReplResets, mgr.ReplWatermarks())
	}
	log.Printf("uccnode: site %d placement: epoch=%d, map installs=%d, items gained=%d, wrong-epoch NAKs sent=%d, fill pulls served=%d, fill records applied=%d, fill bytes received=%d; issuer wrong-epoch NAKs=%d, map updates=%d",
		self, mgr.CurrentMap().Epoch, qc.MapInstalls, qc.ItemsGained, qc.WrongEpoch,
		qc.TransferPulls, qc.TransferApplied, qc.TransferBytes, st.WrongEpochNAKs, st.MapUpdates)
	node.Close()
	rt.Shutdown()
	if siteLog != nil {
		// Final sync so a graceful shutdown loses nothing (an unclean one
		// falls back to snapshot + synced log prefix).
		if err := siteLog.Flush(); err != nil {
			log.Printf("uccnode: final wal flush: %v", err)
		}
		ws := siteLog.Stats()
		log.Printf("uccnode: site %d wal: appends=%d, syncs=%d (%.1f appends/sync), snapshots=%d",
			self, ws.Appends, ws.Syncs, float64(ws.Appends)/float64(max(ws.Syncs, 1)), ws.Snapshots)
	}
}
