// Command uccclient drives a live uccnode cluster: it hosts the workload
// drivers and the metrics collector, submits transactions to every site's
// request issuer over TCP for the requested duration, then prints the
// per-protocol summary (mean system time S, restarts, back-offs, messages).
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"ucc/internal/engine"
	"ucc/internal/metrics"
	"ucc/internal/model"
	"ucc/internal/transport"
	"ucc/internal/workload"
)

// The flags live at package level so TestFlagsUnchanged can read them.
var (
	sitesCSV = flag.String("peers", "", "comma-separated site TCP addresses, index = site id")
	listen   = flag.String("listen", ":7709", "TCP listen address for replies")
	rate     = flag.Float64("rate", 20, "arrival rate per site (txn/s)")
	duration = flag.Duration("duration", 5*time.Second, "workload duration")
	items    = flag.Int("items", 64, "number of logical items (must match uccnode)")
	size     = flag.Int("size", 4, "items per transaction")
	readFrac = flag.Float64("read-frac", 0.6, "fraction of accesses that are reads")
	mix      = flag.String("mix", "1,1,1", "protocol shares 2PL,T/O,PA[,RO-snapshot]")
	compute  = flag.Int64("compute-us", 1000, "local computing phase (µs)")
	sendCap  = flag.Int("send-queue-cap", 65536, "per-peer transport send-queue bound, drop-oldest beyond it (0 = unbounded)")
)

func main() {
	flag.Parse()

	peerList, err := parsePeerList(*sitesCSV)
	if err != nil {
		log.Fatalf("uccclient: %v", err)
	}
	shares, err := parseMix(*mix)
	if err != nil {
		log.Fatalf("uccclient: %v", err)
	}
	topo := clientTopology(peerList, *listen)

	rt := engine.NewRuntime(engine.FixedLatency{}, 42)
	collector := metrics.NewCollector(metrics.CollectorOptions{})
	rt.Register(engine.CollectorAddr(), collector)

	horizon := rt.NowMicros() + duration.Microseconds()
	for i := range peerList {
		site := model.SiteID(i)
		d, err := workload.NewDriver(site, workload.Spec{
			ArrivalPerSec: *rate,
			HorizonMicros: horizon,
			Items:         *items,
			Size:          *size,
			ReadFrac:      *readFrac,
			Share2PL:      shares[0],
			ShareTO:       shares[1],
			SharePA:       shares[2],
			ShareRO:       shares[3],
			ComputeMicros: *compute,
		})
		if err != nil {
			log.Fatalf("uccclient: %v", err)
		}
		rt.Register(engine.DriverAddr(site), d)
	}

	node, err := transport.NewNode(rt, "client", *listen, topo)
	if err != nil {
		log.Fatalf("uccclient: %v", err)
	}
	// The client's outboxes melt just like a node's when a site dies mid-run
	// (the writer blocks in a 3s dial while the drivers keep producing).
	node.SetSendQueueCap(*sendCap)
	log.Printf("uccclient: driving %d sites at %.0f txn/s/site for %s", len(peerList), *rate, *duration)
	for i := range peerList {
		rt.Post(engine.Envelope{
			From: engine.DriverAddr(model.SiteID(i)),
			To:   engine.DriverAddr(model.SiteID(i)),
			Msg:  model.TickMsg{},
		})
	}

	// Let the workload run, then allow in-flight transactions to settle.
	time.Sleep(*duration + 2*time.Second)

	sum := collector.Summarize()
	table := metrics.Table{Header: []string{
		"protocol", "commits", "S mean (ms)", "S p95 (ms)", "restarts", "victims", "msgs/commit",
	}}
	// Member protocols plus the read-only snapshot class (its row is all
	// zeros when the mix has no fourth share).
	for _, p := range append(append([]model.Protocol{}, model.Protocols...), model.ROSnapshot) {
		ps := sum.Protocols[p]
		if p == model.ROSnapshot && ps.Committed == 0 {
			continue
		}
		table.AddRow(p.String(),
			fmt.Sprint(ps.Committed),
			metrics.F(ps.SystemTime.Mean()/1000),
			metrics.F(ps.SystemTimeH.Quantile(0.95)/1000),
			fmt.Sprint(ps.Rejected),
			fmt.Sprint(ps.Victims),
			metrics.F(ps.Messages.Mean()))
	}
	fmt.Println()
	fmt.Print(table.String())
	fmt.Printf("\ntotal committed: %d, throughput: %.1f txn/s\n",
		sum.TotalCommitted(), sum.Throughput())
	if shed, busy := sum.TotalShed(), sum.TotalBusy(); shed+busy > 0 {
		fmt.Printf("overload: %d arrivals shed by admission control, %d attempts busy-NAK'd\n", shed, busy)
	}

	node.Close()
	rt.Shutdown()
}
