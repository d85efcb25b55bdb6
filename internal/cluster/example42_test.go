package cluster

import (
	"testing"

	"ucc/internal/deploy"
	"ucc/internal/engine"
	"ucc/internal/model"
)

// TestPaperSection42Example reproduces the paper's §4.2 counterexample: with
// T/O transactions t1, t2 and 2PL transaction t3 over items x, y, z
//
//	t1: r1(x) w1(y)    t2: r2(y) w2(z)    t3: r3(z) w3(x)
//
// naive per-protocol enforcement can order r1<w3, r2<w1, r3<w2 in the three
// queues — a non-serializable 3-cycle. The semi-lock protocol must prevent
// it (T/O reads hold SRLs that block the 2PL write until release). We run
// the triangle many times under randomized timing and check Theorem 2 every
// time.
func TestPaperSection42Example(t *testing.T) {
	const x, y, z = model.ItemID(0), model.ItemID(1), model.ItemID(2)
	for seed := int64(1); seed <= 40; seed++ {
		cfg := Config{Config: deploy.Config{Sites: 3, Items: 3}, Seed: seed, Record: true}
		cl, err := NewSim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mk := func(site model.SiteID, seq uint64, p model.Protocol, r, w model.ItemID) *model.Txn {
			return model.NewTxn(model.TxnID{Site: site, Seq: seq}, p,
				[]model.ItemID{r}, []model.ItemID{w}, 300)
		}
		// Stagger the three submissions pseudo-randomly so different seeds
		// explore different interleavings.
		cl.Start()
		cl.Eng.PostAfter((seed*37)%900, riAddrOf(0), model.SubmitTxnMsg{Txn: mk(0, 1, model.TO, x, y)})
		cl.Eng.PostAfter((seed*61)%900, riAddrOf(1), model.SubmitTxnMsg{Txn: mk(1, 1, model.TO, y, z)})
		cl.Eng.PostAfter((seed*89)%900, riAddrOf(2), model.SubmitTxnMsg{Txn: mk(2, 1, model.TwoPL, z, x)})
		res := cl.Run(0, 3_000_000)
		if res.Serializability == nil || !res.Serializability.Serializable {
			t.Fatalf("seed %d: §4.2 example produced a cycle: %v",
				seed, res.Serializability.Cycle)
		}
		if got := res.Summary.TotalCommitted(); got != 3 {
			t.Fatalf("seed %d: committed %d/3", seed, got)
		}
	}
}

func riAddrOf(s model.SiteID) engine.Addr { return engine.RIAddr(s) }
