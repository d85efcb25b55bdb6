package ri

import (
	"slices"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/history"
	"ucc/internal/model"
	"ucc/internal/placement"
)

// quorumIssuer builds an issuer over a 3-site, fully-replicated catalog in
// N=3/W=2/R=2 quorum mode.
func quorumIssuer() (*Issuer, *fakeCtx) {
	return quorumIssuerAt(0, model.Quorum{N: 3, W: 2, R: 2})
}

// quorumIssuerAt is quorumIssuer for an issuer at site with quorum q. Its
// 100 µs RestartDelayMicros is also the hedge window.
func quorumIssuerAt(site model.SiteID, q model.Quorum) (*Issuer, *fakeCtx) {
	pm := placement.Build(placement.RoundRobin, 8, []model.SiteID{0, 1, 2}, 3)
	iss := New(site, pm, history.NewRecorder(), Options{
		PAIntervalMicros:     10,
		RestartDelayMicros:   100,
		DefaultComputeMicros: 50,
		Quorum:               &q,
	}, nil)
	return iss, newCtx()
}

func grantAll(iss *Issuer, c *fakeCtx, reqs []model.RequestMsg) {
	for _, r := range reqs {
		lock := model.RL
		if r.Kind == model.OpWrite {
			lock = model.WL
		}
		grant(iss, c, r, lock, false)
	}
}

// timersOf counts the pending timers of type M.
func timersOf[M model.Message](c *fakeCtx) int {
	n := 0
	for _, e := range c.timers {
		if _, ok := e.Msg.(M); ok {
			n++
		}
	}
	return n
}

// sweepAt moves the clock to now and fires the pending timers, the hedge
// sweep among them; a compute timer fires too, so sweep only attempts that
// are still waiting for grants.
func sweepAt(iss *Issuer, c *fakeCtx, now int64) {
	c.now = now
	fireTimers(iss, c)
}

// copiesByItem groups requested copies by item, sites in request order.
func copiesByItem(reqs []model.RequestMsg) map[model.ItemID][]model.SiteID {
	out := map[model.ItemID][]model.SiteID{}
	for _, r := range reqs {
		out[r.Copy.Item] = append(out[r.Copy.Item], r.Copy.Site)
	}
	return out
}

// nakBusy delivers a busy NAK for request r.
func nakBusy(iss *Issuer, c *fakeCtx, r model.RequestMsg) {
	deliver(iss, c, engine.QMAddr(r.Copy.Site), model.BusyMsg{Txn: r.Txn, Attempt: r.Attempt, Copy: r.Copy})
}

// TestQuorumReadFansToAllReplicas: a quorum read is not a primary read. A
// first attempt at site 1 reads item 0 (primary site 0) at R copies, its own
// and the next one, site 2, leaving the primary out; a hedge reads the
// remaining copy in the same attempt, so every replica is asked — where
// write-all mode reads the primary alone.
func TestQuorumReadFansToAllReplicas(t *testing.T) {
	iss, c := quorumIssuerAt(1, model.Quorum{N: 3, W: 2, R: 2})
	submit(iss, c, model.TwoPL, []model.ItemID{0}, []model.ItemID{1})
	reqs := take[model.RequestMsg](c)
	byItem := copiesByItem(reqs)
	if got := byItem[0]; !slices.Equal(got, []model.SiteID{1, 2}) {
		t.Fatalf("item 0 (primary site 0) read at %v, want R=2 copies at sites 1 and 2", got)
	}
	if got := byItem[1]; !slices.Equal(got, []model.SiteID{1, 2}) {
		t.Fatalf("item 1 written at %v, want W=2 copies at sites 1 and 2", got)
	}
	sweepAt(iss, c, 100) // nothing granted: the sweep hedges the spares
	hedged := take[model.RequestMsg](c)
	for _, r := range hedged {
		byItem[r.Copy.Item] = append(byItem[r.Copy.Item], r.Copy.Site)
		if r.Attempt != 0 {
			t.Fatalf("hedge %+v left attempt 0", r)
		}
	}
	for item, sites := range byItem {
		if len(sites) != 3 {
			t.Fatalf("item %d asked at %v after the hedge, want every replica", item, sites)
		}
	}
}

// TestQuorumCommitsOnWGrants: W grants per item are enough. A thrifty
// attempt asks exactly W copies and commits on their grants, and its held
// spare is never asked, released or withdrawn. With no hedge window
// (RestartDelayMicros 0) every copy is asked at once; the straggler copy
// never answers, the transaction still commits, and release withdraws the
// straggler with an abort (it converges via log shipping, not via a write
// it did not accept).
func TestQuorumCommitsOnWGrants(t *testing.T) {
	for _, tc := range []struct {
		name     string
		delay    int64
		requests int
	}{{"thrifty", 100, 2}, {"no hedge window", 0, 3}} {
		t.Run(tc.name, func(t *testing.T) {
			iss, c := quorumIssuer()
			iss.opts.RestartDelayMicros = tc.delay
			submit(iss, c, model.TwoPL, nil, []model.ItemID{1})
			reqs := take[model.RequestMsg](c)
			if len(reqs) != tc.requests {
				t.Fatalf("requests = %d want %d", len(reqs), tc.requests)
			}
			grantAll(iss, c, reqs[:2]) // the first two copies grant; a third stays silent
			fireTimers(iss, c)         // compute done
			rels := take[model.ReleaseMsg](c)
			if len(rels) != 2 {
				t.Fatalf("releases = %d want 2 (granted copies only)", len(rels))
			}
			aborts := take[model.AbortMsg](c)
			if tc.requests == 2 && len(aborts) != 0 {
				t.Fatalf("aborts = %+v, want none: the spare was never asked", aborts)
			}
			if tc.requests == 3 && (len(aborts) != 1 || aborts[0].Copy != reqs[2].Copy) {
				t.Fatalf("aborts = %+v, want exactly the silent straggler withdrawn", aborts)
			}
			dones := take[model.TxnDoneMsg](c)
			if len(dones) != 1 || dones[0].Outcome != model.OutcomeCommitted {
				t.Fatalf("done = %+v", dones)
			}
			if s := iss.Snapshot(); s.Active != 0 || s.Committed != 1 || s.QuorumHedged != 0 {
				t.Fatalf("stats = %+v", s)
			}
		})
	}
}

// TestQuorumGrantNAKRaceEitherOrder is the ordering race the quorum gate
// must absorb: the W-th ack and a busy NAK from the remaining copy arrive in
// both orders. Item 2's copy at site 1 is chosen but silent, so the sweep
// hedges in the spare at site 2; then site 2's grant (the W-th ack) and
// site 1's busy NAK race. Either way the attempt commits without a restart
// and the straggler copy is withdrawn with exactly one abort — immediately
// when the NAK lands first, at release time when the W-th ack already moved
// the attempt into compute (a NAK for an attempt past its commit gate is
// moot).
func TestQuorumGrantNAKRaceEitherOrder(t *testing.T) {
	for _, order := range []string{"grants-then-nak", "nak-then-grants"} {
		t.Run(order, func(t *testing.T) {
			iss, c := quorumIssuer()
			submit(iss, c, model.TwoPL, nil, []model.ItemID{2})
			reqs := take[model.RequestMsg](c)
			if len(reqs) != 2 || reqs[0].Copy.Site != 0 || reqs[1].Copy.Site != 1 {
				t.Fatalf("requests = %+v, want sites 0 and 1", reqs)
			}
			grantAll(iss, c, reqs[:1])
			sweepAt(iss, c, 100)
			spare := take[model.RequestMsg](c)
			if len(spare) != 1 || spare[0].Copy.Site != 2 {
				t.Fatalf("hedge = %+v, want the spare at site 2", spare)
			}
			straggler := reqs[1]
			if order == "grants-then-nak" {
				grantAll(iss, c, spare)
				nakBusy(iss, c, straggler)
			} else {
				nakBusy(iss, c, straggler)
				grantAll(iss, c, spare)
			}
			preRelease := take[model.AbortMsg](c)
			fireTimers(iss, c) // compute done
			atRelease := take[model.AbortMsg](c)
			if got := len(preRelease) + len(atRelease); got != 1 {
				t.Fatalf("aborts = %d (%+v / %+v), want exactly one withdrawal",
					got, preRelease, atRelease)
			}
			all := append(preRelease, atRelease...)
			if all[0].Copy != straggler.Copy {
				t.Fatalf("withdrew %+v, want the NAK'd copy %+v", all[0].Copy, straggler.Copy)
			}
			if rels := take[model.ReleaseMsg](c); len(rels) != 2 {
				t.Fatalf("releases = %d want 2", len(rels))
			}
			dones := take[model.TxnDoneMsg](c)
			if len(dones) != 1 || dones[0].Outcome != model.OutcomeCommitted {
				t.Fatalf("done = %+v (quorum must absorb a single NAK, not restart)", dones)
			}
			s := iss.Snapshot()
			if s.Committed != 1 || s.ReBackoffs != 0 || s.QuorumHedged != 1 {
				t.Fatalf("stats = %+v, want 1 committed / 0 re-backoffs / 1 hedge", s)
			}
			if order == "nak-then-grants" {
				if s.BusyNAKs != 1 || s.QuorumExcluded != 1 {
					t.Fatalf("stats = %+v, want 1 NAK / 1 excluded", s)
				}
				// A duplicate NAK for the already-excluded copy is a no-op.
				nakBusy(iss, c, straggler)
				if aborts := take[model.AbortMsg](c); len(aborts) != 0 {
					t.Fatal("duplicate NAK re-aborted an excluded copy")
				}
			}
		})
	}
}

// TestQuorumBelowQuorumRestarts: losing enough copies that W is out of reach
// is overload, not progress — the attempt aborts everywhere, reports Busy,
// and schedules a backed-off restart. The first NAK hedges the spare in; the
// second leaves one reachable copy of three, so it excludes nothing: the
// attempt's own withdrawal is the only one its copy gets.
func TestQuorumBelowQuorumRestarts(t *testing.T) {
	iss, c := quorumIssuer()
	submit(iss, c, model.TwoPL, nil, []model.ItemID{3})
	reqs := take[model.RequestMsg](c)
	nakBusy(iss, c, reqs[0]) // one down: the spare replaces it (W=2 of the other 2) — absorbed
	if dones := take[model.TxnDoneMsg](c); len(dones) != 0 {
		t.Fatalf("first NAK already terminal: %+v", dones)
	}
	if spare := take[model.RequestMsg](c); len(spare) != 1 {
		t.Fatalf("first NAK hedged %+v, want the one spare", spare)
	}
	take[model.AbortMsg](c)
	nakBusy(iss, c, reqs[1]) // two down: W unreachable — overload path
	withdrawn := 0
	for _, a := range take[model.AbortMsg](c) {
		if a.Copy == reqs[1].Copy {
			withdrawn++
		}
	}
	if withdrawn != 1 {
		t.Fatalf("the NAK'd copy %+v was withdrawn %d times, want once", reqs[1].Copy, withdrawn)
	}
	dones := take[model.TxnDoneMsg](c)
	if len(dones) != 1 || dones[0].Outcome != model.OutcomeBusy {
		t.Fatalf("done = %+v, want Busy", dones)
	}
	if n := timersOf[*model.RestartMsg](c); n != 1 {
		t.Fatalf("restart timers = %d, want 1", n)
	}
	s := iss.Snapshot()
	if s.BusyNAKs != 2 || s.QuorumExcluded != 1 || s.QuorumHedged != 1 {
		t.Fatalf("stats = %+v", s)
	}
	// The retry relaunches against all three copies with a bumped attempt.
	fireTimers(iss, c)
	retry := take[model.RequestMsg](c)
	if len(retry) != 3 || retry[0].Attempt != 1 {
		t.Fatalf("retry = %+v", retry)
	}
}

// TestQuorumWritePicksHighestStampPreImage: when the granted W copies carry
// diverged pre-images (one is a laggard the catch-up plane has not reached
// yet), a read-modify-write must build on the newest stamp — the 2W>N
// overlap guarantees at least one granted copy holds the latest committed
// version.
func TestQuorumWritePicksHighestStampPreImage(t *testing.T) {
	iss, c := quorumIssuer()
	tx := model.NewTxn(model.TxnID{Site: 0, Seq: 5}, model.TwoPL, nil, []model.ItemID{5}, 50)
	tx.Specs = []model.WriteSpec{{Item: 5, UseSource: true, Source: 5, AddConst: 1}}
	iss.OnMessage(c, engine.DriverAddr(0), model.SubmitTxnMsg{Txn: tx})
	reqs := take[model.RequestMsg](c)
	if len(reqs) != 2 {
		t.Fatalf("fanout %d, want W=2", len(reqs))
	}
	// Grant both copies with diverged pre-images: the laggard (value 11,
	// stamp 100) and the fresh copy (value 77, stamp 900).
	stamps := []struct {
		value int64
		at    int64
	}{{11, 100}, {77, 900}}
	for i, r := range reqs {
		deliver(iss, c, engine.QMAddr(r.Copy.Site), model.GrantMsg{
			Txn: r.Txn, Attempt: r.Attempt, Copy: r.Copy,
			Lock: model.WL, TS: r.TS,
			Value: stamps[i].value, CommitMicros: stamps[i].at,
		})
	}
	fireTimers(iss, c) // compute done
	rels := take[model.ReleaseMsg](c)
	var wrote *int64
	for _, r := range rels {
		if r.HasWrite {
			v := r.Value
			wrote = &v
		}
	}
	if wrote == nil {
		t.Fatalf("no write release: %+v", rels)
	}
	if *wrote != 78 {
		t.Fatalf("wrote %d, want 78 (pre-image 77 from the highest-stamp grant, +1)", *wrote)
	}
}

// TestQuorumFirstAttemptAsksAQuorumLocalFirst: a first attempt requests
// exactly R copies of each read item and W of each written one — the
// issuer's own copy first when it holds one, then the copies after it in
// partition-map order, wrapping around. A restart requests every copy under
// W < N and the same copies again under W = N. Replicas of item i sit at
// sites i, i+1, i+2 (mod 3), so site 1 picks itself and site 2 for every
// item, primary or not.
func TestQuorumFirstAttemptAsksAQuorumLocalFirst(t *testing.T) {
	for _, tc := range []struct {
		name          string
		site          model.SiteID
		q             model.Quorum
		reads, writes []model.ItemID
		want          map[model.ItemID][]model.SiteID
	}{
		{"W2R2 at site 1", 1, model.Quorum{N: 3, W: 2, R: 2}, []model.ItemID{0}, []model.ItemID{2},
			map[model.ItemID][]model.SiteID{0: {1, 2}, 2: {1, 2}}},
		{"W3R1 at site 1", 1, model.Quorum{N: 3, W: 3, R: 1}, []model.ItemID{2}, []model.ItemID{0},
			map[model.ItemID][]model.SiteID{0: {0, 1, 2}, 2: {1}}},
		{"W2R2 at a site holding no copy", 3, model.Quorum{N: 3, W: 2, R: 2}, []model.ItemID{1}, []model.ItemID{2},
			map[model.ItemID][]model.SiteID{1: {1, 2}, 2: {0, 2}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			iss, c := quorumIssuerAt(tc.site, tc.q)
			tx := model.NewTxn(model.TxnID{Site: tc.site, Seq: 1}, model.TwoPL, tc.reads, tc.writes, 50)
			iss.OnMessage(c, engine.DriverAddr(tc.site), model.SubmitTxnMsg{Txn: tx})
			got := copiesByItem(take[model.RequestMsg](c))
			for item, sites := range tc.want {
				if !slices.Equal(got[item], sites) {
					t.Fatalf("item %d asked at %v, want %v", item, got[item], sites)
				}
			}
			iss.OnMessage(c, engine.DetectorAddr(), model.VictimMsg{Txn: tx.ID, Attempt: 0})
			fireTimers(iss, c) // the restart (and the idle sweep)
			retry := copiesByItem(take[model.RequestMsg](c))
			for item, sites := range tc.want {
				if tc.q.W < tc.q.N {
					sites = []model.SiteID{0, 1, 2}
				}
				if !slices.Equal(retry[item], sites) {
					t.Fatalf("restart asked item %d at %v, want %v", item, retry[item], sites)
				}
			}
			if n := timersOf[model.TickMsg](c); n != 0 {
				t.Fatalf("%d sweep timers armed for a restart that holds no spare", n)
			}
		})
	}
}

// TestQuorumBusyNAKHedgesSpareInSameAttempt: a busy NAK from a chosen copy
// sends the held spare into the same attempt, at the same timestamp, and
// the attempt commits on the spare's grant with no restart.
func TestQuorumBusyNAKHedgesSpareInSameAttempt(t *testing.T) {
	iss, c := quorumIssuer()
	submit(iss, c, model.TO, nil, []model.ItemID{3})
	reqs := take[model.RequestMsg](c)
	if len(reqs) != 2 || reqs[0].Copy.Site != 0 || reqs[1].Copy.Site != 1 {
		t.Fatalf("requests = %+v, want sites 0 and 1", reqs)
	}
	grantAll(iss, c, reqs[:1])
	nakBusy(iss, c, reqs[1])
	spare := take[model.RequestMsg](c)
	if len(spare) != 1 || spare[0].Copy.Site != 2 || spare[0].Attempt != 0 || spare[0].TS != reqs[0].TS {
		t.Fatalf("hedge = %+v, want site 2's copy in attempt 0 at TS %d", spare, reqs[0].TS)
	}
	if aborts := take[model.AbortMsg](c); len(aborts) != 1 || aborts[0].Copy != reqs[1].Copy {
		t.Fatalf("aborts = %+v, want the NAK'd copy withdrawn", aborts)
	}
	grantAll(iss, c, spare)
	if n := timersOf[*model.RestartMsg](c); n != 0 {
		t.Fatalf("%d restart timers, want none", n)
	}
	fireTimers(iss, c) // compute done
	dones := take[model.TxnDoneMsg](c)
	if len(dones) != 1 || dones[0].Outcome != model.OutcomeCommitted || dones[0].Attempts != 1 {
		t.Fatalf("done = %+v, want a first-attempt commit", dones)
	}
	if s := iss.Snapshot(); s.QuorumHedged != 1 || s.QuorumExcluded != 1 || s.BusyNAKs != 1 {
		t.Fatalf("stats = %+v, want 1 hedge / 1 excluded / 1 NAK", s)
	}
}

// TestQuorumSweepHedgesSilentCopy: a chosen copy that never answers is
// hedged by the issuer's one sweep timer, not before RestartDelayMicros
// after the attempt launched, and attempts are hedged in TxnID order
// whatever the order of the active map. The sweep stops re-arming once no
// attempt holds spares.
func TestQuorumSweepHedgesSilentCopy(t *testing.T) {
	iss, c := quorumIssuer()
	ids := []model.TxnID{{Site: 0, Seq: 9}, {Site: 0, Seq: 3}, {Site: 0, Seq: 6}}
	var first []model.RequestMsg
	for _, id := range ids {
		iss.OnMessage(c, engine.DriverAddr(0), model.SubmitTxnMsg{Txn: model.NewTxn(id, model.TwoPL, nil, []model.ItemID{3}, 50)})
		first = append(first, take[model.RequestMsg](c)...)
	}
	if n := timersOf[model.TickMsg](c); n != 1 {
		t.Fatalf("%d sweep timers for 3 attempts, want one per issuer", n)
	}
	for _, r := range first {
		if r.Copy.Site == 0 {
			grantAll(iss, c, []model.RequestMsg{r}) // site 1 stays silent
		}
	}
	sweepAt(iss, c, 99)
	if hedged := take[model.RequestMsg](c); len(hedged) != 0 {
		t.Fatalf("hedged %+v before the hedge window closed", hedged)
	}
	if n := timersOf[model.TickMsg](c); n != 1 {
		t.Fatalf("%d sweep timers after an early sweep, want it re-armed", n)
	}
	sweepAt(iss, c, 100)
	hedged := take[model.RequestMsg](c)
	var order []uint64
	for _, r := range hedged {
		if r.Copy.Site != 2 {
			t.Fatalf("hedged %+v, want the spare at site 2", r)
		}
		order = append(order, r.Txn.Seq)
	}
	if !slices.Equal(order, []uint64{3, 6, 9}) {
		t.Fatalf("hedged transactions %v, want TxnID order [3 6 9]", order)
	}
	if n := timersOf[model.TickMsg](c); n != 0 {
		t.Fatalf("%d sweep timers with no spare held, want none", n)
	}
	grantAll(iss, c, hedged)
	fireTimers(iss, c) // compute done
	if dones := take[model.TxnDoneMsg](c); len(dones) != 3 {
		t.Fatalf("done = %+v, want 3 commits", dones)
	}
	if aborts := take[model.AbortMsg](c); len(aborts) != 3 {
		t.Fatalf("aborts = %+v, want each silent copy withdrawn at release", aborts)
	}
	if s := iss.Snapshot(); s.Committed != 3 || s.QuorumHedged != 3 || s.Active != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestWriteAllReadHedgesOnlyOnExclusion: under W = N no sweep is armed, so
// a read's chosen copy that has not granted by RestartDelayMicros is left
// to answer, and its site stays off probation. A busy NAK from it still
// sends the held spares into the same attempt.
func TestWriteAllReadHedgesOnlyOnExclusion(t *testing.T) {
	iss, c := quorumIssuerAt(0, model.Quorum{N: 3, W: 3, R: 1})
	submit(iss, c, model.TwoPL, []model.ItemID{3}, nil)
	reqs := take[model.RequestMsg](c)
	if len(reqs) != 1 || reqs[0].Copy.Site != 0 {
		t.Fatalf("requests = %+v, want the own copy alone", reqs)
	}
	if n := timersOf[model.TickMsg](c); n != 0 {
		t.Fatalf("%d sweep timers armed under W = N, want none", n)
	}
	sweepAt(iss, c, 1_000)
	if hedged := take[model.RequestMsg](c); len(hedged) != 0 {
		t.Fatalf("hedged %+v without an exclusion", hedged)
	}
	if len(iss.probation) != 0 {
		t.Fatalf("probation = %v, want none", iss.probation)
	}
	nakBusy(iss, c, reqs[0])
	if got := copiesByItem(take[model.RequestMsg](c))[3]; !slices.Equal(got, []model.SiteID{1, 2}) {
		t.Fatalf("the NAK hedged %v, want the spares at [1 2]", got)
	}
	if s := iss.Snapshot(); s.QuorumHedged != 1 || s.QuorumExcluded != 1 {
		t.Fatalf("stats = %+v, want 1 hedge / 1 excluded", s)
	}
}

// TestQuorumFinalizedPARestartsOnEveryCopy: once a PA attempt has broadcast
// its final timestamp to its chosen copies, a spare asked late could only
// answer as a straggler. So losing a chosen copy then — to a busy NAK or to
// the sweep finding it silent — fails the attempt, and the restart asks
// every copy.
func TestQuorumFinalizedPARestartsOnEveryCopy(t *testing.T) {
	for _, lose := range []string{"busy NAK", "silent"} {
		t.Run(lose, func(t *testing.T) {
			iss, c := quorumIssuer()
			tx := submit(iss, c, model.PA, nil, []model.ItemID{3})
			reqs := take[model.RequestMsg](c)
			if len(reqs) != 2 {
				t.Fatalf("requests = %+v, want W=2", reqs)
			}
			grantAll(iss, c, reqs[:1])
			deliver(iss, c, engine.QMAddr(reqs[1].Copy.Site), model.BackoffMsg{
				Txn: tx.ID, Attempt: 0, Copy: reqs[1].Copy, NewTS: reqs[1].TS + 40,
			})
			if finals := take[model.FinalTSMsg](c); len(finals) != 2 {
				t.Fatalf("final timestamps = %+v, want one per chosen copy", finals)
			}
			if lose == "busy NAK" {
				nakBusy(iss, c, reqs[1])
			} else {
				sweepAt(iss, c, 100)
			}
			if hedged := take[model.RequestMsg](c); len(hedged) != 0 {
				t.Fatalf("hedged %+v after finalization", hedged)
			}
			dones := take[model.TxnDoneMsg](c)
			if len(dones) != 1 || dones[0].Outcome != model.OutcomeBusy {
				t.Fatalf("done = %+v, want the attempt failed", dones)
			}
			fireTimers(iss, c) // the restart
			retry := take[model.RequestMsg](c)
			if got := copiesByItem(retry)[3]; len(retry) != 3 || retry[0].Attempt != 1 || !slices.Equal(got, []model.SiteID{0, 1, 2}) {
				t.Fatalf("retry = %+v, want attempt 1 on every copy", retry)
			}
			if s := iss.Snapshot(); s.QuorumHedged != 0 {
				t.Fatalf("stats = %+v, want no hedge", s)
			}
		})
	}
}

// TestQuorumProbationRanksStalledSitesLast: a site whose chosen copy left an
// attempt short when the sweep hedged it, or NAK'd busy, goes on
// probation, and later first attempts pick its copies last — even the
// issuer's own. Any grant from the site, even one for a finished attempt,
// takes it off probation.
func TestQuorumProbationRanksStalledSitesLast(t *testing.T) {
	iss, c := quorumIssuer()
	next := uint64(0)
	attempt := func() []model.RequestMsg {
		t.Helper()
		next++
		id := model.TxnID{Site: 0, Seq: next}
		iss.OnMessage(c, engine.DriverAddr(0), model.SubmitTxnMsg{Txn: model.NewTxn(id, model.TwoPL, nil, []model.ItemID{3}, 50)})
		return take[model.RequestMsg](c)
	}
	sitesOf := func(reqs []model.RequestMsg) []model.SiteID { return copiesByItem(reqs)[3] }

	first := attempt()
	if got := sitesOf(first); !slices.Equal(got, []model.SiteID{0, 1}) {
		t.Fatalf("first attempt asked %v, want [0 1]", got)
	}
	grantAll(iss, c, first[:1]) // site 1 stays silent
	sweepAt(iss, c, 100)
	hedged := take[model.RequestMsg](c)
	grantAll(iss, c, hedged)
	fireTimers(iss, c) // compute done: the first transaction commits
	if got := sitesOf(attempt()); !slices.Equal(got, []model.SiteID{0, 2}) {
		t.Fatalf("with site 1 on probation the next attempt asked %v, want [0 2]", got)
	}
	grantAll(iss, c, first[1:]) // site 1's late grant, for a finished attempt
	if got := sitesOf(attempt()); !slices.Equal(got, []model.SiteID{0, 1}) {
		t.Fatalf("after site 1 answered the next attempt asked %v, want [0 1]", got)
	}

	// A busy NAK from the issuer's own copy puts its own site last.
	busy := attempt()
	nakBusy(iss, c, busy[0])
	if spare := take[model.RequestMsg](c); len(spare) != 1 || spare[0].Copy.Site != 2 {
		t.Fatalf("the NAK hedged %+v, want site 2's spare", spare)
	}
	if got := sitesOf(attempt()); !slices.Equal(got, []model.SiteID{1, 2}) {
		t.Fatalf("with site 0 on probation the next attempt asked %v, want [1 2]", got)
	}
}
