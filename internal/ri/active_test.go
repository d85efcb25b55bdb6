package ri

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
)

// onlyActive returns the issuer's single in-flight transaction, its Waiting
// list sorted by (item, site).
func onlyActive(t *testing.T, iss *Issuer) ActiveTxn {
	t.Helper()
	all := iss.ActiveTxns()
	if len(all) != 1 {
		t.Fatalf("active transactions = %+v, want one", all)
	}
	at := all[0]
	slices.SortFunc(at.Waiting, func(a, b model.CopyID) int {
		if c := cmp.Compare(a.Item, b.Item); c != 0 {
			return c
		}
		return cmp.Compare(a.Site, b.Site)
	})
	return at
}

// wantActive checks the phase name and the copies still waited on.
func wantActive(t *testing.T, at ActiveTxn, phase string, waiting ...model.CopyID) {
	t.Helper()
	if at.Phase != phase || !reflect.DeepEqual(at.Waiting, waiting) {
		t.Fatalf("active = %s waiting %v, want %s waiting %v", at.Phase, at.Waiting, phase, waiting)
	}
}

func copiesOf(reqs []model.RequestMsg) []model.CopyID {
	var out []model.CopyID
	for _, r := range reqs {
		out = append(out, r.Copy)
	}
	return out
}

// TestActiveTxnsPhasesAndWaiting pins ActiveTxns' phase name and Waiting list
// through every lifecycle stage: a negotiating 2PL attempt waits on its
// ungranted copies, a finalized PA attempt on fresh grants from every copy,
// a computing attempt on nothing, a semi-converted T/O attempt on the normal
// grant of its pre-scheduled read, and a read-only snapshot transaction on
// its outstanding reads.
func TestActiveTxnsPhasesAndWaiting(t *testing.T) {
	t.Run("negotiating and computing", func(t *testing.T) {
		iss, c := testIssuer(8, 2, 1)
		tx := submit(iss, c, model.TwoPL, nil, []model.ItemID{0, 1})
		reqs := take[model.RequestMsg](c)
		at := onlyActive(t, iss)
		if at.ID != tx.ID || at.Protocol != model.TwoPL || at.Attempt != 0 {
			t.Fatalf("active = %+v", at)
		}
		wantActive(t, at, "negotiating", copiesOf(reqs)...)
		grant(iss, c, reqs[0], model.WL, false)
		wantActive(t, onlyActive(t, iss), "negotiating", reqs[1].Copy)
		grant(iss, c, reqs[1], model.WL, false)
		wantActive(t, onlyActive(t, iss), "computing")
	})

	t.Run("await-grants", func(t *testing.T) {
		iss, c := testIssuer(8, 2, 1)
		tx := submit(iss, c, model.PA, nil, []model.ItemID{0, 1})
		reqs := take[model.RequestMsg](c)
		grant(iss, c, reqs[0], model.WL, false)
		deliver(iss, c, engine.QMAddr(reqs[1].Copy.Site), model.BackoffMsg{
			Txn: tx.ID, Copy: reqs[1].Copy, NewTS: reqs[1].TS + 40,
		})
		// Finalization discards the provisional grant: every copy is waited on.
		wantActive(t, onlyActive(t, iss), "await-grants", copiesOf(reqs)...)
		final := take[model.FinalTSMsg](c)[0].TS
		deliver(iss, c, engine.QMAddr(reqs[0].Copy.Site), model.GrantMsg{
			Txn: tx.ID, Copy: reqs[0].Copy, Lock: model.WL, TS: final,
		})
		wantActive(t, onlyActive(t, iss), "await-grants", reqs[1].Copy)
	})

	t.Run("await-normal", func(t *testing.T) {
		iss, c := testIssuer(8, 2, 1)
		submit(iss, c, model.TO, []model.ItemID{0}, []model.ItemID{1})
		var read model.CopyID
		for _, r := range take[model.RequestMsg](c) {
			if r.Kind == model.OpRead {
				read = r.Copy
				grant(iss, c, r, model.SRL, true)
			} else {
				grant(iss, c, r, model.WL, false)
			}
		}
		fireTimers(iss, c) // compute done: semi-lock conversion
		wantActive(t, onlyActive(t, iss), "await-normal", read)
	})

	t.Run("snapshot-read", func(t *testing.T) {
		iss, c := testIssuer(8, 2, 1)
		tx := submit(iss, c, model.ROSnapshot, []model.ItemID{0, 1}, nil)
		snaps := take[model.SnapReadMsg](c)
		at := onlyActive(t, iss)
		if at.ID != tx.ID || at.Protocol != model.ROSnapshot {
			t.Fatalf("active = %+v", at)
		}
		wantActive(t, at, "snapshot-read", snaps[0].Copy, snaps[1].Copy)
		deliver(iss, c, engine.QMAddr(snaps[0].Copy.Site), model.SnapReadReplyMsg{
			Txn: tx.ID, Copy: snaps[0].Copy, Exact: true,
		})
		wantActive(t, onlyActive(t, iss), "snapshot-read", snaps[1].Copy)
	})
}
