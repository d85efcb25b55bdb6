package wire

import (
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
)

// txnWireBudget is the most wire bytes, frames included, that one
// uniform_rw-shaped transaction's messages may cost (see TestTxnWireBudget).
// Wire v4 encodes them in 274 bytes; wire v3 took 359.
const txnWireBudget = 274

// TestTxnWireBudget encodes the wire messages of one read-write T/O
// transaction of four items, two read and two written, at two remote queue
// managers, with stamps of wall-clock size: the submit, a request, grant and
// release batch per queue manager, the TxnDoneMsg and the TxnFinishedMsg.
// Their frames must fit txnWireBudget, which gates the codec's bytes per
// transaction without a cluster.
func TestTxnWireBudget(t *testing.T) {
	const (
		t0     = model.Timestamp(1_760_000_000_000_000) // µs since the Unix epoch
		commit = int64(t0) + 310
		done   = int64(t0) + 420
	)
	id := model.TxnID{Site: 1, Seq: 1_234_567}
	ri, drv, col := engine.RIAddr(1), engine.DriverAddr(1), engine.CollectorAddr()
	// Each queue manager holds one item the transaction reads and one it
	// writes; the items' last writers committed milliseconds before t0.
	type qmCopies struct {
		site              model.SiteID
		read, write       model.ItemID
		readAt, writtenAt int64
	}
	qms := []qmCopies{
		{site: 0, read: 3_051, write: 1_290, readAt: int64(t0) - 8_150, writtenAt: int64(t0) - 41_270},
		{site: 2, read: 2_222, write: 3_977, readAt: int64(t0) - 23_600, writtenAt: int64(t0) - 2_940},
	}

	var envs []engine.Envelope
	send := func(from, to engine.Addr, m model.Message) {
		envs = append(envs, engine.Envelope{From: from, To: to, Msg: m})
	}
	send(drv, ri, model.SubmitTxnMsg{Txn: model.NewTxn(id, model.TO,
		[]model.ItemID{qms[0].read, qms[1].read}, []model.ItemID{qms[0].write, qms[1].write}, 0)})
	for _, q := range qms {
		send(ri, engine.QMAddr(q.site), model.RequestBatchMsg{
			Txn: id, Protocol: model.TO, TS: t0, Interval: 2_000, Site: 1, CopySite: q.site,
			Members: []model.RequestMember{{Item: q.read, Kind: model.OpRead}, {Item: q.write, Kind: model.OpWrite}},
		})
	}
	for _, q := range qms {
		send(engine.QMAddr(q.site), ri, model.GrantBatchMsg{Txn: id, CopySite: q.site, Members: []model.GrantMember{
			{Item: q.read, Lock: model.RL, TS: t0, Value: 48_213_377, Version: 402, CommitMicros: q.readAt},
			{Item: q.write, Lock: model.WL, TS: t0, Value: 48_190_012, Version: 397, CommitMicros: q.writtenAt},
		}})
	}
	for _, q := range qms {
		send(ri, engine.QMAddr(q.site), model.ReleaseBatchMsg{Txn: id, CopySite: q.site, CommitMicros: commit,
			Members: []model.ReleaseMember{{Item: q.read}, {Item: q.write, HasWrite: true, Value: 49_382_268}}})
	}
	send(ri, col, model.TxnDoneMsg{Txn: id, Protocol: model.TO, Outcome: model.OutcomeCommitted,
		ArrivalMicros: int64(t0), DoneMicros: done, FirstArrivalMicros: int64(t0),
		Attempts: 1, Size: 4, Reads: 2, Writes: 2, Messages: 12, LockedMicros: commit - int64(t0) - 120})
	send(ri, drv, model.TxnFinishedMsg{Txn: id})

	total := 0
	for _, env := range envs {
		frame, err := EncodeEnvelope(env)
		if err != nil {
			t.Fatalf("%T: %v", env.Msg, err)
		}
		total += len(frame)
		ReleaseFrame(frame)
	}
	t.Logf("%d messages, %d wire bytes (budget %d)", len(envs), total, txnWireBudget)
	if total > txnWireBudget {
		t.Errorf("one transaction's messages take %d wire bytes, over the budget of %d", total, txnWireBudget)
	}
}
