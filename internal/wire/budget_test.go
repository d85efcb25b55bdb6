package wire

import (
	"math/rand"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/storage"
	"ucc/internal/wal"
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

// shippedRecordBudget is the most wire bytes one shipped catch-up record may
// cost, its share of the carrying ReplRecordsMsg frame included (see
// TestShippedRecordBudget). The compact batch codec takes about 11; the WAL
// segment frame it replaced took about 29.
const shippedRecordBudget = 12

// TestShippedRecordBudget serves a full catch-up batch of 512 records from a
// site log shaped like a real tail — items below 4096, writer sequence
// numbers near 10⁶, values near 10³, wall-clock commit stamps spread over
// 150 ms — and sends it as one ReplRecordsMsg. Its frame must fit
// shippedRecordBudget bytes per record.
func TestShippedRecordBudget(t *testing.T) {
	const (
		records = 512
		t0      = 1_760_000_000_000_000 // µs since the Unix epoch
	)
	sl, err := wal.Open(wal.NewMemMedia(), storage.NewStore(1), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < records; i++ {
		txn := model.TxnID{Site: model.SiteID(rng.Intn(3)), Seq: 1_000_000 + uint64(rng.Intn(50_000))}
		sl.RecordWrite(model.ItemID(rng.Intn(4096)), txn, 500+rng.Int63n(1_000), uint64(1+rng.Intn(400)), t0+rng.Int63n(150_000))
	}
	if err := sl.Flush(); err != nil {
		t.Fatal(err)
	}
	frames, next, more, gap, err := sl.RecordsSince(0, records, nil)
	if err != nil || next != records || more || gap {
		t.Fatalf("served through %d (more %v, gap %v, err %v), want all %d records", next, more, gap, err, records)
	}
	// Framed by hand rather than with EncodeEnvelope: a frame this size
	// released to the frame pool would hand a later test's reader a
	// pre-grown buffer.
	payload, err := AppendEnvelope(nil, engine.Envelope{From: engine.QMAddr(2), To: engine.QMAddr(1),
		Msg: model.ReplRecordsMsg{From: 2, Frames: frames, NextAfterSeq: next}})
	if err != nil {
		t.Fatal(err)
	}
	frame := len(model.AppendUvarint(nil, uint64(len(payload)))) + len(payload)
	perRecord := float64(frame) / records
	t.Logf("%d records in a %d-byte frame: %.2f B per record (budget %d)", records, frame, perRecord, shippedRecordBudget)
	if perRecord > shippedRecordBudget {
		t.Errorf("a shipped record takes %.2f wire bytes, over the budget of %d", perRecord, shippedRecordBudget)
	}
}

// queueStatsPerCopy and queueStatsHeader bound a QueueStatsMsg frame (see
// TestQueueStatsBudget): each copy's entry is an item gap, the reads and
// the writes, one byte each while they stay small, and the header holds the
// addresses, the tag, the site, a wall-clock stamp, the period and the
// count. The two cumulative maps the per-period entries replaced took 6.7 B
// per copy at these counts, and 8.6 B at the counts a 20 s run reaches.
const (
	queueStatsPerCopy = 3.1
	queueStatsHeader  = 24
)

// TestQueueStatsBudget encodes one site's report for 4 096 copies, every
// third item, each with fewer than 64 reads and writes in the period. Its
// frame must fit queueStatsHeader bytes plus queueStatsPerCopy per copy.
func TestQueueStatsBudget(t *testing.T) {
	const (
		copies = 4096
		at     = 1_760_000_000_000_000 // µs since the Unix epoch
	)
	rng := rand.New(rand.NewSource(1))
	grants := make([]model.QueueGrants, copies)
	for i := range grants {
		grants[i] = model.QueueGrants{Item: model.ItemID(3*i + 1), Reads: rng.Int63n(64), Writes: rng.Int63n(64)}
	}
	payload, err := AppendEnvelope(nil, engine.Envelope{From: engine.QMAddr(2), To: engine.CollectorAddr(),
		Msg: model.QueueStatsMsg{From: 2, AtMicros: at, SinceMicros: at - 200_000, Grants: grants}})
	if err != nil {
		t.Fatal(err)
	}
	frame := len(model.AppendUvarint(nil, uint64(len(payload)))) + len(payload)
	budget := queueStatsHeader + queueStatsPerCopy*copies
	t.Logf("%d copies in a %d-byte frame: %.2f B per copy (budget %.0f)", copies, frame, float64(frame)/copies, budget)
	if float64(frame) > budget {
		t.Errorf("a %d-copy stats report takes %d wire bytes, over the budget of %.0f", copies, frame, budget)
	}
}
