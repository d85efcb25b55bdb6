package wire

import (
	"bufio"
	"bytes"
	"math/rand"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/repl"
	"ucc/internal/storage"
	"ucc/internal/wal"
)

// txnWireBudget is the most wire bytes, frames included, that one
// uniform_rw-shaped transaction's messages may cost on fresh connections
// (see TestTxnWireBudget). Wire v4 encodes them in 274 bytes and wire v3 in
// 359; wire v8 takes 262, its later frames on a connection coded against
// the earlier ones, and so does v10, whose first frame of each tag on a
// connection carries both addresses as v9 did. txnSteadyBudget is the most
// per transaction in a steady run of them over the same connections: wire
// v10, which codes Seqs and anchor stamps against the previous frame on the
// connection and leaves out the addresses a tag's last frame carried,
// measures 196.8 B there, and the budget allows 2 % over that. Wire v9
// took 214.8 B and v7 275.5 B.
const (
	txnWireBudget   = 274
	txnSteadyBudget = 200.7
)

// budgetQM is one queue manager's share of a budget transaction: a copy it
// reads and one it writes, whose last writers committed before the
// transaction's stamp.
type budgetQM struct {
	site              model.SiteID
	read, write       model.ItemID
	readAt, writtenAt int64
}

// txnEnvelopes returns the wire messages of one read-write T/O transaction
// of four items, two read and two written, at two remote queue managers,
// with stamps of wall-clock size: the submit, a request, grant and release
// batch per queue manager, the TxnDoneMsg and the TxnFinishedMsg.
func txnEnvelopes(id model.TxnID, t0 model.Timestamp, qms []budgetQM) []engine.Envelope {
	commit, done := int64(t0)+310, int64(t0)+420
	ri, drv, col := engine.RIAddr(id.Site), engine.DriverAddr(id.Site), engine.CollectorAddr()
	var envs []engine.Envelope
	send := func(from, to engine.Addr, m model.Message) {
		envs = append(envs, engine.Envelope{From: from, To: to, Msg: m})
	}
	send(drv, ri, model.SubmitTxnMsg{Txn: model.NewTxn(id, model.TO,
		[]model.ItemID{qms[0].read, qms[1].read}, []model.ItemID{qms[0].write, qms[1].write}, 0)})
	for _, q := range qms {
		send(ri, engine.QMAddr(q.site), model.RequestBatchMsg{
			Txn: id, Protocol: model.TO, TS: t0, Interval: 2_000, Site: id.Site, CopySite: q.site,
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
	return envs
}

// budgetConns frames envelopes through one Writer per connection: one per
// ordered pair of processes, the client process holding the drivers and
// the collector, as the transport's peers are.
type budgetConns struct {
	sink    bytes.Buffer
	bw      *bufio.Writer
	writers map[[2]int32]*Writer
}

func newBudgetConns() *budgetConns {
	c := &budgetConns{writers: map[[2]int32]*Writer{}}
	c.bw = bufio.NewWriter(&c.sink)
	return c
}

// send frames envs, each on its connection's Writer, and returns their
// frame bytes.
func (c *budgetConns) send(t *testing.T, envs []engine.Envelope) int {
	t.Helper()
	process := func(a engine.Addr) int32 {
		if a.Kind == engine.KindDriver || a.Kind == engine.KindCollector {
			return -1
		}
		return int32(a.ID)
	}
	total := 0
	for _, env := range envs {
		conn := [2]int32{process(env.From), process(env.To)}
		w := c.writers[conn]
		if w == nil {
			w = NewWriter(c.bw)
			c.writers[conn] = w
		}
		n, err := w.WriteEnvelope(env)
		if err != nil {
			t.Fatalf("%T: %v", env.Msg, err)
		}
		total += n
	}
	c.bw.Reset(&c.sink) // the bytes are counted; drop them
	c.sink.Reset()
	return total
}

func (c *budgetConns) release() {
	for _, w := range c.writers {
		w.Release()
	}
}

// TestTxnWireBudget encodes the wire messages of uniform_rw-shaped
// transactions (txnEnvelopes) issued at site 1 with one Writer per
// connection, which gates the codec's bytes per transaction without a
// cluster. The first transaction, every frame on a connection's first
// frames, must fit txnWireBudget. Then 64 consecutive transactions, a few
// sequence numbers and some tens of microseconds apart as other sites'
// transactions interleave, over the same connections, must average at most
// txnSteadyBudget.
func TestTxnWireBudget(t *testing.T) {
	const (
		t0   = model.Timestamp(1_760_000_000_000_000) // µs since the Unix epoch
		txns = 64
	)
	conns := newBudgetConns()
	defer conns.release()
	// Each queue manager holds one item the transaction reads and one it
	// writes; the items' last writers committed milliseconds before t0.
	first := conns.send(t, txnEnvelopes(model.TxnID{Site: 1, Seq: 1_234_567}, t0, []budgetQM{
		{site: 0, read: 3_051, write: 1_290, readAt: int64(t0) - 8_150, writtenAt: int64(t0) - 41_270},
		{site: 2, read: 2_222, write: 3_977, readAt: int64(t0) - 23_600, writtenAt: int64(t0) - 2_940},
	}))
	t.Logf("first transaction: %d wire bytes (budget %d)", first, txnWireBudget)
	if first > txnWireBudget {
		t.Errorf("one transaction's messages take %d wire bytes, over the budget of %d", first, txnWireBudget)
	}

	rng := rand.New(rand.NewSource(1))
	id, ts := model.TxnID{Site: 1, Seq: 1_234_567}, t0
	item := func() model.ItemID { return model.ItemID(rng.Intn(4096)) }
	lastWrite := func() int64 { return int64(ts) - 1_000 - rng.Int63n(60_000) }
	total := 0
	for i := 0; i < txns; i++ {
		id.Seq += 1 + uint64(rng.Intn(4))
		ts += model.Timestamp(20 + rng.Intn(180))
		qms := []budgetQM{
			{site: 0, read: item(), write: item(), readAt: lastWrite(), writtenAt: lastWrite()},
			{site: 2, read: item(), write: item(), readAt: lastWrite(), writtenAt: lastWrite()},
		}
		total += conns.send(t, txnEnvelopes(id, ts, qms))
	}
	perTxn := float64(total) / txns
	t.Logf("steady state: %d transactions, %.1f wire bytes each (budget %.1f)", txns, perTxn, txnSteadyBudget)
	if perTxn > txnSteadyBudget {
		t.Errorf("a steady transaction's messages take %.1f wire bytes, over the budget of %.1f", perTxn, txnSteadyBudget)
	}
}

// corpusFirstPassBytes and corpusPassBytes are the exact frame bytes of
// Corpus() framed through one Writer, as V3Harness does: the first pass
// on a fresh connection, and each later pass, coded against the one before
// (BenchmarkWireCodec's msgs/KB is len(Corpus()) over the later passes'
// KiB). The corpus is deterministic, so the counts are exact rows, not
// budgets: any change to a frame's bytes moves them. Wire v9 framed the
// passes in 1797 and 1803 bytes; v10's header memo takes 1603 and 1497.
const (
	corpusFirstPassBytes = 1603
	corpusPassBytes      = 1497
)

// TestCorpusFrameBytes pins the bytes of three corpus passes through one
// V3Harness, whose Writer and Reader live across passes.
func TestCorpusFrameBytes(t *testing.T) {
	h := NewV3Harness()
	defer h.Release()
	corpus := Corpus()
	for pass, want := range []int{corpusFirstPassBytes, corpusPassBytes, corpusPassBytes} {
		got, err := h.PassPooled(corpus)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("corpus pass %d: %d frame bytes, want %d", pass, got, want)
		}
	}
}

// shippedRecordBudget is the most wire bytes one shipped catch-up record may
// cost, its share of the carrying ReplRecordsMsg frame included (see
// TestShippedRecordBudget): the 8.92 the batch codec takes, plus 2 %. With
// writer Seqs coded whole (wire v10) it took about 10.9, and the WAL
// segment frame it replaced about 29.
const shippedRecordBudget = 9.1

// TestShippedRecordBudget serves a full catch-up batch of 512 records from a
// site log shaped like a real tail — items below 4096, consecutive writer
// sequence numbers near 10⁶, as issuers assign them, values near 10³,
// wall-clock commit stamps spread over 150 ms — and sends it as one
// ReplRecordsMsg. Its frame must fit shippedRecordBudget bytes per record.
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
		txn := model.TxnID{Site: model.SiteID(rng.Intn(3)), Seq: 1_000_000 + uint64(i)}
		sl.RecordWrite(model.ItemID(rng.Intn(4096)), txn, 500+rng.Int63n(1_000), uint64(1+rng.Intn(400)), t0+rng.Int63n(150_000))
	}
	if err := sl.Flush(); err != nil {
		t.Fatal(err)
	}
	frames, next, more, gap, err := sl.RecordsSince(0, records, nil, nil)
	if err != nil || next != records || more || gap {
		t.Fatalf("served through %d (more %v, gap %v, err %v), want all %d records", next, more, gap, err, records)
	}
	// Framed by hand rather than with a Writer: a buffer this size released
	// to the pool would hand a later test's reader a pre-grown buffer.
	payload, err := freshPayload(engine.Envelope{From: engine.QMAddr(2), To: engine.QMAddr(1),
		Msg: model.ReplRecordsMsg{From: 2, Frames: frames, NextAfterSeq: next}})
	if err != nil {
		t.Fatal(err)
	}
	frame := len(model.AppendUvarint(nil, uint64(len(payload)))) + len(payload)
	perRecord := float64(frame) / records
	t.Logf("%d records in a %d-byte frame: %.2f B per record (budget %.1f)", records, frame, perRecord, shippedRecordBudget)
	if perRecord > shippedRecordBudget {
		t.Errorf("a shipped record takes %.2f wire bytes, over the budget of %.1f", perRecord, shippedRecordBudget)
	}
}

// queueStatsHeader bounds the header of a QueueStatsMsg frame (see
// TestQueueStatsBudget): the addresses, the tag, the site, a wall-clock
// stamp, the period and the item set's header and first item. Each copy
// then costs its reads and its writes, one byte each while they stay
// small, and its bit of the item set's bitmap: one bit per item the
// copies span. The gap list v10 coded items in took a byte per copy, 3 B
// per copy in all, and the two cumulative maps the per-period entries
// replaced took 6.7 B per copy at these counts.
const queueStatsHeader = 24

// TestQueueStatsBudget encodes one site's report for 4 096 copies, each
// with fewer than 64 reads and writes in the period, twice: a site holding
// every third item, whose bitmap costs three bits per copy, and one holding
// every item, whose bitmap costs one. Its frame must fit queueStatsHeader
// bytes plus the shape's budget per copy.
func TestQueueStatsBudget(t *testing.T) {
	const (
		copies = 4096
		at     = 1_760_000_000_000_000 // µs since the Unix epoch
	)
	for _, c := range []struct {
		name    string
		stride  int
		perCopy float64
	}{{"every third item", 3, 2.5}, {"dense", 1, 2.2}} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			grants := make([]model.QueueGrants, copies)
			for i := range grants {
				grants[i] = model.QueueGrants{Item: model.ItemID(c.stride*i + 1), Reads: rng.Int63n(64), Writes: rng.Int63n(64)}
			}
			payload, err := freshPayload(engine.Envelope{From: engine.QMAddr(2), To: engine.CollectorAddr(),
				Msg: model.QueueStatsMsg{From: 2, AtMicros: at, SinceMicros: at - 200_000, Grants: grants}})
			if err != nil {
				t.Fatal(err)
			}
			frame := len(model.AppendUvarint(nil, uint64(len(payload)))) + len(payload)
			budget := queueStatsHeader + c.perCopy*copies
			t.Logf("%d copies in a %d-byte frame: %.3f B per copy (budget %.0f)", copies, frame, float64(frame)/copies, budget)
			if float64(frame) > budget {
				t.Errorf("a %d-copy stats report takes %d wire bytes, over the budget of %.0f", copies, frame, budget)
			}
		})
	}
}

// digestBudget is the most wire bytes one journal digest entry may cost,
// its share of the carrying ReplPullMsg frame included (see
// TestDigestBudget). An item set's bitmap and an 18-bit stamp offset take
// about 2.4; v10's varint deltas took 3.88.
const digestBudget = 2.6

// TestDigestBudget builds the digest of a durable_quorum-shaped journal —
// 10 000 records over 150 ms, three items to a commit stamp, items below
// 4 096, so most items appear — and sends it in one ReplPullMsg. Its frame
// must fit digestBudget bytes per entry.
func TestDigestBudget(t *testing.T) {
	const (
		records = 10_000
		t0      = 1_760_000_000_000_000 // µs since the Unix epoch
	)
	sl, err := wal.Open(wal.NewMemMedia(), storage.NewStore(1), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < records; i++ {
		txn := model.TxnID{Site: model.SiteID(rng.Intn(3)), Seq: 1_000_000 + uint64(i/3)}
		sl.RecordWrite(model.ItemID(rng.Intn(4096)), txn, 500+rng.Int63n(1_000), 1, t0+int64(i/3)*150_000/(records/3))
	}
	have, _ := sl.HaveSince(0, nil)
	payload, err := freshPayload(engine.Envelope{From: engine.QMAddr(2), To: engine.QMAddr(1),
		Msg: model.ReplPullMsg{From: 2, AfterSeq: 1 << 20, Have: repl.AppendHave(nil, have)}})
	if err != nil {
		t.Fatal(err)
	}
	frame := len(model.AppendUvarint(nil, uint64(len(payload)))) + len(payload)
	perEntry := float64(frame) / float64(len(have))
	t.Logf("%d entries in a %d-byte frame: %.3f B per entry (budget %.1f)", len(have), frame, perEntry, digestBudget)
	if perEntry > digestBudget {
		t.Errorf("a digest entry takes %.3f wire bytes, over the budget of %.1f", perEntry, digestBudget)
	}
}
