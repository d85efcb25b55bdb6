package qm

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/storage"
)

// checkQueueInvariants asserts the structural invariants of every data
// queue after an arbitrary message:
//
//  1. entries sorted strictly ascending by unified precedence;
//  2. the byTxn index matches the entries slice exactly;
//  3. lockCounts matches the granted entries' lock kinds;
//  4. the granted list contains exactly the granted entries in grant order;
//  5. no two granted entries hold WL/WL (mutual exclusion of full write
//     locks — semi-locks may coexist by design);
//  6. every granted entry's precedence respects HD history: it was at some
//     point the first ungranted entry, so no *ungranted* accepted entry
//     with smaller precedence may exist… unless it arrived later with a
//     smaller timestamp (T/O), which the thresholds prevent for conflicts —
//     checked as: no accepted ungranted WRITE precedes a granted entry it
//     conflicts with. (Reads may slot before write grants harmlessly.)
func checkQueueInvariants(t *testing.T, q *dataQueue) {
	t.Helper()
	for i := 1; i < len(q.entries); i++ {
		if q.entries[i-1].prec.Compare(q.entries[i].prec) >= 0 {
			t.Fatalf("entries out of order at %d: %v >= %v",
				i, q.entries[i-1].prec, q.entries[i].prec)
		}
	}
	if len(q.byTxn) != len(q.entries) {
		t.Fatalf("index size %d != entries %d", len(q.byTxn), len(q.entries))
	}
	var counts [4]int
	var nGranted int
	var fullWL int
	for _, e := range q.entries {
		if q.byTxn[e.txn] != e {
			t.Fatalf("index mismatch for %v", e.txn)
		}
		if e.granted {
			nGranted++
			counts[e.lock]++
			if e.lock == model.WL {
				fullWL++
			}
		}
	}
	if counts != q.lockCounts {
		t.Fatalf("lockCounts %v != recount %v", q.lockCounts, counts)
	}
	if len(q.granted) != nGranted {
		t.Fatalf("granted list %d != recount %d", len(q.granted), nGranted)
	}
	for i := 1; i < len(q.granted); i++ {
		if q.granted[i-1].grantSeq >= q.granted[i].grantSeq {
			t.Fatal("granted list out of grant order")
		}
	}
	if fullWL > 1 {
		t.Fatalf("%d concurrent full write locks", fullWL)
	}
}

// runQueueScript is the one interpreter behind every queue fuzz input: a
// byte string decoded as a message script — interleaved requests across
// protocols and items, request batches, PA final timestamps, releases,
// semi-lock conversions, aborts, probes, stale releases — driven into two
// sharded managers, with checkQueueInvariants asserted on every queue after
// every message. The managers see the same script except for the batches:
// one gets each batch whole, the other its members as single RequestMsgs in
// order, and after every step both must agree exactly — queue state,
// counters, and each issuer's replies in order once grant batches are
// expanded into the grants they carry. At the end every live transaction is
// aborted and every queue must drain empty.
//
// The script grammar is 3 bytes per step:
//
//	b0 % 8  → opcode (0-2 request, 3 request batch, 4 finalTS, 5-6 release,
//	          7 abort/probe/stale)
//	b1      → protocol/kind/item selector
//	b2      → timestamp delta / txn selector / batch size
func runQueueScript(t *testing.T, shardsRaw uint8, script []byte) {
	const items = 4
	shards := 1 + int(shardsRaw%4)
	newManager := func() *Manager {
		st := storage.NewStore(0)
		for i := 0; i < items; i++ {
			st.Create(model.ItemID(i), 0)
		}
		return New(0, st, nil, Options{Shards: shards})
	}
	// mB gets request batches whole, mS as their members; everything else
	// goes to both.
	mB, mS := newManager(), newManager()
	ctxB, ctxS := newFakeCtx(), newFakeCtx()
	both := func(from engine.Addr, msg model.Message) {
		mB.OnMessage(ctxB, from, msg)
		mS.OnMessage(ctxS, from, msg)
	}

	// liveCopy is one request of a live transaction (a batch's transaction
	// has one per member).
	type liveCopy struct {
		id       model.TxnID
		protocol model.Protocol
		kind     model.OpKind
		item     model.ItemID
		granted  bool
		preSched bool
		semi     bool
		backoff  model.Timestamp
	}
	var live []*liveCopy
	var nextSeq uint64
	ts := model.Timestamp(1)

	find := func(id model.TxnID, item model.ItemID) *liveCopy {
		for _, lc := range live {
			if lc.id == id && lc.item == item {
				return lc
			}
		}
		return nil
	}
	remove := func(lc *liveCopy) {
		for i, x := range live {
			if x == lc {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}
	// perIssuer groups replies by destination, grant batches expanded, in
	// send order. Deadlock probe reports are left out: they list edges in
	// map order, and queue-state equality already covers what they say.
	perIssuer := func(sent []engine.Envelope) map[engine.Addr][]model.Message {
		out := map[engine.Addr][]model.Message{}
		for _, env := range sent {
			switch v := env.Msg.(type) {
			case model.WFGReportMsg:
			case model.GrantBatchMsg:
				if len(v.Members) == 0 {
					t.Fatalf("empty grant batch sent to %v", env.To)
				}
				for i := range v.Members {
					out[env.To] = append(out[env.To], v.Grant(i))
				}
			default:
				out[env.To] = append(out[env.To], env.Msg)
			}
		}
		return out
	}
	drain := func() {
		got, want := perIssuer(ctxB.sent), perIssuer(ctxS.sent)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("replies differ between batched and single delivery:\nbatched: %+v\n single: %+v", got, want)
		}
		for _, env := range ctxS.sent {
			switch v := env.Msg.(type) {
			case model.GrantMsg:
				if lc := find(v.Txn, v.Copy.Item); lc != nil {
					lc.granted = true
					lc.preSched = v.PreScheduled
				}
			case model.BackoffMsg:
				if lc := find(v.Txn, v.Copy.Item); lc != nil {
					lc.backoff = v.NewTS
				}
			case model.RejectMsg:
				if lc := find(v.Txn, v.Copy.Item); lc != nil {
					remove(lc)
				}
			}
		}
		ctxB.sent, ctxS.sent = nil, nil
	}
	checkAll := func() {
		if cb, cs := mB.Snapshot(), mS.Snapshot(); cb != cs {
			t.Fatalf("counters differ between batched and single delivery:\nbatched: %+v\n single: %+v", cb, cs)
		}
		for i := 0; i < items; i++ {
			item := model.ItemID(i)
			checkQueueInvariants(t, mB.queueOf(item))
			checkQueueInvariants(t, mS.queueOf(item))
			if qb, qs := mB.DumpQueue(item), mS.DumpQueue(item); !reflect.DeepEqual(qb, qs) {
				t.Fatalf("item %d queue differs between batched and single delivery:\nbatched: %v\n single: %v", i, qb, qs)
			}
		}
	}

	for at := 0; at+2 < len(script); at += 3 {
		b0, b1, b2 := script[at], script[at+1], script[at+2]
		switch b0 % 8 {
		case 0, 1, 2: // new request
			nextSeq++
			lc := &liveCopy{
				id:       model.TxnID{Site: model.SiteID(1 + b1%3), Seq: nextSeq},
				protocol: model.Protocol(b1 % 3),
				kind:     model.OpKind((b1 >> 4) % 2),
				item:     model.ItemID(b1 % items),
			}
			ts += model.Timestamp(b2 % 5)
			live = append(live, lc)
			both(engine.RIAddr(lc.id.Site), model.RequestMsg{
				Txn: lc.id, Protocol: lc.protocol, Kind: lc.kind,
				Copy: model.CopyID{Item: lc.item, Site: 0},
				TS:   ts, Interval: model.Timestamp(1 + b2%20),
				Site: lc.id.Site,
			})
		case 3: // a new transaction's requests at 2-4 consecutive items, batched
			nextSeq++
			n := 2 + int(b2%3)
			first := int(b1>>2) % (items - n + 1)
			ts += model.Timestamp(b2 % 5)
			b := model.RequestBatchMsg{
				Txn: model.TxnID{Site: model.SiteID(1 + b1%3), Seq: nextSeq}, Protocol: model.Protocol(b1 % 3),
				TS: ts, Interval: model.Timestamp(1 + b2%20), Site: model.SiteID(1 + b1%3),
			}
			for k := 0; k < n; k++ {
				kind := model.OpKind((b2 >> (2 + k)) % 2)
				b.Members = append(b.Members, model.RequestMember{Item: model.ItemID(first + k), Kind: kind})
				live = append(live, &liveCopy{id: b.Txn, protocol: b.Protocol, kind: kind, item: model.ItemID(first + k)})
			}
			// Pooled, as it arrives off the wire; the test is the delivery layer.
			pooled := model.PooledRequestBatch(b)
			mB.OnMessage(ctxB, engine.RIAddr(b.Site), pooled)
			model.RecycleMessage(pooled)
			for i := range b.Members {
				mS.OnMessage(ctxS, engine.RIAddr(b.Site), b.Request(i))
			}
		case 4: // final timestamp for a backed-off PA request
			for _, lc := range live {
				if lc.protocol == model.PA && lc.backoff > 0 {
					both(engine.RIAddr(lc.id.Site), model.FinalTSMsg{
						Txn: lc.id, Copy: model.CopyID{Item: lc.item, Site: 0},
						TS: lc.backoff,
					})
					lc.backoff = 0
					lc.granted = false
					break
				}
			}
		case 5, 6: // release a granted copy (conversion first for T/O preSched)
			for _, lc := range live {
				if !lc.granted {
					continue
				}
				if lc.protocol == model.TO && lc.preSched && !lc.semi {
					both(engine.RIAddr(lc.id.Site), model.ReleaseMsg{
						Txn: lc.id, Copy: model.CopyID{Item: lc.item, Site: 0},
						ToSemi: true, HasWrite: lc.kind == model.OpWrite, Value: int64(b2),
					})
					lc.semi = true
					break
				}
				both(engine.RIAddr(lc.id.Site), model.ReleaseMsg{
					Txn: lc.id, Copy: model.CopyID{Item: lc.item, Site: 0},
					HasWrite: lc.kind == model.OpWrite && !lc.semi, Value: int64(b2),
				})
				remove(lc)
				break
			}
		case 7: // abort someone, probe (exercises waitEdges), or a stale release
			switch {
			case b2%2 == 0 && len(live) > 0:
				lc := live[int(b2/2)%len(live)]
				both(engine.RIAddr(lc.id.Site), model.AbortMsg{
					Txn: lc.id, Copy: model.CopyID{Item: lc.item, Site: 0},
				})
				remove(lc)
			case b2%4 == 3: // release from a long-gone attempt
				both(engine.RIAddr(1), model.ReleaseMsg{
					Txn:  model.TxnID{Site: 1, Seq: 999999},
					Copy: model.CopyID{Item: model.ItemID(b1 % items), Site: 0},
				})
			default:
				both(engine.RIAddr(0), model.ProbeWFGMsg{Round: uint64(at)})
			}
		}
		drain()
		checkAll()
	}

	// Abort everything; all queues must drain empty.
	for len(live) > 0 {
		lc := live[0]
		both(engine.RIAddr(lc.id.Site), model.AbortMsg{
			Txn: lc.id, Copy: model.CopyID{Item: lc.item, Site: 0},
		})
		remove(lc)
	}
	drain()
	checkAll()
	for i := 0; i < items; i++ {
		if d := mB.QueueDepth(model.ItemID(i)); d != 0 {
			t.Fatalf("item %d queue not empty after abort-all: %d\n%s", i, d,
				strings.Join(mB.DumpQueue(model.ItemID(i)), "\n"))
		}
	}
}

// soupScript is a 400-step random but protocol-plausible message soup from
// seed. Odd seeds aim every step at item 0 — one queue under maximum
// contention; even seeds spread over all items and shards.
func soupScript(seed int64) (shardsRaw uint8, script []byte) {
	rng := rand.New(rand.NewSource(seed))
	script = make([]byte, 3*400)
	rng.Read(script)
	if seed%2 == 1 {
		for at := 1; at < len(script); at += 3 {
			script[at] &^= 3
		}
	}
	return uint8(seed), script
}

// FuzzQueueMessages is the queue manager's fuzz target. Its seed corpus —
// hand-written scripts per opcode family (the last two lean on request
// batches) plus 25 seeded soups — runs on
// every `go test`; `go test -fuzz FuzzQueueMessages` explores interleavings
// the seeds cannot.
func FuzzQueueMessages(f *testing.F) {
	f.Add(uint8(2), []byte{0, 0x00, 1, 1, 0x11, 2, 2, 0x22, 3, 3, 0x33, 4})
	f.Add(uint8(1), []byte{0, 0x02, 5, 4, 0x00, 0, 5, 0x00, 0})
	f.Add(uint8(4), []byte{0, 0x12, 3, 0, 0x21, 2, 6, 0x01, 1, 7, 0x00, 9, 7, 0x00, 3})
	f.Add(uint8(3), []byte{
		0, 0x00, 1, 0, 0x11, 2, 0, 0x22, 3, 4, 0x00, 0,
		5, 0x00, 0, 5, 0x01, 1, 7, 0x02, 2, 0, 0x10, 4,
	})
	// A T/O write holds item 1, then a T/O batch over items 0-3 with an
	// older timestamp: grants and a rejection interleave inside one batch.
	f.Add(uint8(1), []byte{0, 0x11, 9, 3, 0x01, 0x1e, 5, 0x00, 0, 3, 0x02, 0x02, 7, 0x00, 0})
	// PA batches backing off behind each other, final timestamps, releases.
	f.Add(uint8(2), []byte{3, 0x02, 0x3f, 3, 0x06, 0x3d, 4, 0, 0, 4, 0, 0, 5, 0, 1, 6, 0, 2, 3, 0x0a, 0x21})
	for seed := int64(1); seed <= 25; seed++ {
		shardsRaw, script := soupScript(seed)
		f.Add(shardsRaw, script)
	}
	f.Fuzz(runQueueScript)
}
