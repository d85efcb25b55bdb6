package qm

import (
	"math/rand"
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
// protocols and items, PA final timestamps, releases, semi-lock
// conversions, aborts, probes, stale releases — driven into a sharded
// manager, with checkQueueInvariants asserted on every queue after every
// message. At the end every live transaction is aborted and every queue
// must drain empty.
//
// The script grammar is 3 bytes per step:
//
//	b0 % 8  → opcode (0-3 request, 4 finalTS, 5-6 release, 7 abort/probe/stale)
//	b1      → protocol/kind/item selector
//	b2      → timestamp delta / txn selector
func runQueueScript(t *testing.T, shardsRaw uint8, script []byte) {
	const items = 4
	shards := 1 + int(shardsRaw%4)
	st := storage.NewStore(0)
	for i := 0; i < items; i++ {
		st.Create(model.ItemID(i), 0)
	}
	m := New(0, st, nil, Options{Shards: shards})
	ctx := newFakeCtx()

	type liveTxn struct {
		id       model.TxnID
		protocol model.Protocol
		kind     model.OpKind
		item     model.ItemID
		granted  bool
		preSched bool
		semi     bool
		backoff  model.Timestamp
	}
	var live []*liveTxn
	var nextSeq uint64
	ts := model.Timestamp(1)

	find := func(id model.TxnID) *liveTxn {
		for _, lt := range live {
			if lt.id == id {
				return lt
			}
		}
		return nil
	}
	remove := func(lt *liveTxn) {
		for i, x := range live {
			if x == lt {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}
	drain := func() {
		for _, env := range ctx.sent {
			switch v := env.Msg.(type) {
			case model.GrantMsg:
				if lt := find(v.Txn); lt != nil {
					lt.granted = true
					lt.preSched = v.PreScheduled
				}
			case model.BackoffMsg:
				if lt := find(v.Txn); lt != nil {
					lt.backoff = v.NewTS
				}
			case model.RejectMsg:
				if lt := find(v.Txn); lt != nil {
					remove(lt)
				}
			}
		}
		ctx.sent = nil
	}
	checkAll := func() {
		for i := 0; i < items; i++ {
			checkQueueInvariants(t, m.queueOf(model.ItemID(i)))
		}
	}

	for at := 0; at+2 < len(script); at += 3 {
		b0, b1, b2 := script[at], script[at+1], script[at+2]
		switch b0 % 8 {
		case 0, 1, 2, 3: // new request
			nextSeq++
			lt := &liveTxn{
				id:       model.TxnID{Site: model.SiteID(1 + b1%3), Seq: nextSeq},
				protocol: model.Protocol(b1 % 3),
				kind:     model.OpKind((b1 >> 4) % 2),
				item:     model.ItemID(b1 % items),
			}
			ts += model.Timestamp(b2 % 5)
			live = append(live, lt)
			m.OnMessage(ctx, engine.RIAddr(lt.id.Site), model.RequestMsg{
				Txn: lt.id, Protocol: lt.protocol, Kind: lt.kind,
				Copy: model.CopyID{Item: lt.item, Site: 0},
				TS:   ts, Interval: model.Timestamp(1 + b2%20),
				Site: lt.id.Site,
			})
		case 4: // final timestamp for a backed-off PA txn
			for _, lt := range live {
				if lt.protocol == model.PA && lt.backoff > 0 {
					m.OnMessage(ctx, engine.RIAddr(lt.id.Site), model.FinalTSMsg{
						Txn: lt.id, Copy: model.CopyID{Item: lt.item, Site: 0},
						TS: lt.backoff,
					})
					lt.backoff = 0
					lt.granted = false
					break
				}
			}
		case 5, 6: // release a granted txn (conversion first for T/O preSched)
			for _, lt := range live {
				if !lt.granted {
					continue
				}
				if lt.protocol == model.TO && lt.preSched && !lt.semi {
					m.OnMessage(ctx, engine.RIAddr(lt.id.Site), model.ReleaseMsg{
						Txn: lt.id, Copy: model.CopyID{Item: lt.item, Site: 0},
						ToSemi: true, HasWrite: lt.kind == model.OpWrite, Value: int64(b2),
					})
					lt.semi = true
					break
				}
				m.OnMessage(ctx, engine.RIAddr(lt.id.Site), model.ReleaseMsg{
					Txn: lt.id, Copy: model.CopyID{Item: lt.item, Site: 0},
					HasWrite: lt.kind == model.OpWrite && !lt.semi, Value: int64(b2),
				})
				remove(lt)
				break
			}
		case 7: // abort someone, probe (exercises waitEdges), or a stale release
			switch {
			case b2%2 == 0 && len(live) > 0:
				lt := live[int(b2/2)%len(live)]
				m.OnMessage(ctx, engine.RIAddr(lt.id.Site), model.AbortMsg{
					Txn: lt.id, Copy: model.CopyID{Item: lt.item, Site: 0},
				})
				remove(lt)
			case b2%4 == 3: // release from a long-gone attempt
				m.OnMessage(ctx, engine.RIAddr(1), model.ReleaseMsg{
					Txn:  model.TxnID{Site: 1, Seq: 999999},
					Copy: model.CopyID{Item: model.ItemID(b1 % items), Site: 0},
				})
			default:
				m.OnMessage(ctx, engine.RIAddr(0), model.ProbeWFGMsg{Round: uint64(at)})
			}
		}
		drain()
		checkAll()
	}

	// Abort everything; all queues must drain empty.
	for len(live) > 0 {
		lt := live[0]
		m.OnMessage(ctx, engine.RIAddr(lt.id.Site), model.AbortMsg{
			Txn: lt.id, Copy: model.CopyID{Item: lt.item, Site: 0},
		})
		remove(lt)
	}
	drain()
	checkAll()
	for i := 0; i < items; i++ {
		if d := m.QueueDepth(model.ItemID(i)); d != 0 {
			t.Fatalf("item %d queue not empty after abort-all: %d\n%s", i, d,
				strings.Join(m.DumpQueue(model.ItemID(i)), "\n"))
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
// one hand-written script per opcode family plus 25 seeded soups — runs on
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
	for seed := int64(1); seed <= 25; seed++ {
		shardsRaw, script := soupScript(seed)
		f.Add(shardsRaw, script)
	}
	f.Fuzz(runQueueScript)
}
