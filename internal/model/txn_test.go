package model

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestNewTxnDedupAndOverlap(t *testing.T) {
	tx := NewTxn(TxnID{Site: 1, Seq: 1}, TwoPL,
		[]ItemID{1, 2, 3, 3, 2}, []ItemID{3, 4, 4}, 100)
	if got := tx.NumReads(); got != 2 {
		t.Fatalf("reads=%d want 2 (overlap with writes removed, dups removed)", got)
	}
	if got := tx.NumWrites(); got != 2 {
		t.Fatalf("writes=%d want 2", got)
	}
	if !tx.Writes(3) {
		t.Fatal("item read+written must land in the write set")
	}
	if tx.Size() != 4 {
		t.Fatalf("size=%d want 4", tx.Size())
	}
}

func TestTxnOpsOrder(t *testing.T) {
	tx := NewTxn(TxnID{}, TO, []ItemID{5, 1}, []ItemID{3}, 0)
	ops := tx.Ops()
	if len(ops) != 3 {
		t.Fatalf("ops=%d want 3", len(ops))
	}
	// Reads first (sorted), then writes.
	if ops[0].Kind != OpRead || ops[0].Item != 1 || ops[1].Item != 5 || ops[2].Kind != OpWrite {
		t.Fatalf("unexpected op order: %v", ops)
	}
}

func TestTxnAccessors(t *testing.T) {
	tx := NewTxn(TxnID{}, PA, []ItemID{1}, []ItemID{2}, 0)
	if tx.Writes(1) || !tx.Writes(2) {
		t.Fatal("Writes wrong")
	}
}

func TestSpecFor(t *testing.T) {
	tx := NewTxn(TxnID{}, PA, nil, []ItemID{2, 7}, 0)
	tx.Specs = []WriteSpec{{Item: 7, UseSource: true, Source: 7, AddConst: -5}}
	if _, ok := tx.SpecFor(2); ok {
		t.Fatal("item 2 has no spec")
	}
	s, ok := tx.SpecFor(7)
	if !ok || s.AddConst != -5 {
		t.Fatalf("SpecFor(7) = %+v, %v", s, ok)
	}
}

// Property: NewTxn always produces disjoint sorted sets whose union covers
// the inputs.
func TestNewTxnProperties(t *testing.T) {
	f := func(reads, writes []uint8) bool {
		var rs, ws []ItemID
		for _, r := range reads {
			rs = append(rs, ItemID(r%16))
		}
		for _, w := range writes {
			ws = append(ws, ItemID(w%16))
		}
		tx := NewTxn(TxnID{Site: 1, Seq: 2}, TO, rs, ws, 0)
		// Disjoint.
		for _, r := range tx.ReadSet {
			for _, w := range tx.WriteSet {
				if r == w {
					return false
				}
			}
		}
		// Sorted, unique.
		for i := 1; i < len(tx.ReadSet); i++ {
			if tx.ReadSet[i-1] >= tx.ReadSet[i] {
				return false
			}
		}
		for i := 1; i < len(tx.WriteSet); i++ {
			if tx.WriteSet[i-1] >= tx.WriteSet[i] {
				return false
			}
		}
		// Coverage: every input item is read or written.
		for _, r := range rs {
			if !slices.Contains(tx.ReadSet, r) && !tx.Writes(r) {
				return false
			}
		}
		for _, w := range ws {
			if !tx.Writes(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestStringFormats(t *testing.T) {
	// Smoke-test the fmt.Stringer implementations (they feed logs/tables).
	if TwoPL.String() != "2PL" || TO.String() != "T/O" || PA.String() != "PA" {
		t.Fatal("protocol strings")
	}
	if OpRead.String() != "r" || OpWrite.String() != "w" {
		t.Fatal("op kind strings")
	}
	if RL.String() != "RL" || SWL.String() != "SWL" {
		t.Fatal("lock strings")
	}
	id := TxnID{Site: 3, Seq: 9}
	if id.String() != "t3.9" {
		t.Fatalf("txn id string = %q", id.String())
	}
	if OutcomeCommitted.String() != "committed" {
		t.Fatal("outcome string")
	}
}
