package model

import (
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestMessageStringer(t *testing.T) {
	m := RequestMsg{
		Txn: TxnID{Site: 1, Seq: 2}, Protocol: TO, Kind: OpRead,
		Copy: CopyID{Item: 3, Site: 4}, TS: 5,
	}
	if s := m.String(); s == "" {
		t.Fatal("empty RequestMsg string")
	}
}

// rowValue is a value of the type tag's decode-table row decodes to: the zero
// value, except that a batch has two members so it travels under its own tag.
// Every decoder returns its type's zero value for an empty payload. It is nil
// for a tag without a row.
func rowValue(tag WireTag) Message {
	if codecs[tag].decode == nil {
		return nil
	}
	var empty WireReader
	switch m := codecs[tag].decode(&empty).(type) {
	case RequestBatchMsg:
		m.Members = make([]RequestMember, 2)
		return m
	case ReleaseBatchMsg:
		m.Members = make([]ReleaseMember, 2)
		return m
	case AbortBatchMsg:
		m.Members = make([]ItemID, 2)
		return m
	case GrantBatchMsg:
		m.Members = make([]GrantMember, 2)
		return m
	case SnapReadBatchMsg:
		m.Members = make([]ItemID, 2)
		return m
	case SnapReadReplyBatchMsg:
		m.Members = make([]SnapReadReplyMember, 2)
		return m
	case SubmitTxnMsg:
		m.Txn = &Txn{} // a nil Txn decodes to nil, from no pool
		return m
	default:
		return m
	}
}

// TestMessageTable: every tag up to TagLast has a decode-table row, the row's
// type travels under that tag and decodes back to the same type, and exactly
// the seventeen hot protocol types, the catch-up pull and reply and the
// wait-for report come back from DecodeMessagePooled as pointers, and the
// submit with a pooled Txn.
func TestMessageTable(t *testing.T) {
	decodePooled := map[WireTag]bool{
		TagRequest: true, TagFinalTS: true, TagRelease: true, TagAbort: true, TagGrant: true,
		TagNormalGrant: true, TagReject: true, TagBackoff: true, TagBusy: true,
		TagSnapRead: true, TagSnapReadReply: true,
		TagRequestBatch: true, TagReleaseBatch: true, TagGrantBatch: true,
		TagSnapReadBatch: true, TagSnapReadReplyBatch: true, TagAbortBatch: true,
		TagSubmitTxn: true,
		TagReplPull:  true, TagReplRecords: true, TagWFGReport: true,
	}
	for tag := TagRequest; tag <= TagLast; tag++ {
		m := rowValue(tag)
		if m == nil {
			t.Errorf("tag %d has no decode-table row", tag)
			continue
		}
		if got := m.wireTag(); got != tag {
			t.Errorf("tag %d's row decodes a %T, which travels under tag %d", tag, m, got)
			continue
		}
		b, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		r := NewWireReader(b[1:])
		back, err := DecodeMessage(tag, &r)
		if err != nil || reflect.TypeOf(back) != reflect.TypeOf(m) {
			t.Errorf("%T decodes back as %T (%v)", m, back, err)
		}
		r = NewWireReader(b[1:])
		p, err := DecodeMessagePooled(tag, &r)
		if err != nil {
			t.Fatalf("%T: pooled decode: %v", m, err)
		}
		isPooled := reflect.TypeOf(p).Kind() == reflect.Pointer
		if s, ok := p.(SubmitTxnMsg); ok {
			isPooled = s.Txn.pooled
		}
		if isPooled != decodePooled[tag] {
			t.Errorf("%T: DecodeMessagePooled returned %T, want it pooled: %v", m, p, decodePooled[tag])
		}
		RecycleMessage(p)
	}
}

// TestEveryMessageTypeIsInTheTable: the types that declare a wire tag in this
// package's sources are exactly the decode table's types, so no message type
// can encode without a decoder.
func TestEveryMessageTypeIsInTheTable(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "wireTag" {
				continue
			}
			recv := fd.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			declared[recv.(*ast.Ident).Name] = true
		}
	}
	table := map[string]bool{}
	for tag := TagRequest; tag <= TagLast; tag++ {
		if m := rowValue(tag); m != nil {
			table[reflect.TypeOf(m).Name()] = true
		}
	}
	if !maps.Equal(declared, table) {
		t.Fatalf("types declaring wireTag:\n%v\ndecode table's types:\n%v",
			slices.Sorted(maps.Keys(declared)), slices.Sorted(maps.Keys(table)))
	}
}

// TestOnlyOpenersShed pins which messages implement Sheddable: the new-work
// openers, and nothing else. Bounded mailboxes and queues refuse a sheddable
// message with a busy NAK at the bound but admit everything else past it, and
// that policy is deadlock-free precisely because the messages that complete
// in-flight protocol work — releases, aborts, grants, final timestamps, busy
// NAKs themselves — can never be shed. A completer marked Sheddable would let
// a saturated site drop a lock release and strand the item's queue forever. A
// new opener joins the set with the argument, written on its Busy method, for
// why shedding it cannot strand protocol state.
func TestOnlyOpenersShed(t *testing.T) {
	want := map[string]bool{"RequestMsg": true, "RequestBatchMsg": true, "SnapReadMsg": true, "SnapReadBatchMsg": true}
	got := map[string]bool{}
	for tag := TagRequest; tag <= TagLast; tag++ {
		m := rowValue(tag)
		if m == nil {
			continue
		}
		_, value := m.(Sheddable)
		_, pointer := reflect.New(reflect.TypeOf(m)).Interface().(Sheddable)
		if value || pointer {
			got[reflect.TypeOf(m).Name()] = true
		}
	}
	if !maps.Equal(got, want) {
		t.Fatalf("sheddable message types %v, want exactly the openers %v",
			slices.Sorted(maps.Keys(got)), slices.Sorted(maps.Keys(want)))
	}
}
