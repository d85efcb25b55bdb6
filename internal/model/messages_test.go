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

// rowValue is a value of the type tag's decode-table row decodes to (a
// pooled type's value, not its pointer): the zero value, except that a
// batch has two members so it travels under its own tag and a single
// per-copy tag's batch of one keeps its one member. Every decoder returns
// its type's zero value for an empty payload, and a single per-copy tag's
// decoder a batch of one zero member. It is nil for a tag without a row.
func rowValue(tag WireTag) Message {
	if codecs[tag] == nil {
		return nil
	}
	var empty WireReader
	m := codecs[tag](&empty)
	defer RecycleMessage(m)
	switch m := m.(type) {
	case *RequestBatchMsg:
		return RequestBatchMsg{Members: zeroMembers(m.Members)}
	case *ReleaseBatchMsg:
		return ReleaseBatchMsg{Members: zeroMembers(m.Members)}
	case *AbortBatchMsg:
		return AbortBatchMsg{Members: zeroMembers(m.Members)}
	case *GrantBatchMsg:
		return GrantBatchMsg{Members: zeroMembers(m.Members)}
	case *SnapReadBatchMsg:
		return SnapReadBatchMsg{Members: zeroMembers(m.Members)}
	case *SnapReadReplyBatchMsg:
		return SnapReadReplyBatchMsg{Members: zeroMembers(m.Members)}
	case SubmitTxnMsg:
		return SubmitTxnMsg{Txn: &Txn{}} // a nil Txn decodes to nil, from no pool
	}
	if v := reflect.ValueOf(m); v.Kind() == reflect.Pointer {
		return reflect.Zero(v.Type().Elem()).Interface().(Message)
	}
	return m
}

// zeroMembers is the members of a row's batch value: the one zero member a
// single per-copy tag's batch of one decoded with, else two.
func zeroMembers[M any](decoded []M) []M {
	if len(decoded) == 1 {
		return make([]M, 1)
	}
	return make([]M, 2)
}

// TestMessageTable: every tag up to TagLast but the retired ones has a
// decode-table row (a retired tag has none), the row's
// type travels under that tag and decodes back to the same type, and exactly
// the pooled types come back from DecodeMessagePooled as pointers (a single
// per-copy tag as its batch of one), and the submit with a pooled Txn.
func TestMessageTable(t *testing.T) {
	decodePooled := map[WireTag]bool{
		TagRequest: true, TagFinalTS: true, TagRelease: true, TagAbort: true, TagGrant: true,
		TagNormalGrant: true, TagReject: true, TagBackoff: true, TagBusy: true,
		TagSnapRead: true, TagSnapReadReply: true,
		TagRequestBatch: true, TagReleaseBatch: true, TagGrantBatch: true,
		TagSnapReadBatch: true, TagSnapReadReplyBatch: true, TagAbortBatch: true,
		TagSubmitTxn: true,
		TagReplPull:  true, TagReplRecords: true, TagWFGReport: true,
		TagProbeWFG: true, TagQueueStats: true, TagComputeDone: true, TagRestart: true,
	}
	for tag := TagRequest; tag <= TagLast; tag++ {
		m := rowValue(tag)
		if TagRetired(tag) || m == nil {
			if TagRetired(tag) != (m == nil) {
				t.Errorf("tag %d: retired %v, decode-table row %T", tag, TagRetired(tag), m)
			}
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
		p, err := DecodeMessagePooled(tag, &r)
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		back := reflect.TypeOf(p)
		isPooled := back.Kind() == reflect.Pointer
		if isPooled {
			back = back.Elem()
		}
		if s, ok := p.(SubmitTxnMsg); ok {
			isPooled = s.Txn.pooled
		}
		if back != reflect.TypeOf(m) {
			t.Errorf("%T decodes back as %T", m, p)
		}
		if isPooled != decodePooled[tag] {
			t.Errorf("%T: DecodeMessagePooled returned %T, want it pooled: %v", m, p, decodePooled[tag])
		}
		RecycleMessage(p)
	}
}

// TestEveryMessageTypeIsInTheTable: the types that declare a wire tag in this
// package's sources are exactly the decode table's types and the six single
// per-copy types, whose tags decode as their batch of one, so no message
// type can encode without a decoder.
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
	table := map[string]bool{
		"RequestMsg": true, "ReleaseMsg": true, "AbortMsg": true,
		"GrantMsg": true, "SnapReadMsg": true, "SnapReadReplyMsg": true,
	}
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
	want := map[string]bool{"RequestBatchMsg": true, "SnapReadBatchMsg": true}
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
