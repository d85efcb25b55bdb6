// Package sheddable pins the PR 4 deadlock-freedom argument: only
// new-work openers may implement model.Sheddable. Bounded mailboxes and
// queues refuse sheddable messages with a busy NAK at the bound but admit
// everything else past it; that policy is deadlock-free precisely because
// messages that complete in-flight protocol work — releases, aborts,
// grants, final timestamps, busy NAKs themselves — can never be shed.
// Marking a completer Sheddable would let a saturated site drop a lock
// release and strand the item's queue forever.
//
// The analyzer inspects the model package (any package whose import path
// ends in internal/model) for methods that make a message type satisfy
// Sheddable (a Busy method on a Message implementation) and reports:
//
//   - any implementation on a type whose name marks it as protocol
//     completion traffic (Release, Abort, Grant, FinalTS, Reject, Backoff,
//     Victim, Busy, Finished, Done, Withdraw, Revoke);
//   - any implementation on a new type that does not carry a
//     "//ucclint:sheddable" marker in its doc comment stating why shedding
//     that message cannot strand protocol state.
//
// The two grandfathered openers, RequestMsg and SnapReadMsg, carry the
// marker in internal/model/messages.go, and so does the first new one,
// RequestBatchMsg. A batch of completers (ReleaseBatchMsg, GrantBatchMsg) is
// completion traffic by name like its members.
package sheddable

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"ucc/internal/lint"
)

// Analyzer flags Sheddable implementations that break the completer rule.
var Analyzer = &lint.Analyzer{
	Name: "sheddable",
	Doc: "no completer/withdraw/release message type may be marked Sheddable (shedding a " +
		"completion strands locks forever); new sheddable openers need a //ucclint:sheddable " +
		"marker stating the shed-safety argument",
	Run: run,
}

// completerRE matches message type names that denote completion traffic.
var completerRE = regexp.MustCompile(`(Release|Abort|Grant|FinalTS|Reject|Backoff|Victim|Busy|Finished|Done|Withdraw|Revoke)`)

// marker is the doc-comment opt-in for new sheddable openers.
const marker = "//ucclint:sheddable"

func run(pass *lint.Pass) error {
	if !lint.PathHasSuffix(pass.Pkg.Path(), "internal/model") {
		return nil
	}
	msgIface := messageInterface(pass.Pkg)
	if msgIface == nil {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "Busy" || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			recv := pass.TypesInfo.Defs[fd.Name]
			if recv == nil {
				continue
			}
			named := receiverNamed(recv.(*types.Func))
			if named == nil || !implementsMessage(named, msgIface) {
				continue
			}
			name := named.Obj().Name()
			switch {
			case completerRE.MatchString(name):
				pass.Reportf(fd.Name.Pos(),
					"%s is completion traffic and must never implement model.Sheddable: "+
						"shedding a completer strands in-flight protocol state (locks, grants) forever — "+
						"the bounded-queue policy is only deadlock-free because completers always pass the bound",
					name)
			case name == "RequestMsg" || name == "SnapReadMsg":
				// The two openers the PR 4 argument was made for.
			case !hasMarker(fd.Doc):
				pass.Reportf(fd.Name.Pos(),
					"%s newly implements model.Sheddable; add a %q marker to Busy's doc comment "+
						"stating why shedding this message cannot strand protocol state",
					name, marker)
			}
		}
	}
	return nil
}

// messageInterface returns the package's Message interface (the one with
// the unexported isMessage method), or nil.
func messageInterface(pkg *types.Package) *types.Interface {
	obj := pkg.Scope().Lookup("Message")
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return nil
	}
	iface, ok := tn.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	return iface
}

func receiverNamed(fn *types.Func) *types.Named {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func implementsMessage(named *types.Named, iface *types.Interface) bool {
	return types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)
}

func hasMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, marker) {
			return true
		}
	}
	return false
}
