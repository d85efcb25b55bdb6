// Package poolsafe enforces the message/object-pool lifetime contract
// (internal/model/wirepool.go and the per-package hot-path pools): a value
// obtained from a pooled constructor — any function of a pooled package whose
// name starts or ends with Pooled, which covers the decode side
// (DecodeMessagePooled, ReadEnvelopePooled) and the
// send side (model.PooledRequest and its siblings), or a package-local acquire
// (qm's acquireEntry) — is valid only until its recycle call
// (RecycleMessage, recycleEntry), and a recycled value must never be touched
// again — the pool will hand the same struct to a concurrent caller and the
// "retained" object silently mutates.
//
// The analyzer taints the results of the pooled constructors inside each
// function and flags the retention vectors that outlive the call frame:
//
//   - stores through a pointer, into a package-level variable, or into a
//     struct reached from a receiver/parameter (assignment propagation
//     through function-local values is tracked, not flagged);
//   - channel sends;
//   - goroutine launches whose arguments or captured variables are
//     tainted;
//   - append into a slice.
//
// It also flags any use of a value after the RecycleMessage call that
// returned it to the pool (branch-sensitive: recycling on an error path
// that returns does not poison the happy path). The analysis is
// intra-procedural and deliberately conservative in what it reports —
// returning a pooled value to the caller, as the wire package's own
// plumbing does, transfers ownership and is not a diagnostic.
package poolsafe

import (
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"

	"ucc/internal/lint"
)

// Analyzer flags pooled-message lifetime violations.
var Analyzer = &lint.Analyzer{
	Name: "poolsafe",
	Doc: "values from pooled constructors (XPooled on the decode side, PooledX on the send side, " +
		"qm's acquireEntry) must not be retained past " +
		"their recycle call (no stores through pointers/globals, channel sends, goroutine captures, " +
		"or appends), and recycled values must not be re-read",
	Run: run,
}

// isPooledConstructor reports whether a function named name is a taint
// source, given that it is declared in a package whose import path ends in
// one of pooledPackages. The decode side ends in Pooled and returns
// wire-decoded pooled messages; the send-side boxing used on the transaction
// hot path starts with it; acquireEntry is the queue-table pool.
func isPooledConstructor(name string) bool {
	return strings.HasPrefix(name, "Pooled") || strings.HasSuffix(name, "Pooled") || name == "acquireEntry"
}

// recycleFuncs names the calls that return a pooled value to its pool; the
// argument becomes poison for the rest of the path. Each must be declared in
// a package whose import path ends in one of pooledPackages.
var recycleFuncs = map[string]bool{
	"RecycleMessage": true,
	"recycleEntry":   true,
}

// pooledPackages are the import-path suffixes that may declare taint sources
// and recycle calls — the packages owning a hot-path pool.
var pooledPackages = []string{
	"internal/model",
	"internal/wire",
	"internal/qm",
}

func inPooledPackage(path string) bool {
	for _, suffix := range pooledPackages {
		if lint.PathHasSuffix(path, suffix) {
			return true
		}
	}
	return false
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				analyzeFunc(pass, fd.Body)
			}
		}
	}
	return nil
}

// analyzeFunc runs both checks over one function body.
func analyzeFunc(pass *lint.Pass, body *ast.BlockStmt) {
	fn := &funcState{pass: pass, tainted: map[types.Object]bool{}}
	fn.collectTaint(body)
	if len(fn.tainted) > 0 {
		fn.flagEscapes(body)
	}
	fn.scanRecycle(body.List, map[string]token.Pos{})
}

type funcState struct {
	pass    *lint.Pass
	tainted map[types.Object]bool
}

// isPooledCall reports whether e is a call to one of the pooled
// constructors.
func (fn *funcState) isPooledCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	var id *ast.Ident
	switch f := call.Fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return false
	}
	if !isPooledConstructor(id.Name) {
		return false
	}
	obj := fn.pass.TypesInfo.Uses[id]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return inPooledPackage(obj.Pkg().Path())
}

// isRecycleCall matches a recycle call (model.RecycleMessage, qm's
// recycleEntry) and returns the recycled arg.
func (fn *funcState) isRecycleCall(e ast.Expr) (ast.Expr, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil, false
	}
	var id *ast.Ident
	switch f := call.Fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil, false
	}
	if !recycleFuncs[id.Name] {
		return nil, false
	}
	obj := fn.pass.TypesInfo.Uses[id]
	if obj == nil || obj.Pkg() == nil || !inPooledPackage(obj.Pkg().Path()) {
		return nil, false
	}
	return call.Args[0], true
}

// collectTaint walks the body in source order, tainting variables assigned
// from pooled constructors and propagating through local value copies.
func (fn *funcState) collectTaint(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		fromPooled := len(as.Rhs) == 1 && fn.isPooledCall(as.Rhs[0])
		fromTainted := false
		for _, rhs := range as.Rhs {
			if fn.exprTainted(rhs) {
				fromTainted = true
			}
		}
		if !fromPooled && !fromTainted {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := fn.pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = fn.pass.TypesInfo.Uses[id]
			}
			if obj == nil || isErrorType(obj.Type()) || isBasic(obj.Type()) {
				continue
			}
			fn.tainted[obj] = true
		}
		return true
	})
}

// exprTainted reports whether the expression mentions a tainted variable.
func (fn *funcState) exprTainted(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := fn.pass.TypesInfo.Uses[id]; obj != nil && fn.tainted[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// flagEscapes reports the retention vectors.
func (fn *funcState) flagEscapes(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range v.Lhs {
				var rhs ast.Expr
				if len(v.Rhs) == len(v.Lhs) {
					rhs = v.Rhs[i]
				} else if len(v.Rhs) == 1 {
					rhs = v.Rhs[0]
				}
				if rhs == nil || !fn.exprTainted(rhs) {
					continue
				}
				if base, escapes := fn.escapingStore(lhs); escapes {
					fn.pass.Reportf(v.Pos(),
						"pooled message stored into %s, which outlives the call frame: the value is "+
							"only valid until RecycleMessage (retain a copy with model.RetainMessage "+
							"instead)", base)
				}
			}
		case *ast.SendStmt:
			if fn.exprTainted(v.Value) {
				fn.pass.Reportf(v.Pos(),
					"pooled message sent on a channel: the receiver may read it after RecycleMessage "+
						"returns it to the pool (retain a copy with model.RetainMessage instead)")
			}
		case *ast.GoStmt:
			if fn.goTainted(v) {
				fn.pass.Reportf(v.Pos(),
					"pooled message captured by a goroutine: it may run after RecycleMessage returns "+
						"the struct to the pool (retain a copy with model.RetainMessage instead)")
			}
		case *ast.CallExpr:
			id, isIdent := v.Fun.(*ast.Ident)
			if !isIdent || id.Name != "append" {
				break
			}
			if _, isBuiltin := fn.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin && len(v.Args) > 1 {
				for _, arg := range v.Args[1:] {
					if fn.exprTainted(arg) {
						fn.pass.Reportf(v.Pos(),
							"pooled message appended to a slice: the slice retains it past RecycleMessage "+
								"(retain a copy with model.RetainMessage instead)")
						break
					}
				}
			}
		}
		return true
	})
}

// escapingStore decides whether assigning into lhs retains the value
// beyond the function frame. Stores into function-local value variables
// only propagate taint (handled by collectTaint); everything else —
// pointer dereferences, package-level variables, fields reached through a
// pointer base — escapes.
func (fn *funcState) escapingStore(lhs ast.Expr) (string, bool) {
	switch l := lhs.(type) {
	case *ast.Ident:
		// Plain local variable: propagation. Package-level variable: escape.
		if obj, ok := fn.pass.TypesInfo.Uses[l].(*types.Var); ok &&
			obj.Pkg() != nil && obj.Pkg().Scope().Lookup(obj.Name()) == obj {
			return "package-level variable " + l.Name, true
		}
		return "", false
	case *ast.StarExpr:
		return render(fn.pass.Fset, lhs), true
	case *ast.SelectorExpr, *ast.IndexExpr:
		base := rootExpr(lhs)
		id, ok := base.(*ast.Ident)
		if !ok {
			return render(fn.pass.Fset, l), true
		}
		obj, ok := fn.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok {
			return render(fn.pass.Fset, l), true
		}
		// Package-level variable: escapes.
		if obj.Pkg() != nil && obj.Pkg().Scope().Lookup(obj.Name()) == obj {
			return render(fn.pass.Fset, l), true
		}
		// Local pointer base: the store lands in memory someone else sees.
		if _, ptr := obj.Type().Underlying().(*types.Pointer); ptr {
			return render(fn.pass.Fset, l), true
		}
		return "", false // field/element of a local value: propagation
	default:
		return "", false
	}
}

// goTainted reports whether a go statement's call references a tainted
// variable in its arguments or its function-literal body.
func (fn *funcState) goTainted(g *ast.GoStmt) bool {
	for _, arg := range g.Call.Args {
		if fn.exprTainted(arg) {
			return true
		}
	}
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		found := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				obj := fn.pass.TypesInfo.Uses[id]
				// Only variables DECLARED outside the literal are captures; a
				// pooled value acquired inside the goroutine body is
				// goroutine-local and its lifetime is that frame's problem.
				if obj != nil && fn.tainted[obj] &&
					(obj.Pos() < lit.Pos() || obj.Pos() > lit.End()) {
					found = true
				}
			}
			return !found
		})
		return found
	}
	return false
}

// scanRecycle walks statements in order tracking which expressions have
// been recycled, reporting later uses. Branches that terminate (return or
// panic) do not leak their recycled set into the fallthrough path.
func (fn *funcState) scanRecycle(stmts []ast.Stmt, recycled map[string]token.Pos) bool {
	terminated := false
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if arg, ok := fn.isRecycleCall(s.X); ok {
				recycled[render(fn.pass.Fset, arg)] = s.Pos()
				continue
			}
			fn.checkRecycledUse(s, recycled)
		case *ast.ReturnStmt:
			fn.checkRecycledUse(s, recycled)
			terminated = true
		case *ast.AssignStmt:
			// Reading a recycled value on the right is a use; assigning a
			// fresh value over it makes the variable valid again.
			for _, rhs := range s.Rhs {
				fn.checkRecycledUse(rhs, recycled)
			}
			for _, lhs := range s.Lhs {
				key := render(fn.pass.Fset, lhs)
				for k := range recycled {
					if k == key || strings.HasPrefix(k, key+".") || strings.HasPrefix(k, key+"[") {
						delete(recycled, k)
					}
				}
			}
		case *ast.IfStmt:
			if s.Init != nil {
				fn.checkRecycledUse(s.Init, recycled)
			}
			fn.checkRecycledUseExpr(s.Cond, recycled)
			thenRec := copyMap(recycled)
			thenTerm := fn.scanRecycle(s.Body.List, thenRec)
			var elseRec map[string]token.Pos
			elseTerm := false
			if s.Else != nil {
				elseRec = copyMap(recycled)
				switch e := s.Else.(type) {
				case *ast.BlockStmt:
					elseTerm = fn.scanRecycle(e.List, elseRec)
				case *ast.IfStmt:
					elseTerm = fn.scanRecycle([]ast.Stmt{e}, elseRec)
				}
			}
			if !thenTerm {
				merge(recycled, thenRec)
			}
			if elseRec != nil && !elseTerm {
				merge(recycled, elseRec)
			}
			if thenTerm && s.Else != nil && elseTerm {
				terminated = true
			}
		case *ast.ForStmt:
			inner := copyMap(recycled)
			fn.scanRecycle(s.Body.List, inner)
			merge(recycled, inner)
		case *ast.RangeStmt:
			inner := copyMap(recycled)
			fn.scanRecycle(s.Body.List, inner)
			merge(recycled, inner)
		case *ast.BlockStmt:
			if fn.scanRecycle(s.List, recycled) {
				terminated = true
			}
		case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			// Each clause scans against a copy; non-terminating clauses merge.
			ast.Inspect(stmt, func(n ast.Node) bool {
				if cc, ok := n.(*ast.CaseClause); ok {
					inner := copyMap(recycled)
					if !fn.scanRecycle(cc.Body, inner) {
						merge(recycled, inner)
					}
					return false
				}
				if cc, ok := n.(*ast.CommClause); ok {
					inner := copyMap(recycled)
					if !fn.scanRecycle(cc.Body, inner) {
						merge(recycled, inner)
					}
					return false
				}
				return true
			})
		default:
			fn.checkRecycledUse(stmt, recycled)
			if isPanic(stmt) {
				terminated = true
			}
		}
	}
	return terminated
}

// checkRecycledUse reports any reference within n to an expression that
// was recycled earlier on this path.
func (fn *funcState) checkRecycledUse(n ast.Node, recycled map[string]token.Pos) {
	if len(recycled) == 0 {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		e, ok := m.(ast.Expr)
		if !ok {
			return true
		}
		switch e.(type) {
		case *ast.Ident, *ast.SelectorExpr:
			if _, done := recycled[render(fn.pass.Fset, e)]; done {
				fn.pass.Reportf(e.Pos(),
					"%s is used after RecycleMessage returned it to the pool: a concurrent decode "+
						"may already be rewriting the struct", render(fn.pass.Fset, e))
				return false
			}
		}
		return true
	})
}

func (fn *funcState) checkRecycledUseExpr(e ast.Expr, recycled map[string]token.Pos) {
	if e != nil {
		fn.checkRecycledUse(e, recycled)
	}
}

func rootExpr(e ast.Expr) ast.Expr {
	for {
		switch v := e.(type) {
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return e
		}
	}
}

func render(fset *token.FileSet, n ast.Node) string {
	var sb strings.Builder
	printer.Fprint(&sb, fset, n)
	return sb.String()
}

func copyMap(m map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func merge(dst, src map[string]token.Pos) {
	for k, v := range src {
		dst[k] = v
	}
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

func isBasic(t types.Type) bool {
	_, ok := t.Underlying().(*types.Basic)
	return ok
}

func isPanic(stmt ast.Stmt) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
