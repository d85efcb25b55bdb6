package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer describes one named check. The Run function inspects a single
// package and reports findings through the Pass; it must not retain the
// Pass after returning.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// "//ucclint:allow <name>" suppression comments. Lowercase, no spaces.
	Name string
	// Doc is the one-paragraph description shown by `ucclint -help`.
	Doc string
	// Run performs the check.
	Run func(*Pass) error
}

// Pass carries one package's worth of inputs to an Analyzer.Run and
// collects its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	d := Diagnostic{Analyzer: p.Analyzer.Name, Pos: pos, Message: fmt.Sprintf(format, args...)}
	*p.diags = append(*p.diags, d)
}

// Diagnostic is one finding: a position and a message.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// Package is one loaded, typechecked package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// allowRE matches suppression comments:
//
//	//ucclint:allow name1,name2 -- reason the invariant holds here
//
// A diagnostic is suppressed when a comment naming its analyzer sits on
// the flagged line or on the line directly above it. The "-- reason" tail
// is for the human reviewer; the analyzer only reads the name list.
var allowRE = regexp.MustCompile(`^//ucclint:allow\s+([A-Za-z0-9_,-]+)`)

// allowedLines maps file → line → set of analyzer names suppressed there.
func allowedLines(fset *token.FileSet, files []*ast.File) map[string]map[int]map[string]bool {
	out := map[string]map[int]map[string]bool{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				byLine := out[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					out[pos.Filename] = byLine
				}
				names := byLine[pos.Line]
				if names == nil {
					names = map[string]bool{}
					byLine[pos.Line] = names
				}
				for _, n := range strings.Split(m[1], ",") {
					names[strings.TrimSpace(n)] = true
				}
			}
		}
	}
	return out
}

// RunPackage runs the analyzers over one package and returns the surviving
// diagnostics sorted by position. Diagnostics suppressed by an
// "//ucclint:allow" comment on (or directly above) the flagged line are
// dropped.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	allowed := allowedLines(pkg.Fset, pkg.Files)
	kept := diags[:0]
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		byLine := allowed[pos.Filename]
		if byLine != nil && (byLine[pos.Line][d.Analyzer] || byLine[pos.Line-1][d.Analyzer]) {
			continue
		}
		kept = append(kept, d)
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].Pos != kept[j].Pos {
			return kept[i].Pos < kept[j].Pos
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept, nil
}

// Format renders one diagnostic the way every Go tool does:
// file:line:col: message (analyzer).
func Format(fset *token.FileSet, d Diagnostic) string {
	return fmt.Sprintf("%s: %s (%s)", fset.Position(d.Pos), d.Message, d.Analyzer)
}

// PathHasSuffix reports whether the import path is exactly suffix or ends
// with "/"+suffix — the way analyzers recognise well-known packages
// ("internal/engine", "internal/model") without hard-coding the module
// name, so fixture modules under other names exercise the same code.
func PathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
