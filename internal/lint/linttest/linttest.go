// Package linttest runs internal/lint analyzers over fixture packages and
// checks their diagnostics against expectations written in the fixtures
// themselves — the analysistest convention, reimplemented on the standard
// library:
//
//	global = m // want `stored into package-level variable global`
//
// Each `// want` comment carries one or more backquoted or quoted regular
// expressions that must each match a diagnostic reported on that line; a
// diagnostic with no matching expectation, or an expectation with no
// matching diagnostic, fails the test. Fixtures live under
// testdata/src/<importpath>/ and may import each other by those paths;
// standard-library imports fall back to a source importer.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ucc/internal/lint"
)

// Run loads each fixture package path from testdataDir/src, runs the
// analyzer over it, and matches diagnostics against the fixtures'
// `// want` expectations.
func Run(t *testing.T, a *lint.Analyzer, testdataDir string, paths ...string) {
	t.Helper()
	abs, err := filepath.Abs(testdataDir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	fix := &fixtureImporter{root: filepath.Join(abs, "src"), fset: fset, cache: map[string]*types.Package{}}
	for _, path := range paths {
		pkg, err := loadFixture(fset, fix, path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		diags, err := lint.RunPackage(pkg, []*lint.Analyzer{a})
		if err != nil {
			t.Fatalf("running %s over %s: %v", a.Name, path, err)
		}
		match(t, fset, pkg, diags)
	}
}

// loadFixture parses and typechecks one fixture package, keeping its AST
// for analysis.
func loadFixture(fset *token.FileSet, fix *fixtureImporter, path string) (*lint.Package, error) {
	dir := filepath.Join(fix.root, filepath.FromSlash(path))
	files, err := parseDir(fset, dir)
	if err != nil {
		return nil, err
	}
	return lint.CheckFiles(fset, path, files, fix)
}

func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	return files, nil
}

// fixtureImporter resolves fixture import paths from the testdata tree and
// everything else (the standard library) from GOROOT source.
type fixtureImporter struct {
	root   string
	fset   *token.FileSet
	cache  map[string]*types.Package
	stdlib types.Importer
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := fi.cache[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(fi.root, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		if fi.stdlib == nil {
			fi.stdlib = importer.ForCompiler(fi.fset, "source", nil)
		}
		return fi.stdlib.Import(path)
	}
	files, err := parseDir(fi.fset, dir)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: fi}
	pkg, err := conf.Check(path, fi.fset, files, nil)
	if err != nil {
		return nil, err
	}
	fi.cache[path] = pkg
	return pkg, nil
}

// expectation is one `// want` regexp awaiting a diagnostic.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// collectWants extracts expectations from a package's comments.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var exps []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, raw := range splitPatterns(m[1]) {
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, raw, err)
					}
					exps = append(exps, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}
	return exps
}

// splitPatterns parses the tail of a want comment: a space-separated list
// of `backquoted` or "quoted" patterns.
func splitPatterns(s string) []string {
	var out []string
	s = strings.TrimSpace(s)
	for len(s) > 0 {
		quote := s[0]
		if quote != '`' && quote != '"' {
			break
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			break
		}
		out = append(out, s[1:1+end])
		s = strings.TrimSpace(s[end+2:])
	}
	return out
}

func match(t *testing.T, fset *token.FileSet, pkg *lint.Package, diags []lint.Diagnostic) {
	t.Helper()
	exps := collectWants(t, fset, pkg.Files)
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		found := false
		for _, e := range exps {
			if e.matched || e.file != pos.Filename || e.line != pos.Line {
				continue
			}
			if e.re.MatchString(d.Message) {
				e.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s: %s", pos, d.Message)
		}
	}
	for _, e := range exps {
		if !e.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.raw)
		}
	}
}
