package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// Loading for the standalone multichecker (`ucclint ./...`).
//
// The approach is the same one `go vet` uses under the hood, done by hand:
// ask the go command to build export data for the requested packages and
// their whole dependency closure (`go list -deps -export -json`), then
// typecheck each requested package from source with an importer that reads
// its dependencies' export data out of the build cache. No network, no
// GOPATH assumptions, and the go command's own build cache makes repeat
// runs cheap.

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	Err        *struct{ Err string }
}

// Load lists patterns in dir, typechecks every matched (non-dependency)
// package from source, and returns them ready for RunPackage. Test files
// are not loaded: ucclint checks production code, and test harnesses
// legitimately poke invariants (retaining pooled messages, holding several
// shard locks to stage a state) that would drown the signal in
// allow-comments.
func Load(dir string, patterns []string) ([]*Package, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,Export,Standard,DepOnly,GoFiles,Err"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}

	exports := map[string]string{}
	var targets []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		if p.Err != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Err.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, func(path string) (string, bool) {
		f, ok := exports[path]
		return f, ok
	})

	var pkgs []*Package
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(t.GoFiles))
		for i, f := range t.GoFiles {
			files[i] = filepath.Join(t.Dir, f)
		}
		pkg, err := Check(fset, t.ImportPath, files, imp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// exportImporter returns a types.Importer that resolves every import from
// gc export data located by lookup (import path → export file).
func exportImporter(fset *token.FileSet, lookup func(path string) (string, bool)) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := lookup(path)
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
}

// Check parses and typechecks one package from source files on disk.
func Check(fset *token.FileSet, path string, filenames []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return CheckFiles(fset, path, files, imp)
}

// CheckFiles typechecks already-parsed files as one package. It is the
// shared backend of Load, the unitchecker, and the linttest fixture
// loader.
func CheckFiles(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &Package{
		Path:  path,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}
