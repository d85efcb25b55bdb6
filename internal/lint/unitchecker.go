package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
)

// The `go vet -vettool` protocol, reimplemented from the x/tools
// unitchecker contract the go command expects:
//
//   - `tool -V=full` prints a single version line the go command hashes
//     into its action cache key (handled in cmd/ucclint).
//   - For every package, the go command invokes `tool <file>.cfg` where
//     the cfg is a JSON description of the unit: source files, the import
//     map, and the export-data file for every dependency, all already
//     built. The tool typechecks the unit, runs its analyzers, writes the
//     (possibly empty) facts file named by VetxOutput, prints diagnostics
//     to stderr, and exits 2 when it found any.
//
// This keeps `go vet -vettool=$(pwd)/ucclint ./...` working with full
// incremental caching even though this module cannot vendor x/tools.

// vetConfig mirrors the JSON the go command writes for each vet unit.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Unitcheck runs analyzers over the single vet unit described by cfgFile
// and returns the process exit code (0 clean, 1 internal error, 2 found
// diagnostics). Diagnostics and errors go to stderr, matching what the go
// command relays to the user.
func Unitcheck(cfgFile string, analyzers []*Analyzer) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ucclint: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "ucclint: parsing %s: %v\n", cfgFile, err)
		return 1
	}

	// The facts file must exist for the go command's caching even though
	// these analyzers exchange no facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "ucclint: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	// Test files are out of scope (tests stage invariant violations on
	// purpose); dropping them up front also skips external-test variants
	// entirely.
	var filenames []string
	for _, f := range cfg.GoFiles {
		if !strings.HasSuffix(f, "_test.go") {
			filenames = append(filenames, f)
		}
	}
	if len(filenames) == 0 {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ucclint: %v\n", err)
			return 1
		}
		files = append(files, f)
	}

	imp := exportImporter(fset, func(path string) (string, bool) {
		if canonical, ok := cfg.ImportMap[path]; ok {
			path = canonical
		}
		f, ok := cfg.PackageFile[path]
		return f, ok
	})
	pkg, err := CheckFiles(fset, cfg.ImportPath, files, imp)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "ucclint: %v\n", err)
		return 1
	}

	diags, err := RunPackage(pkg, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ucclint: %v\n", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, Format(fset, d))
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
