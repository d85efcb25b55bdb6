// Command ucclint is the multichecker for this repository's domain
// analyzers (internal/lint): poolsafe and lockorder. It runs two ways:
//
//	ucclint ./...                        # standalone over package patterns
//	go vet -vettool=$(pwd)/ucclint ./... # as the go command's vet tool
//
// The vettool mode speaks the unitchecker protocol (-V=full for the
// build-cache version stamp, a single *.cfg argument per package unit),
// so vet runs are incremental. Exit status: 0 clean, 1 internal error,
// 2 diagnostics found.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ucc/internal/lint"
	"ucc/internal/lint/lockorder"
	"ucc/internal/lint/poolsafe"
)

// analyzers is the full suite, in diagnostic-output order.
var analyzers = []*lint.Analyzer{
	poolsafe.Analyzer,
	lockorder.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, stderr io.Writer) int {
	// `go vet` probes the tool's flag surface with -flags before first use;
	// these analyzers take none.
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Fprintln(os.Stdout, "[]")
		return 0
	}

	fs := flag.NewFlagSet("ucclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	vFlag := fs.String("V", "", "if 'full', print the tool version for the go command's build cache")
	dirFlag := fs.String("dir", "", "directory to resolve package patterns in (default: current directory)")
	listFlag := fs.Bool("list", false, "list the analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: ucclint [packages]\n       go vet -vettool=ucclint [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}

	switch {
	case *vFlag == "full":
		printVersion()
		return 0
	case *vFlag != "":
		fmt.Fprintln(os.Stdout, "ucclint version devel")
		return 0
	case *listFlag:
		for _, a := range analyzers {
			fmt.Fprintf(os.Stdout, "%s: %s\n", a.Name, a.Doc)
		}
		return 0
	}

	rest := fs.Args()

	// Unitchecker mode: the go command hands over one cfg file per unit.
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return lint.Unitcheck(rest[0], analyzers)
	}

	// Standalone mode.
	patterns := rest
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(*dirFlag, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "ucclint: %v\n", err)
		return 1
	}
	found := 0
	for _, pkg := range pkgs {
		diags, err := lint.RunPackage(pkg, analyzers)
		if err != nil {
			fmt.Fprintf(stderr, "ucclint: %v\n", err)
			return 1
		}
		for _, d := range diags {
			fmt.Fprintln(stderr, lint.Format(pkg.Fset, d))
		}
		found += len(diags)
	}
	if found > 0 {
		return 2
	}
	return 0
}

// printVersion emits the -V=full line the go command hashes into its
// action cache key; the executable's own content hash keeps cached vet
// results correct across rebuilds of the tool.
func printVersion() {
	progname, _ := os.Executable()
	h := sha256.New()
	if f, err := os.Open(progname); err == nil {
		io.Copy(h, f)
		f.Close()
	}
	fmt.Printf("ucclint version devel comments-go-here buildID=%02x\n", h.Sum(nil))
}
