package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadModule runs the multichecker in-process over the known-bad
// fixture module and asserts a nonzero exit with at least one finding
// from every analyzer in the suite.
func TestBadModule(t *testing.T) {
	var buf strings.Builder
	code := run([]string{"-dir", filepath.Join("testdata", "badmod"), "./..."}, &buf)
	if code != 2 {
		t.Fatalf("ucclint over testdata/badmod: exit %d, want 2\noutput:\n%s", code, buf.String())
	}
	for _, a := range analyzers {
		if !strings.Contains(buf.String(), "("+a.Name+")") {
			t.Errorf("no %s finding over testdata/badmod\noutput:\n%s", a.Name, buf.String())
		}
	}
}

// TestRepoClean runs the full suite over this repository: the codebase
// must stay free of findings (violations are either fixed or carry an
// //ucclint:allow comment stating the argument).
func TestRepoClean(t *testing.T) {
	var buf strings.Builder
	code := run([]string{"-dir", filepath.Join("..", ".."), "./..."}, &buf)
	if code != 0 {
		t.Fatalf("ucclint over the repository: exit %d, want 0\noutput:\n%s", code, buf.String())
	}
}

// TestVetTool builds the binary and exercises the go vet -vettool
// protocol end to end against the bad module.
func TestVetTool(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and runs go vet")
	}
	bin := filepath.Join(t.TempDir(), "ucclint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building ucclint: %v\n%s", err, out)
	}
	vet := exec.Command("go", "vet", "-vettool="+bin, "./...")
	vet.Dir = filepath.Join("testdata", "badmod")
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet -vettool over testdata/badmod succeeded, want failure\noutput:\n%s", out)
	}
	for _, name := range []string{"poolsafe", "lockorder"} {
		if !strings.Contains(string(out), "("+name+")") {
			t.Errorf("go vet -vettool output missing %s finding\noutput:\n%s", name, out)
		}
	}
}
