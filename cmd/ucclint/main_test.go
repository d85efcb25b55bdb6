package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// vet builds the tool and runs `go vet -vettool` with it over ./... in dir,
// the way `make lint` does, returning the combined output and whether vet
// succeeded.
func vet(t *testing.T, dir string) (string, bool) {
	t.Helper()
	cmd := exec.Command("go", "vet", "-vettool="+build(t), "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err == nil
}

// build compiles the tool into a temporary directory and returns its path.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ucclint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building ucclint: %v\n%s", err, out)
	}
	return bin
}

// TestBadModule runs the suite through the go vet -vettool protocol over
// the known-bad fixture module and asserts a failing run with at least one
// finding from every analyzer in the suite.
func TestBadModule(t *testing.T) {
	out, ok := vet(t, filepath.Join("testdata", "badmod"))
	if ok {
		t.Fatalf("go vet -vettool over testdata/badmod succeeded, want failure\noutput:\n%s", out)
	}
	for _, a := range analyzers {
		if !strings.Contains(out, "("+a.Name+")") {
			t.Errorf("no %s finding over testdata/badmod\noutput:\n%s", a.Name, out)
		}
	}
}

// TestRepoClean runs the full suite over this repository: the codebase
// must stay free of findings (violations are either fixed or carry an
// //ucclint:allow comment stating the argument).
func TestRepoClean(t *testing.T) {
	if out, ok := vet(t, filepath.Join("..", "..")); !ok {
		t.Fatalf("go vet -vettool over the repository failed\noutput:\n%s", out)
	}
}

// TestVetTool checks the built binary's side of the go vet -vettool
// handshake: the -flags probe, the -V=full build-cache stamp, and a usage
// failure when no *.cfg unit is handed over.
func TestVetTool(t *testing.T) {
	bin := build(t)
	out, err := exec.Command(bin, "-flags").Output()
	if err != nil || strings.TrimSpace(string(out)) != "[]" {
		t.Errorf("ucclint -flags: %q, %v; want \"[]\", exit 0", out, err)
	}
	out, err = exec.Command(bin, "-V=full").Output()
	if err != nil || !strings.HasPrefix(string(out), "ucclint version devel ") || !strings.Contains(string(out), "buildID=") {
		t.Errorf("ucclint -V=full: %q, %v; want a version line with a buildID", out, err)
	}
	if out, err := exec.Command(bin, "./...").CombinedOutput(); err == nil || !strings.Contains(string(out), "usage:") {
		t.Errorf("ucclint ./...: %q, %v; want usage and a nonzero exit", out, err)
	}
}
