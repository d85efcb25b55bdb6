// Package golden compares a test's rendered output with a committed file,
// so a change that moves seeded output shows up as a diff of that file.
package golden

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// Check compares got with the file at path byte for byte and fails t with
// the first differing lines. With update set it rewrites the file instead.
func Check(t testing.TB, path, got string, update bool) {
	t.Helper()
	if update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if d := lineDiff(string(want), got, 20); d != "" {
		t.Errorf("seeded output differs from %s (-want +got; -update rewrites it):\n%s", path, d)
	}
}

// lineDiff lists the lines where want and got differ, at most max of them,
// or returns "" when they are equal.
func lineDiff(want, got string, max int) string {
	if want == got {
		return ""
	}
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl == gl {
			continue
		}
		if shown == max {
			b.WriteString("...\n")
			break
		}
		fmt.Fprintf(&b, "line %d:\n- %s\n+ %s\n", i+1, wl, gl)
		shown++
	}
	if len(w) != len(g) {
		fmt.Fprintf(&b, "(%d lines want, %d got)\n", len(w), len(g))
	}
	return b.String()
}
