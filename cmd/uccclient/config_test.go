package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
)

func TestParsePeerList(t *testing.T) {
	peers, err := parsePeerList(":7700, :7701")
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers[0] != ":7700" || peers[1] != ":7701" {
		t.Fatalf("parsed %v", peers)
	}
	for _, bad := range []string{"", "  ", ":7700,,:7702"} {
		if _, err := parsePeerList(bad); err == nil {
			t.Errorf("parsePeerList(%q) accepted bad input", bad)
		}
	}
}

func TestParseMix(t *testing.T) {
	shares, err := parseMix("1,2,3")
	if err != nil {
		t.Fatal(err)
	}
	if shares != [4]float64{1, 2, 3, 0} {
		t.Fatalf("parsed %v", shares)
	}
	shares, err = parseMix("1,2,3,4")
	if err != nil {
		t.Fatal(err)
	}
	if shares != [4]float64{1, 2, 3, 4} {
		t.Fatalf("parsed 4-share mix %v", shares)
	}
	if _, err := parseMix("0,0,1"); err != nil {
		t.Errorf("single-protocol mix rejected: %v", err)
	}
	if _, err := parseMix("0,0,0,1"); err != nil {
		t.Errorf("read-only-only mix rejected: %v", err)
	}
	for _, bad := range []string{
		"", "1,2", "x,y,z", "0,0,0", "-1,1,1", "0,0,0,0", "1,1,1,-1",
		"1,1,1,x", "1,1,1,", "1,1,1,3garbage", "1,2,3,4,5",
	} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted bad input", bad)
		}
	}
}

func TestClientTopology(t *testing.T) {
	topo := clientTopology([]string{":7700", ":7701"}, ":7709")
	if got := topo.Peers[topo.Assign(engine.CollectorAddr())]; got != ":7709" {
		t.Errorf("collector at %q, want the client listen address", got)
	}
	// Drivers run on the client, their target QM/RI actors on the sites.
	if got := topo.Peers[topo.Assign(engine.QMAddr(model.SiteID(1)))]; got != ":7701" {
		t.Errorf("QM 1 at %q", got)
	}
}

// TestFlagsUnchanged pins every flag's name, default and usage string to
// testdata/flags.txt, which is exactly what `uccclient -h` prints below its
// first line: scripts and operators drive uccclient by these names.
func TestFlagsUnchanged(t *testing.T) {
	fs := flag.NewFlagSet("uccclient", flag.ContinueOnError)
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") { // the testing package's own
			fs.Var(f.Value, f.Name, f.Usage)
		}
	})
	var got bytes.Buffer
	fs.SetOutput(&got)
	fs.PrintDefaults()
	want, err := os.ReadFile("testdata/flags.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("uccclient flags changed; -h now prints:\n%s", got.String())
	}
}
