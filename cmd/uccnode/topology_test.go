package main

import (
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/transport"
)

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers(" :7700, :7701,:7702 ", 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{":7700", ":7701", ":7702"}
	for i := range want {
		if peers[i] != want[i] {
			t.Fatalf("peer %d = %q, want %q", i, peers[i], want[i])
		}
	}
}

func TestParsePeersErrors(t *testing.T) {
	cases := []struct {
		csv   string
		sites int
	}{
		{"", 3},                  // missing
		{":7700,:7701", 3},       // too few
		{":7700,:7701,:7702", 2}, // too many
		{":7700,,:7702", 3},      // empty entry
	}
	for _, c := range cases {
		if _, err := parsePeers(c.csv, c.sites); err == nil {
			t.Errorf("parsePeers(%q, %d) accepted bad input", c.csv, c.sites)
		}
	}
}

func TestSiteTopologyAssignment(t *testing.T) {
	topo := transport.StandardTopology([]string{":7700", ":7701", ":7702"}, ":7709")
	for i, addr := range []string{":7700", ":7701", ":7702"} {
		name := topo.Assign(engine.QMAddr(model.SiteID(i)))
		if got := topo.Peers[name]; got != addr {
			t.Errorf("QM %d assigned to %q (%s), want %s", i, name, got, addr)
		}
		if n2 := topo.Assign(engine.RIAddr(model.SiteID(i))); n2 != name {
			t.Errorf("RI %d on %q, QM on %q — must be co-resident", i, n2, name)
		}
	}
	// Detector lives on site 0; collector on the client peer.
	if name := topo.Assign(engine.DetectorAddr()); topo.Peers[name] != ":7700" {
		t.Errorf("detector assigned to %q", name)
	}
	if name := topo.Assign(engine.CollectorAddr()); topo.Peers[name] != ":7709" {
		t.Errorf("collector assigned to %q", name)
	}
}

func TestSiteTopologyWithoutClient(t *testing.T) {
	topo := transport.StandardTopology([]string{":7700"}, "")
	if _, ok := topo.Peers["client"]; ok {
		t.Error("client peer registered despite empty address")
	}
}

func TestParseItems(t *testing.T) {
	items, err := parseItems(" 3, 1,8 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 || items[0] != 3 || items[1] != 1 || items[2] != 8 {
		t.Fatalf("items = %v, want [3 1 8]", items)
	}
	if got, err := parseItems(""); err != nil || got != nil {
		t.Fatalf("empty list = %v, %v; want nil, nil", got, err)
	}
	for _, bad := range []string{"a", "-1", "1,,2", "1,x"} {
		if _, err := parseItems(bad); err == nil {
			t.Errorf("parseItems(%q) accepted bad input", bad)
		}
	}
}
