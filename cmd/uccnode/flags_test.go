package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"ucc/internal/deploy"
	"ucc/internal/model"
	"ucc/internal/placement"
)

// TestFlagsUnchanged pins every flag's name, default and usage string to
// testdata/flags.txt, which is exactly what `uccnode -h` prints below its
// first line: scripts and operators drive uccnode by these names.
func TestFlagsUnchanged(t *testing.T) {
	fs := flag.NewFlagSet("uccnode", flag.ContinueOnError)
	defineFlags(fs)
	var got bytes.Buffer
	fs.SetOutput(&got)
	fs.PrintDefaults()
	want, err := os.ReadFile("testdata/flags.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("uccnode flags changed; -h now prints:\n%s", got.String())
	}
}

// nodeConfig parses args as a uccnode command line and returns the config
// uccnode would start from.
func nodeConfig(t *testing.T, args string) (deploy.Config, error) {
	t.Helper()
	fs := flag.NewFlagSet("uccnode", flag.ContinueOnError)
	f := defineFlags(fs)
	if err := fs.Parse(strings.Fields(args)); err != nil {
		t.Fatal(err)
	}
	return f.config()
}

// TestNodeConfig pins that the default command line is a valid deployment
// and that the shard bound reaches uccnode's flags.
func TestNodeConfig(t *testing.T) {
	if _, err := nodeConfig(t, ""); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
	if _, err := nodeConfig(t, "-shards 300"); err == nil || !strings.Contains(err.Error(), "exceeds 256") {
		t.Fatalf("-shards 300: error = %v, want one containing %q", err, "exceeds 256")
	}
}

// TestQuorumFromFlags runs -replicas, -quorum-n/-w/-r and -data-dir over the
// default 3 sites through the flag → deploy.Config path.
func TestQuorumFromFlags(t *testing.T) {
	cases := []struct {
		name       string
		n, w, r    int
		replicas   int
		durable    bool
		wantQuorum bool
		wantErr    string
	}{
		{"all zero is off", 0, 0, 0, 3, false, false, ""},
		{"valid 3-2-2", 3, 2, 2, 3, true, true, ""},
		{"partial triple", 3, 0, 0, 3, true, false, "must all be positive"},
		{"W exceeds N", 3, 4, 2, 3, true, false, "exceeds"},
		{"disjoint read-write", 3, 1, 2, 3, true, false, "W+R"},
		{"disjoint write-write", 3, 1, 3, 3, true, false, "2W"},
		{"N vs replicas", 3, 2, 2, 2, true, false, "replication factor"},
		{"no data-dir", 3, 2, 2, 3, false, false, "requires Durability"},
		// -replicas 5 over 3 sites is clamped to 3 copies per item: a write
		// quorum of 4 could never be reached. The flags were once checked
		// against the unclamped count and accepted.
		{"N vs clamped replicas", 5, 4, 2, 5, true, false, "replication factor 3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := fmt.Sprintf("-replicas %d -quorum-n %d -quorum-w %d -quorum-r %d", tc.replicas, tc.n, tc.w, tc.r)
			if tc.durable {
				args += " -data-dir d"
			}
			cfg, err := nodeConfig(t, args)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("%s: error = %v, want one containing %q", args, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if (cfg.Quorum != nil) != tc.wantQuorum {
				t.Fatalf("quorum = %+v, want present=%v", cfg.Quorum, tc.wantQuorum)
			}
		})
	}
}

// TestPlacementFromFlag checks -placement through the flag → deploy.Config
// path, down to the epoch-0 map the policy derives.
func TestPlacementFromFlag(t *testing.T) {
	cases := []struct {
		name    string
		flag    string
		want    placement.Policy
		wantErr bool
	}{
		{"empty defaults to round-robin", "", placement.RoundRobin, false},
		{"round-robin", "round-robin", placement.RoundRobin, false},
		{"range", "range", placement.Range, false},
		{"hash", "hash", placement.Hash, false},
		{"unknown policy", "zigzag", "", true},
		{"case sensitive", "Range", "", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := nodeConfig(t, "-sites 4 -items 8 -placement="+tc.flag)
			if tc.wantErr {
				if err == nil || !strings.Contains(err.Error(), "unknown policy") {
					t.Fatalf("-placement=%q: error = %v, want an unknown policy", tc.flag, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want := placement.Build(tc.want, cfg.Items, cfg.SiteIDs(), cfg.Replicas)
			got := cfg.InitialMap()
			for i := 0; i < cfg.Items; i++ {
				if item := model.ItemID(i); !slices.Equal(got.Replicas(item), want.Replicas(item)) {
					t.Fatalf("item %d at %v, want %v (%s)", i, got.Replicas(item), want.Replicas(item), tc.want)
				}
			}
		})
	}
}
