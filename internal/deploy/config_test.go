package deploy

import (
	"slices"
	"strings"
	"testing"

	"ucc/internal/engine"
	"ucc/internal/model"
	"ucc/internal/placement"
	"ucc/internal/ri"
	"ucc/internal/storage"
)

// TestValidate covers the Config.Validate rules no entry point's own suite
// does: the shard bound, the RI timing defaults, the epoch-0 map over a
// DataSites subset and the quorum shapes Durability decides. The other
// quorum and placement rules are tested through the entry points that reach
// Validate: cluster.NewSim (TestQuorumConfigValidation,
// TestPlacementConfigValidation) and uccnode's flags (TestQuorumFromFlags,
// TestPlacementFromFlag), so a shape one refuses, all refuse.
func TestValidate(t *testing.T) {
	// layout is a 4-site deployment with two copies per item.
	layout := func(mutate func(*Config)) Config {
		c := Config{Sites: 4, Items: 8, Replicas: 2}
		mutate(&c)
		return c
	}
	// mapIs checks the epoch-0 map a valid config derives.
	mapIs := func(p placement.Policy, sites, replicas int) func(*testing.T, Config) {
		return func(t *testing.T, c Config) {
			want := placement.Build(p, c.Items, c.SiteIDs()[:sites], replicas)
			got := c.InitialMap()
			for i := 0; i < c.Items; i++ {
				if item := model.ItemID(i); !slices.Equal(got.Replicas(item), want.Replicas(item)) {
					t.Fatalf("item %d at %v, want %v (%s over %d sites, %d copies)", i, got.Replicas(item), want.Replicas(item), p, sites, replicas)
				}
			}
		}
	}
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // empty: valid
		check   func(*testing.T, Config)
	}{
		// A standby site outside DataSites holds no copy in the epoch-0 map.
		{"placement/data sites subset", layout(func(c *Config) { c.DataSites = 2 }), "", mapIs(placement.RoundRobin, 2, 2)},

		// engine.Addr carries the shard index in one byte: 300 shards would
		// alias shards 256..299 onto mailboxes 0..43.
		{"shards/over 256 refused", layout(func(c *Config) { c.Shards = 300 }), "exceeds 256", nil},
		{"shards/256 accepted", layout(func(c *Config) { c.Shards = 256 }), "", nil},
		{"shards/zero means one", layout(func(c *Config) { c.Shards = 0 }), "", func(t *testing.T, c Config) {
			if c.Shards != 1 {
				t.Fatalf("Shards = %d, want 1", c.Shards)
			}
		}},

		// Write-all is Quorum{N, N, 1}: every write reaches every copy, so a
		// volatile cluster may name it. W < N leaves copies behind that only
		// WAL log shipping can converge.
		{"quorum/volatile write-all accepted", layout(func(c *Config) {
			c.Replicas = 3
			c.Quorum = &model.Quorum{N: 3, W: 3, R: 1}
		}), "", func(t *testing.T, c Config) {
			if c.CatchUp() {
				t.Fatal("a volatile cluster runs the catch-up plane")
			}
		}},
		{"quorum/volatile W < N refused", layout(func(c *Config) {
			c.Replicas = 3
			c.Quorum = &model.Quorum{N: 3, W: 2, R: 2}
		}), "requires Durability", nil},

		// Leaving every protocol-timing knob unset fills the timing
		// defaults, but an RI option configured on its own must survive
		// (the defaults pass once replaced the whole Options struct).
		{"ri/non-timing options preserved", layout(func(c *Config) {
			c.RI.Admission.Enabled = true
			c.RI.Admission.InitialWindow = 16
			c.RI.RestartDelayCapMicros = 123_000
			c.RI.DisableROFastPath = true
			c.RI.SnapshotStalenessMicros = 77_000
		}), "", func(t *testing.T, c Config) {
			if !c.RI.Admission.Enabled || c.RI.Admission.InitialWindow != 16 {
				t.Fatalf("Admission clobbered by the timing-defaults reset: %+v", c.RI.Admission)
			}
			if c.RI.RestartDelayCapMicros != 123_000 {
				t.Fatalf("RestartDelayCapMicros = %d, want 123000", c.RI.RestartDelayCapMicros)
			}
			if !c.RI.DisableROFastPath {
				t.Fatal("DisableROFastPath clobbered by the timing-defaults reset")
			}
			if c.RI.SnapshotStalenessMicros != 77_000 {
				t.Fatalf("SnapshotStalenessMicros = %d, want the explicit 77000", c.RI.SnapshotStalenessMicros)
			}
			if c.RI.RestartDelayMicros == 0 || c.RI.PAIntervalMicros == 0 || c.RI.DefaultComputeMicros == 0 {
				t.Fatalf("timing defaults not filled: %+v", c.RI)
			}
		}},
		{"ri/unset staleness defaulted", layout(func(c *Config) {}), "", func(t *testing.T, c Config) {
			if c.RI.SnapshotStalenessMicros == 0 {
				t.Fatal("default SnapshotStalenessMicros not filled when unset")
			}
		}},
		// The staleness is filled on its own: a config that sets one timing
		// knob still sizes the chains for the staleness its issuers use.
		{"ri/unset staleness defaulted beside a timing knob", layout(func(c *Config) {
			c.RI.PAIntervalMicros = 7
		}), "", func(t *testing.T, c Config) {
			if want := ri.DefaultOptions().SnapshotStalenessMicros; c.RI.SnapshotStalenessMicros != want {
				t.Fatalf("SnapshotStalenessMicros = %d, want the default %d", c.RI.SnapshotStalenessMicros, want)
			}
			if c.RI.PAIntervalMicros != 7 {
				t.Fatalf("PAIntervalMicros = %d, want the explicit 7", c.RI.PAIntervalMicros)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			err := cfg.Validate()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("valid config rejected: %v", err)
			}
			if tc.check != nil {
				tc.check(t, cfg)
			}
		})
	}
}

// TestSiteChainPolicy pins the version-chain bounds a site's store takes
// from the issuers' snapshot staleness: 250ms and 16 versions while twice
// the staleness fits in 250ms, else twice the staleness with the version
// cap scaled by the same factor.
func TestSiteChainPolicy(t *testing.T) {
	for _, tc := range []struct {
		staleness int64 // zero: Validate's default, 15ms
		want      storage.ChainPolicy
	}{
		{0, storage.ChainPolicy{KeepMicros: 250_000, MaxVersions: 16}},
		{400_000, storage.ChainPolicy{KeepMicros: 800_000, MaxVersions: 51}},
	} {
		cfg := Config{Sites: 1, Items: 2}
		cfg.RI.SnapshotStalenessMicros = tc.staleness
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		p, err := Site(cfg, 0, cfg.InitialMap(), nil, nil, func(engine.Addr, engine.Actor) {})
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Store.ChainPolicy(); got != tc.want {
			t.Errorf("staleness %dµs: chain policy %+v, want %+v", cfg.RI.SnapshotStalenessMicros, got, tc.want)
		}
	}
}
