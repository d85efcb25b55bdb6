package experiments

import (
	"flag"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ucc/internal/golden"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this run")

const goldenPath = "testdata/quick.golden"

// TestAllExperimentsQuick runs every registered experiment in Quick mode on
// seed 1: each must complete, produce at least one non-empty table, and
// render. The rendered output of the whole sweep must then equal
// testdata/quick.golden byte for byte, so a change that moves seeded output
// shows up as a diff of that file; -update rewrites it. A wall-clock
// result contributes only its header.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	all := All()
	rendered := make([]string, len(all))
	for i, e := range all {
		t.Run(e.ID, func(t *testing.T) {
			res := e.Run(RunConfig{Quick: true, Seed: 1})
			if res.ID != e.ID {
				t.Fatalf("result id %q", res.ID)
			}
			if len(res.Tables) == 0 {
				t.Fatal("no tables")
			}
			for i, tb := range res.Tables {
				if len(tb.Rows) == 0 {
					t.Fatalf("table %d empty", i)
				}
			}
			s := res.String()
			if !strings.Contains(s, e.ID) || !strings.Contains(s, "paper claim") {
				t.Fatalf("rendering broken:\n%s", s)
			}
			if res.WallClock {
				s = fmt.Sprintf("== %s — %s ==\n(wall-clock tables and notes left out)\n", res.ID, res.Title)
			}
			rendered[i] = s
		})
	}
	if t.Failed() || slices.Contains(rendered, "") {
		return // a failed or filtered-out experiment: nothing whole to compare
	}
	got := strings.Join(rendered, "\n")
	golden.Check(t, goldenPath, got, *update)
}

func TestByID(t *testing.T) {
	if _, ok := ByID("EXP-1"); !ok {
		t.Fatal("EXP-1 missing")
	}
	if _, ok := ByID("exp-1"); !ok {
		t.Fatal("lookup must be case-insensitive")
	}
	if _, ok := ByID("EXP-0"); ok {
		t.Fatal("phantom experiment")
	}
}

// TestExp10ReadPathSpeedup is the acceptance gate for the read-only
// snapshot fast path: on the ≥90%-read closed-loop mix, every sweep point
// must show at least 2x committed throughput with the path on vs off, stay
// conflict serializable both ways, and never serve a stale (GC'd-past)
// snapshot read. The sim is virtual-time deterministic, so asserting on a
// throughput ratio is seed-stable, not flaky.
func TestExp10ReadPathSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	res := Exp10(RunConfig{Quick: true, Seed: 1988})
	for _, n := range res.Notes {
		if strings.Contains(n, "VIOLATION") || strings.Contains(n, "STALE") {
			t.Fatalf("invariant violated: %v", res.Notes)
		}
	}
	for _, row := range res.Tables[0].Rows {
		var speedup float64
		if _, err := fmt.Sscanf(row[3], "%f", &speedup); err != nil {
			t.Fatalf("unparseable speedup %q: %v", row[3], err)
		}
		if speedup < 2 {
			t.Fatalf("speedup %.2f < 2 at inflight=%s (row %v)", speedup, row[0], row)
		}
	}
}

// TestExp11ShardScaling is the acceptance gate for queue-manager sharding:
// on a 4+ core machine, shards=4 must deliver ≥1.5x the uniform read-write
// throughput of shards=1 at the same worker count, with the conflict-graph
// checker passing at every point. The wall-clock ratio needs real cores, so
// the speedup assertion only runs where the hardware can express it; the
// serializability half of the gate runs everywhere.
func TestExp11ShardScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	base := ShardThroughput(1, 4, 3000, false, 11)
	sharded := ShardThroughput(4, 4, 3000, false, 11)
	if !base.Serializable || !sharded.Serializable {
		t.Fatalf("conflict-graph check failed (shards=1: %v, shards=4: %v)",
			base.Serializable, sharded.Serializable)
	}
	if runtime.NumCPU() < 4 || runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("speedup gate needs 4+ cores (have NumCPU=%d GOMAXPROCS=%d); correctness half passed",
			runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	speedup := sharded.Throughput / base.Throughput
	t.Logf("shards=1: %.0f txn/s, shards=4: %.0f txn/s (%.2fx)",
		base.Throughput, sharded.Throughput, speedup)
	if speedup < 1.5 {
		// One retry absorbs a noisy neighbour on shared CI runners before
		// declaring a real scaling regression.
		base = ShardThroughput(1, 4, 3000, false, 13)
		sharded = ShardThroughput(4, 4, 3000, false, 13)
		speedup = sharded.Throughput / base.Throughput
		t.Logf("retry: shards=1: %.0f txn/s, shards=4: %.0f txn/s (%.2fx)",
			base.Throughput, sharded.Throughput, speedup)
	}
	if speedup < 1.5 {
		t.Fatalf("shards=4 speedup %.2fx < 1.5x", speedup)
	}
}

func TestExp5SerializabilityGate(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	res := Exp5(RunConfig{Quick: true, Seed: 3})
	for _, n := range res.Notes {
		if strings.Contains(n, "VIOLATION") {
			t.Fatalf("serializability violation: %v", res.Notes)
		}
	}
	// Every row must say "yes" in the serializable column.
	for _, row := range res.Tables[0].Rows {
		if row[2] != "yes" {
			t.Fatalf("row not serializable: %v", row)
		}
	}
}
