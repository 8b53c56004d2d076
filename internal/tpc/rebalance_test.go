package tpc_test

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/tpc"
)

func newElastic(t *testing.T, shards int) *repro.Cluster {
	t.Helper()
	sc, err := repro.NewSharded(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  8 << 20,
		Backups: 2,
		Safety:  repro.QuorumSafe,
		Metrics: true,
	}, shards)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// newGrowable is a one-shard deployment built by New, at quorum commit
// like newElastic's: the cheapest start the growth steps 4 → 8 can take.
func newGrowable(t *testing.T) *repro.Cluster {
	t.Helper()
	c, err := repro.New(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  4 << 20,
		Backups: 2,
		Safety:  repro.QuorumSafe,
		Metrics: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// growDrill drills the rebalance cell's schedule on c: three baseline
// windows, growth to 4 and to 8 shards, three final windows. It returns
// the windows and the stream's audit.
func growDrill(c *repro.Cluster, warmup int64, seed uint64) ([]tpc.Window, func() (int64, error), error) {
	return drillDC(c, seed, warmup, 10*time.Millisecond,
		tpc.Step{Phase: "baseline", Windows: 3}, tpc.Grow(4), tpc.Grow(8), tpc.Step{Phase: "final", Windows: 3})
}

// TestRunRebalanceTimeline: the growth schedule takes a deployment 2 → 4
// → 8 shards mid-workload, every growth step drains, the final image is
// the replay oracle's, and the timeline covers all three phases.
func TestRunRebalanceTimeline(t *testing.T) {
	sc := newElastic(t, 2)
	windows, audit, err := growDrill(sc, 50, 11)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Shards() != 8 {
		t.Fatalf("Shards = %d, want 8", sc.Shards())
	}
	if audited, err := audit(); err != nil || audited == 0 {
		t.Fatalf("audit of %d transactions: %v", audited, err)
	}
	snap := sc.Metrics()
	moved, shipped := snap.Counter("place.ranges_moved"), snap.Counter("place.bytes_shipped")
	if moved == 0 || shipped == 0 {
		t.Fatalf("no migration recorded: ranges %d bytes %d", moved, shipped)
	}
	if epoch := sc.PlacementEpoch(); epoch != 1+moved {
		t.Fatalf("PlacementEpoch = %d, want %d (1 + one per cut-over)", epoch, 1+moved)
	}
	_, base, _ := tpc.PhaseStats(windows, "baseline")
	_, final, _ := tpc.PhaseStats(windows, "final")
	if base <= 0 || final <= 0 {
		t.Fatalf("rates not positive: base %f final %f", base, final)
	}
	if _, _, dip := tpc.PhaseStats(windows, "grow-4", "grow-8"); dip <= 0 {
		t.Fatalf("worst grow window %f, want > 0 (transactions must keep committing mid-migration)", dip)
	}
	for _, p := range []string{"baseline", "grow-4", "grow-8", "final"} {
		if n, _, _ := tpc.PhaseStats(windows, p); n == 0 {
			t.Fatalf("no %q window in the timeline: %+v", p, windows)
		}
	}
}

// TestRunRebalanceDeterministic: same seed, same simulated outcome.
func TestRunRebalanceDeterministic(t *testing.T) {
	type run struct {
		windows []tpc.Window
		audited int64
		metrics [2]uint64
	}
	drill := func() run {
		c := newGrowable(t)
		windows, audit, err := growDrill(c, 20, 3)
		if err != nil {
			t.Fatal(err)
		}
		audited, err := audit()
		if err != nil {
			t.Fatal(err)
		}
		snap := c.Metrics()
		return run{windows, audited, [2]uint64{snap.Counter("place.ranges_moved"), snap.Counter("place.bytes_shipped")}}
	}
	a, b := drill(), drill()
	if a.audited != b.audited || a.metrics != b.metrics || !slices.Equal(a.windows, b.windows) {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

// TestRunRebalanceFromNew: a deployment built by New grows like any
// other — 1 → 4 → 8 mid-workload to an image the replay oracle agrees
// with — while a Shard(i) view, whose topology is its parent's, refuses,
// and so does a growth target the deployment already has.
func TestRunRebalanceFromNew(t *testing.T) {
	c := newGrowable(t)
	_, audit, err := growDrill(c, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := audit(); err != nil {
		t.Fatal(err)
	}
	if moved := c.Metrics().Counter("place.ranges_moved"); moved == 0 || c.Shards() != 8 {
		t.Fatalf("grow from New: %d ranges moved, %d shards", moved, c.Shards())
	}
	if _, _, err := growDrill(newElastic(t, 2).Shard(0), 0, 1); !errors.Is(err, repro.ErrNotElastic) {
		t.Fatalf("growing a Shard view = %v, want ErrNotElastic", err)
	}
	_, _, err = drillDC(newElastic(t, 2), 1, 0, 10*time.Millisecond, tpc.Grow(2))
	if err == nil || !strings.Contains(err.Error(), "growth target 2 not above current 2 shards") {
		t.Fatalf("growing to the current shard count = %v", err)
	}
}
