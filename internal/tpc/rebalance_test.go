package tpc_test

import (
	"errors"
	"testing"

	"repro"
	"repro/internal/tpc"
)

func newElastic(t *testing.T, shards int) *repro.ShardedCluster {
	t.Helper()
	sc, err := repro.NewSharded(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  8 << 20,
		Backups: 2,
		Safety:  repro.QuorumSafe,
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
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRunRebalanceTimeline: the elastic driver grows 2 → 4 → 8 shards
// mid-workload, every growth step drains, the audit loses nothing, and
// the timeline covers all three phases.
func TestRunRebalanceTimeline(t *testing.T) {
	sc := newElastic(t, 2)
	res, err := tpc.RunRebalance(sc, func(dbSize int) (tpc.Workload, error) {
		return tpc.NewDebitCredit(dbSize)
	}, 50, 11)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Shards() != 8 {
		t.Fatalf("Shards = %d, want 8", sc.Shards())
	}
	if res.LostAckedWrites != 0 {
		t.Fatalf("LostAckedWrites = %d, want 0", res.LostAckedWrites)
	}
	if res.AuditWrites == 0 {
		t.Fatal("no audit writes acknowledged")
	}
	if res.RangesMoved <= 0 || res.BytesShipped <= 0 {
		t.Fatalf("no migration recorded: ranges %d bytes %d", res.RangesMoved, res.BytesShipped)
	}
	if res.PlacementEpoch != 1+uint64(res.RangesMoved) {
		t.Fatalf("PlacementEpoch = %d, want %d (1 + one per cut-over)", res.PlacementEpoch, 1+res.RangesMoved)
	}
	if res.BaseTPS <= 0 || res.FinalTPS <= 0 {
		t.Fatalf("rates not positive: base %f final %f", res.BaseTPS, res.FinalTPS)
	}
	if res.MinTPS <= 0 {
		t.Fatalf("MinTPS = %f, want > 0 (transactions must keep committing mid-migration)", res.MinTPS)
	}
	phases := map[string]int{}
	for _, w := range res.Windows {
		phases[w.Phase]++
	}
	for _, p := range []string{"baseline", "grow-4", "grow-8", "final"} {
		if phases[p] == 0 {
			t.Fatalf("no %q window in the timeline (got %v)", p, phases)
		}
	}
}

// TestRunRebalanceDeterministic: same seed, same simulated outcome.
func TestRunRebalanceDeterministic(t *testing.T) {
	run := func() tpc.RebalanceResult {
		res, err := tpc.RunRebalance(newGrowable(t), func(dbSize int) (tpc.Workload, error) {
			return tpc.NewDebitCredit(dbSize)
		}, 20, 3)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.BytesShipped != b.BytesShipped || a.RangesMoved != b.RangesMoved ||
		a.AuditWrites != b.AuditWrites || len(a.Windows) != len(b.Windows) {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
	for i := range a.Windows {
		if a.Windows[i] != b.Windows[i] {
			t.Fatalf("window %d differs: %+v vs %+v", i, a.Windows[i], b.Windows[i])
		}
	}
}

// TestRunRebalanceFromNew: a deployment built by New grows like any
// other — 1 → 4 → 8 mid-workload with zero lost acked writes — while a
// Shard(i) view, whose topology is its parent's, refuses.
func TestRunRebalanceFromNew(t *testing.T) {
	mk := func(dbSize int) (tpc.Workload, error) { return tpc.NewDebitCredit(dbSize) }
	c := newGrowable(t)
	res, err := tpc.RunRebalance(c, mk, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.RangesMoved == 0 || res.LostAckedWrites != 0 || c.Shards() != 8 {
		t.Fatalf("grow from New: %d ranges moved, %d lost acked writes, %d shards", res.RangesMoved, res.LostAckedWrites, c.Shards())
	}
	if _, err := tpc.RunRebalance(newElastic(t, 2).Shard(0), mk, 0, 1); !errors.Is(err, repro.ErrNotElastic) {
		t.Fatalf("RunRebalance on a Shard view = %v, want ErrNotElastic", err)
	}
}
