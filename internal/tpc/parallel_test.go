package tpc_test

import (
	"testing"

	"repro"
	"repro/internal/tpc"
)

const parDB = 12 << 20 // 4 MB per shard at 3 shards: enough for Debit-Credit

func newParSharded(t *testing.T, shards int) *repro.ShardedCluster {
	t.Helper()
	sc, err := repro.NewSharded(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  parDB,
	}, shards)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestRunShardedBasics: the sharded driver reports per-shard-scaled
// totals and a positive simulated rate.
func TestRunShardedBasics(t *testing.T) {
	res, err := tpc.RunSharded(newParSharded(t, 3), func(dbSize int) (tpc.Workload, error) {
		return tpc.NewDebitCredit(dbSize)
	}, tpc.Options{Txns: 300, Warmup: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Txns != 900 {
		t.Fatalf("Txns = %d, want 900 (300 per shard)", res.Txns)
	}
	if res.TPS <= 0 {
		t.Fatalf("sim rate %f not positive", res.TPS)
	}
	if res.NetTotal() <= 0 {
		t.Fatal("no SAN traffic recorded")
	}
}
