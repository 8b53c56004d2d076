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

func runPar(t *testing.T, shards, clients int) tpc.Result {
	t.Helper()
	res, err := tpc.RunSharded(newParSharded(t, shards), func(dbSize int) (tpc.Workload, error) {
		return tpc.NewDebitCredit(dbSize)
	}, tpc.Options{Txns: 300, Warmup: 50, Seed: 7, Clients: clients})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunShardedBasics: the concurrent driver reports per-shard-scaled
// totals and a positive simulated rate.
func TestRunShardedBasics(t *testing.T) {
	res := runPar(t, 3, 3)
	if res.Txns != 900 {
		t.Fatalf("Txns = %d, want 900 (300 per shard)", res.Txns)
	}
	if res.Clients != 3 {
		t.Fatalf("Clients = %d, want 3", res.Clients)
	}
	if res.TPS <= 0 {
		t.Fatalf("sim rate %f not positive", res.TPS)
	}
	if res.NetTotal() <= 0 {
		t.Fatal("no SAN traffic recorded")
	}
}

// TestRunShardedDeterministicAcrossClients: every shard's transaction
// stream is seeded per shard, so the simulated outcome — elapsed time,
// transaction totals, SAN bytes — is identical no matter how many client
// goroutines drove it or how the scheduler interleaved them. Wall clock
// varies; simulated truth does not.
func TestRunShardedDeterministicAcrossClients(t *testing.T) {
	one := runPar(t, 3, 1)
	three := runPar(t, 3, 3)
	if one.Elapsed != three.Elapsed {
		t.Fatalf("sim elapsed differs by client count: %v vs %v", one.Elapsed, three.Elapsed)
	}
	if one.Txns != three.Txns {
		t.Fatalf("txn totals differ: %d vs %d", one.Txns, three.Txns)
	}
	if one.NetTotal() != three.NetTotal() {
		t.Fatalf("SAN bytes differ: %d vs %d", one.NetTotal(), three.NetTotal())
	}
}

// TestRunShardedClientCap: client counts are clamped to the shard count.
func TestRunShardedClientCap(t *testing.T) {
	res := runPar(t, 2, 16)
	if res.Clients != 2 {
		t.Fatalf("Clients = %d, want clamp to 2", res.Clients)
	}
}
