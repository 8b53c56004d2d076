package tpc

import (
	"testing"

	"repro"
	"repro/internal/replication"
)

func kvDeployment(t testing.TB, shards int) *repro.Cluster {
	t.Helper()
	c, err := repro.NewSharded(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  1 << 20,
	}, shards)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRunKVMixes drives every mix in the default mode on one shard and
// four, and checks the operation accounting and the read audit: every
// read and scan is counted by who served it, and none is stale.
func TestRunKVMixes(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, mix := range KVMixes() {
			name := map[int]string{1: "cluster/", 4: "sharded4/"}[shards] + mix
			t.Run(name, func(t *testing.T) {
				db := kvDeployment(t, shards)
				res, err := RunKV(db, KVOptions{
					Mix: mix, Ops: 1500, Warmup: 100, Seed: 7,
				})
				if err != nil {
					t.Fatal(err)
				}
				total := res.Reads + res.Updates + res.Inserts + res.Scans
				if total != res.Ops || res.Ops != 1500 {
					t.Fatalf("op accounting: %d+%d+%d+%d != %d",
						res.Reads, res.Updates, res.Inserts, res.Scans, res.Ops)
				}
				if res.OPS <= 0 || res.Elapsed <= 0 {
					t.Fatalf("no throughput measured: %+v", res)
				}
				switch mix {
				case MixReadHeavy:
					if res.Reads < res.Updates*10 || res.Scans != 0 {
						t.Fatalf("read-heavy mix off: %+v", res)
					}
				case MixUpdateHeavy:
					if res.Reads == 0 || res.Updates == 0 || res.Scans != 0 {
						t.Fatalf("update-heavy mix off: %+v", res)
					}
				case MixScan:
					if res.Scans < res.Inserts*10 || res.ScanItems == 0 {
						t.Fatalf("scan mix off: %+v", res)
					}
				}
				if res.Net.Total() == 0 {
					t.Fatal("no SAN traffic measured on a replicated deployment")
				}
				if res.StaleViolations != 0 {
					t.Fatalf("%d stale-read violations at the primary's view", res.StaleViolations)
				}
				if served := res.ReplicaReads + res.PrimaryReads; served != res.Reads+res.Scans {
					t.Fatalf("%d reads and scans counted by who served them, want %d", served, res.Reads+res.Scans)
				}
			})
		}
	}
}

// TestRunKVDefaultModeOnBackups: on readscale's deployment (quorum commit,
// three backups, a group-commit batch of 96) a backup that has applied all
// the primary committed serves some default-mode reads, and the audit
// holds every one of them to the session's latest write.
func TestRunKVDefaultModeOnBackups(t *testing.T) {
	c, err := repro.New(repro.Config{
		Version:     repro.V3InlineLog,
		Backup:      repro.ActiveBackup,
		DBSize:      8 << 20,
		Backups:     3,
		Safety:      repro.QuorumSafe,
		CommitBatch: 96,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunKV(c, KVOptions{Mix: MixReadHeavy, Ops: 2000, Warmup: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.StaleViolations != 0 {
		t.Fatalf("%d stale-read violations at the primary's view", res.StaleViolations)
	}
	if res.ReplicaReads == 0 || res.ReplicaReads+res.PrimaryReads != res.Reads {
		t.Fatalf("%d backup-served + %d primary-served reads of %d, want some on backups and all counted",
			res.ReplicaReads, res.PrimaryReads, res.Reads)
	}
}

// TestRunKVDeterministic pins the driver's reproducibility: same seed,
// same simulated throughput, on both facades.
func TestRunKVDeterministic(t *testing.T) {
	for _, shards := range []int{1, 4} {
		var first KVResult
		for round := 0; round < 2; round++ {
			res, err := RunKV(kvDeployment(t, shards), KVOptions{
				Mix: MixUpdateHeavy, Ops: 800, Warmup: 50, Seed: 11,
			})
			if err != nil {
				t.Fatal(err)
			}
			if round == 0 {
				first = res
				continue
			}
			if res != first {
				t.Fatalf("shards=%d run not deterministic:\n  %+v\n  %+v", shards, first, res)
			}
		}
	}
}

// TestRunKVBurst: at quorum commit a scope's seal publishes once and its
// acknowledgement crosses back while the primary runs the next burst, so
// what a longer burst still buys is fewer seals: one acknowledgement round
// trip per burst, fewer SAN bytes per PUT, and never less simulated
// throughput — and a burst of one is already the whole accounting.
func TestRunKVBurst(t *testing.T) {
	const ops = 800
	run := func(burst int) (KVResult, uint64) {
		db, err := repro.New(repro.Config{
			Version: repro.V3InlineLog,
			Backup:  repro.ActiveBackup,
			DBSize:  1 << 20,
			Backups: 2,
			Safety:  repro.QuorumSafe,
			Metrics: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunKVBurst(db, KVOptions{Ops: ops, Warmup: 50, Seed: 11}, burst)
		if err != nil {
			t.Fatal(err)
		}
		if res.Updates != ops || res.Keys != kvRecords {
			t.Fatalf("burst %d: %d updates over %d keys, want %d over %d", burst, res.Updates, res.Keys, ops, kvRecords)
		}
		return res, db.Metrics().Counter(replication.MetricCommitBatches)
	}
	var prev KVResult
	for _, burst := range []int{1, 2, 4, 8, 16} {
		res, seals := run(burst)
		if seals != ops/uint64(burst) {
			t.Fatalf("burst %d: %d acknowledgement round trips for %d PUTs, want %d", burst, seals, ops, ops/burst)
		}
		if burst > 1 {
			if res.BytesPerOp() >= prev.BytesPerOp() {
				t.Fatalf("burst %d shipped %.1f B/PUT, not fewer than the %.1f of burst %d", burst, res.BytesPerOp(), prev.BytesPerOp(), burst/2)
			}
			if res.OPS < prev.OPS {
				t.Fatalf("burst %d ran at %.0f sim-ops/s, below the %.0f of burst %d", burst, res.OPS, prev.OPS, burst/2)
			}
		}
		prev = res
	}
	if again, _ := run(16); again != prev {
		t.Fatalf("run not deterministic:\n  %+v\n  %+v", prev, again)
	}
}
