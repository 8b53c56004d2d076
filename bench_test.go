// Developer benchmarks (`make bench-all`): per-configuration throughput
// and takeover benchmarks that report both the simulated result (sim-tps —
// the paper's metric) and the simulator's own wall-clock speed (ns/op per
// transaction). They feed no committed file: the paper's exhibits are
// `replbench -experiment paper`, the pinned extension cells are
// internal/harness's (BENCH_cells.csv, TestCellsPinned) and the gated
// benchmark is bench/.
package repro_test

import (
	"testing"

	"repro"
	"repro/internal/mem"
	"repro/internal/replication"
	"repro/internal/tpc"
	"repro/internal/vista"
)

// BenchmarkThroughput drives b.N transactions through each configuration
// of the paper's comparison, reporting the simulated throughput alongside
// the harness's wall-clock cost per transaction.
func BenchmarkThroughput(b *testing.B) {
	const db = 16 << 20
	cells := []struct {
		name string
		ver  vista.Version
		mode replication.Mode
		dc   bool
	}{
		{"DebitCredit/V0-Standalone", vista.V0Vista, replication.Standalone, true},
		{"DebitCredit/V3-Standalone", vista.V3InlineLog, replication.Standalone, true},
		{"DebitCredit/V0-Passive", vista.V0Vista, replication.Passive, true},
		{"DebitCredit/V1-Passive", vista.V1MirrorCopy, replication.Passive, true},
		{"DebitCredit/V2-Passive", vista.V2MirrorDiff, replication.Passive, true},
		{"DebitCredit/V3-Passive", vista.V3InlineLog, replication.Passive, true},
		{"DebitCredit/V3-Active", vista.V3InlineLog, replication.Active, true},
		{"OrderEntry/V3-Passive", vista.V3InlineLog, replication.Passive, false},
		{"OrderEntry/V3-Active", vista.V3InlineLog, replication.Active, false},
	}
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			pair, err := replication.NewGroup(replication.Config{
				Mode:  c.mode,
				Store: vista.Config{Version: c.ver, DBSize: db},
			})
			if err != nil {
				b.Fatal(err)
			}
			var w tpc.Workload
			if c.dc {
				w, err = tpc.NewDebitCredit(db)
			} else {
				w, err = tpc.NewOrderEntry(db)
			}
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			res, err := tpc.Run(pair, w, tpc.Options{
				Txns:      int64(b.N),
				Warmup:    200,
				Seed:      1,
				WarmCache: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.TPS, "sim-tps")
			b.ReportMetric(res.PerTxn(res.NetTotal()), "SAN-B/txn")
			b.ReportMetric(res.PerTxn(res.Net[mem.CatMeta]), "meta-B/txn")
		})
	}
}

// BenchmarkReplicationDegree drives the active N-replica group at each
// commit-safety level, reporting the simulated throughput cost of waiting
// for quorum (median backup) versus 2-safe (slowest backup) acks.
func BenchmarkReplicationDegree(b *testing.B) {
	const db = 16 << 20
	cells := []struct {
		name    string
		backups int
		safety  replication.Safety
	}{
		{"K3-1safe", 3, replication.OneSafe},
		{"K3-quorum", 3, replication.QuorumSafe},
		{"K3-2safe", 3, replication.TwoSafe},
		{"K1-1safe", 1, replication.OneSafe},
	}
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			group, err := replication.NewGroup(replication.Config{
				Mode:    replication.Active,
				Store:   vista.Config{Version: vista.V3InlineLog, DBSize: db},
				Backups: c.backups,
				Safety:  c.safety,
			})
			if err != nil {
				b.Fatal(err)
			}
			w, err := tpc.NewDebitCredit(db)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			res, err := tpc.Run(group, w, tpc.Options{
				Txns: int64(b.N), Warmup: 200, Seed: 1, WarmCache: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.TPS, "sim-tps")
		})
	}
}

// BenchmarkShardedCluster measures the sharded front-end's aggregate
// throughput at 1 and 4 shards (same per-transaction work).
func BenchmarkShardedCluster(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(map[int]string{1: "1shard", 4: "4shards"}[shards], func(b *testing.B) {
			sc, err := repro.NewSharded(repro.Config{
				Version: repro.V3InlineLog,
				Backup:  repro.ActiveBackup,
				DBSize:  16 << 20,
			}, shards)
			if err != nil {
				b.Fatal(err)
			}
			payload := make([]byte, 64)
			for i := range payload {
				payload[i] = byte(i + 1)
			}
			sc.ResetMeasurement()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				shard := i % shards
				slot := i / shards % (sc.ShardSize() / 64)
				off := shard*sc.ShardSize() + slot*64
				tx, err := sc.Begin()
				if err != nil {
					b.Fatal(err)
				}
				if err := tx.SetRange(off, 64); err != nil {
					b.Fatal(err)
				}
				if err := tx.Write(off, payload); err != nil {
					b.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
			if sec := sc.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(b.N)/sec, "sim-tps")
			}
		})
	}
}

// BenchmarkFailover measures takeover cost: crash after a burst of
// transactions and time the backup's recovery, reporting the simulated
// takeover latency.
func BenchmarkFailover(b *testing.B) {
	const db = 8 << 20
	modes := []struct {
		name string
		ver  vista.Version
		mode replication.Mode
	}{
		{"Passive-V0", vista.V0Vista, replication.Passive},
		{"Passive-V1-FullCopy", vista.V1MirrorCopy, replication.Passive},
		{"Passive-V3", vista.V3InlineLog, replication.Passive},
		{"Active", vista.V3InlineLog, replication.Active},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			// The whole crash/failover cycle is timed (pausing the
			// timer around the setup would make Go's auto-scaling pay
			// thousands of unmeasured setups); the simulated takeover
			// latency is the reported metric of interest.
			var takeoverUS float64
			for b.Loop() {
				pair, err := replication.NewGroup(replication.Config{
					Mode:  m.mode,
					Store: vista.Config{Version: m.ver, DBSize: db},
				})
				if err != nil {
					b.Fatal(err)
				}
				w, err := tpc.NewDebitCredit(db)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := tpc.Run(pair, w, tpc.Options{Txns: 200, Seed: 1}); err != nil {
					b.Fatal(err)
				}
				if err := pair.Crash(); err != nil {
					b.Fatal(err)
				}
				if _, err := pair.Failover(); err != nil {
					b.Fatal(err)
				}
				// Failover promotes the backup to Primary() (with K=1
				// there are no remaining backups afterwards).
				takeoverUS = pair.Primary().Clock.Now().Duration().Seconds() * 1e6
			}
			b.ReportMetric(takeoverUS, "sim-us-takeover")
		})
	}
}
