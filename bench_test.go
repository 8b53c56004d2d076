// Benchmarks regenerating every exhibit of the paper's evaluation, plus
// per-configuration throughput benchmarks that report both the simulated
// result (sim-tps — the paper's metric) and the simulator's own wall-clock
// speed (ns/op per transaction).
//
// Run all exhibits:
//
//	go test -bench=Benchmark -benchmem
package repro_test

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/harness"
	"repro/internal/mem"
	"repro/internal/replication"
	"repro/internal/tpc"
	"repro/internal/vista"
)

// benchCfg keeps exhibit regeneration around a second per iteration.
var benchCfg = harness.RunConfig{
	DBSize:     16 << 20,
	DCTxns:     3000,
	OETxns:     1200,
	Warmup:     300,
	Seed:       1,
	SMPStreams: []int{1, 2, 4},
	SMPDBSize:  10 << 20,
}

// benchExhibit regenerates one paper table or figure per iteration.
func benchExhibit(b *testing.B, id string) {
	b.Helper()
	e, ok := harness.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	for b.Loop() {
		harness.ResetCache()
		if _, err := e.Run(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per exhibit in the paper's evaluation section.

func BenchmarkFig1Bandwidth(b *testing.B)         { benchExhibit(b, "fig1") }
func BenchmarkTable1Straightforward(b *testing.B) { benchExhibit(b, "table1") }
func BenchmarkTable2TrafficV0(b *testing.B)       { benchExhibit(b, "table2") }
func BenchmarkTable3Standalone(b *testing.B)      { benchExhibit(b, "table3") }
func BenchmarkTable4Passive(b *testing.B)         { benchExhibit(b, "table4") }
func BenchmarkTable5PassiveTraffic(b *testing.B)  { benchExhibit(b, "table5") }
func BenchmarkTable6PassiveVsActive(b *testing.B) { benchExhibit(b, "table6") }
func BenchmarkTable7ActiveTraffic(b *testing.B)   { benchExhibit(b, "table7") }
func BenchmarkTable8DatabaseSizes(b *testing.B)   { benchExhibit(b, "table8") }
func BenchmarkFig2SMPDebitCredit(b *testing.B)    { benchExhibit(b, "fig2") }
func BenchmarkFig3SMPOrderEntry(b *testing.B)     { benchExhibit(b, "fig3") }

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

// BenchmarkParallelShards measures the simulator's own wall-clock
// transaction rate when shards are driven from parallel goroutines
// (b.RunParallel): each worker pins itself to one shard, so with S shards
// and at least S workers the txn/s metric scales with min(S, GOMAXPROCS).
// Compare the 1-shard and 4-shard txn/s on a multi-core host to see the
// wall-clock scaling the per-shard locking buys; ns/op is per transaction.
func BenchmarkParallelShards(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("%dshards", shards), func(b *testing.B) {
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
			var nextWorker atomic.Int64
			slots := sc.ShardSize() / 128
			// Guarantee at least one worker per shard even when
			// GOMAXPROCS < shards, so the sim-tps aggregate always
			// covers the whole cluster.
			b.SetParallelism((shards + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
			sc.ResetMeasurement()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Pin this worker to one shard: workers round-robin over
				// the shards, so disjoint shards run truly in parallel
				// and same-shard workers serialize on the shard's lock.
				shard := int(nextWorker.Add(1)-1) % shards
				base := shard * sc.ShardSize()
				slot := 0
				for pb.Next() {
					off := base + (slot%slots)*128
					slot++
					tx, err := sc.Begin()
					if err != nil {
						b.Error(err)
						return
					}
					if err := tx.SetRange(off, 64); err != nil {
						b.Error(err)
						return
					}
					if err := tx.Write(off, payload); err != nil {
						b.Error(err)
						return
					}
					if err := tx.Commit(); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(b.N)/sec, "wall-txn/s")
			}
			if sec := sc.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(b.N)/sec, "sim-tps")
			}
		})
	}
}

// BenchmarkRebalance grows a 2-shard deployment to 4 and then 8 shards
// under the live Debit-Credit stream (tpc.RunRebalance) and reports the
// elasticity metrics: ranges and bytes migrated, baseline and worst
// mid-migration window throughput, and the exact acked-write audit —
// which must be zero for the rebalance to be sound. `make bench` parses
// these into BENCH_rebalance.json.
func BenchmarkRebalance(b *testing.B) {
	const db = 8 << 20
	var res tpc.RebalanceResult
	for b.Loop() {
		sc, err := repro.NewSharded(repro.Config{
			Version: repro.V3InlineLog,
			Backup:  repro.ActiveBackup,
			DBSize:  db,
			Backups: 2,
			Safety:  repro.QuorumSafe,
		}, 2)
		if err != nil {
			b.Fatal(err)
		}
		res, err = tpc.RunRebalance(sc, func(dbSize int) (tpc.Workload, error) {
			return tpc.NewDebitCredit(dbSize)
		}, tpc.RebalanceOptions{Warmup: 300, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.RangesMoved), "ranges-moved")
	b.ReportMetric(float64(res.BytesShipped), "bytes-shipped")
	b.ReportMetric(res.BaseTPS, "base-tps")
	b.ReportMetric(res.MinTPS, "min-window-tps")
	b.ReportMetric(float64(res.PlacementEpoch), "placement-epoch")
	b.ReportMetric(float64(res.LostAckedWrites), "lost-acked-writes")
}

// BenchmarkAvailability runs the crash→failover→online-repair timeline
// and reports the availability metrics of the recovering cluster: repair
// duration and bytes shipped, the worst throughput window while the state
// transfer shares the SAN with the commit stream, and the time back to
// full redundancy. `make bench` parses these into BENCH_availability.json.
func BenchmarkAvailability(b *testing.B) {
	const db = 8 << 20
	var res tpc.AvailabilityResult
	for b.Loop() {
		c, err := repro.New(repro.Config{
			Version: repro.V3InlineLog,
			Backup:  repro.ActiveBackup,
			DBSize:  db,
			Backups: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		w, err := tpc.NewDebitCredit(db)
		if err != nil {
			b.Fatal(err)
		}
		res, err = tpc.RunAvailability(c, w, tpc.AvailabilityOptions{Warmup: 300, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.RepairDur.Seconds()*1e3, "sim-ms-repair")
	b.ReportMetric(float64(res.RepairBytes), "repair-bytes")
	b.ReportMetric(res.MinTPS, "min-window-tps")
	b.ReportMetric((res.RestoredAt-res.CrashAt).Seconds()*1e3, "sim-ms-to-restored")
}

// BenchmarkChaos runs the seeded unattended fault schedule against the
// autopilot and reports the chaos availability metrics: mean/max detection
// latency (MTTD), mean time-to-restored (MTTR), the worst throughput
// window, and the committed total. `make bench` parses these into
// BENCH_chaos.json.
func BenchmarkChaos(b *testing.B) {
	const db = 8 << 20
	var res tpc.ChaosResult
	for b.Loop() {
		c, err := repro.New(repro.Config{
			Version: repro.V3InlineLog,
			Backup:  repro.ActiveBackup,
			DBSize:  db,
			Backups: 3,
			Autopilot: repro.AutopilotConfig{
				HeartbeatPeriod: 50 * time.Microsecond,
				SuspectTimeout:  200 * time.Microsecond,
				AutoFailover:    true,
				AutoRepair:      true,
				Spares:          8,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		w, err := tpc.NewDebitCredit(db)
		if err != nil {
			b.Fatal(err)
		}
		res, err = tpc.RunChaos(c, w, tpc.ChaosOptions{Warmup: 300, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MeanMTTD.Seconds()*1e6, "sim-us-mttd")
	b.ReportMetric(res.MaxMTTD.Seconds()*1e6, "sim-us-mttd-max")
	b.ReportMetric(res.MeanMTTR.Seconds()*1e3, "sim-ms-mttr")
	b.ReportMetric(res.MinTPS, "min-window-tps")
	b.ReportMetric(float64(len(res.Events)), "faults-handled")
	b.ReportMetric(float64(res.Committed), "committed")
}

// BenchmarkKV drives the YCSB-style key-value mixes (tpc.RunKV over the
// kv layer) against a replicated cluster through the DB interface,
// reporting simulated operations per second and SAN bytes per operation.
// `make bench` parses all three mixes into BENCH_kv.json.
func BenchmarkKV(b *testing.B) {
	const db = 4 << 20
	for _, mix := range tpc.KVMixes() {
		b.Run(mix, func(b *testing.B) {
			c, err := repro.New(repro.Config{
				Version: repro.V3InlineLog,
				Backup:  repro.ActiveBackup,
				DBSize:  db,
				Backups: 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			// RunKV preloads the keyspace and warms up internally, so
			// ns/op includes that fixed setup and is not comparable
			// across -benchtime settings; the reported sim-ops/s and
			// SAN-B/op metrics are measured after RunKV's own
			// ResetMeasurement and are the numbers to track.
			res, err := tpc.RunKV(c, tpc.KVOptions{
				Mix:     mix,
				Records: 2000,
				Ops:     int64(b.N),
				Warmup:  200,
				Seed:    1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.OPS, "sim-ops/s")
			b.ReportMetric(res.BytesPerOp(), "SAN-B/op")
			b.ReportMetric(float64(res.Keys), "live-keys")
		})
	}
}

// BenchmarkReadScale is the read-scaling acceptance cell: the read-heavy
// mix on a K=3 QuorumSafe group with group commit, once per read mode.
// The primary sub-bench is the baseline (all reads serialized through the
// primary); ryw/bounded/quorum route reads to backup views, and the
// reported sim-ops/s uses the replica-aware wall clock (primary and read-
// serving backups run in parallel). RunKV's built-in staleness audit
// feeds stale-read-violations, which `benchjson -check` requires to be
// exactly zero — every replica-served read must honor its mode's
// advertised bound. `make bench` parses these into BENCH_readscale.json.
func BenchmarkReadScale(b *testing.B) {
	const db = 8 << 20
	for _, mode := range []string{"primary", "ryw", "bounded", "quorum"} {
		b.Run(mode, func(b *testing.B) {
			c, err := repro.New(repro.Config{
				Version:     repro.V3InlineLog,
				Backup:      repro.ActiveBackup,
				DBSize:      db,
				Backups:     3,
				Safety:      repro.QuorumSafe,
				CommitBatch: 96,
			})
			if err != nil {
				b.Fatal(err)
			}
			res, err := tpc.RunKV(c, tpc.KVOptions{
				Mix:            tpc.MixReadHeavy,
				Records:        2000,
				Ops:            int64(b.N),
				Warmup:         200,
				Seed:           1,
				ReadMode:       mode,
				StalenessBound: 128,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.OPS, "sim-ops/s")
			b.ReportMetric(3, "replicas")
			b.ReportMetric(float64(res.StaleViolations), "stale-read-violations")
			b.ReportMetric(float64(res.ReplicaReads), "replica-reads")
			b.ReportMetric(float64(res.PrimaryReads), "primary-reads")
		})
	}
}

// BenchmarkDurability runs the full-cluster kill-and-restart drill of
// the disk tier at three snapshot intervals: commit a seeded workload,
// power-fail every machine at once, tear the unsynced WAL tails (seeded
// mixed mode), and cold-restart over the same directory. Reported per
// interval: host wall time to recover, WAL records replayed on top of
// the winning snapshot, and — the enforced invariant — lost acked
// writes, which `benchjson -check` requires to be exactly zero.
// `make bench` parses these into BENCH_durability.json.
func BenchmarkDurability(b *testing.B) {
	const db = 4 << 20
	for _, every := range []int{32, 128, 512} {
		b.Run(fmt.Sprintf("snap%d", every), func(b *testing.B) {
			var res tpc.DurabilityResult
			for b.Loop() {
				dir := b.TempDir()
				open := func() (tpc.FaultDB, error) {
					return repro.New(repro.Config{
						Version:     repro.V3InlineLog,
						Backup:      repro.ActiveBackup,
						DBSize:      db,
						Backups:     2,
						Safety:      repro.QuorumSafe,
						CommitBatch: 8,
						Durability: repro.DurabilityConfig{
							Dir:           dir,
							SnapshotEvery: every,
						},
					})
				}
				w, err := tpc.NewDebitCredit(db)
				if err != nil {
					b.Fatal(err)
				}
				res, err = tpc.RunDurability(open, w, tpc.DurabilityOptions{
					Txns: 240,
					Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.RecoveryWall.Seconds()*1e3, "recovery-ms")
			b.ReportMetric(float64(res.Replayed), "replayed-records")
			b.ReportMetric(float64(res.LostAckedWrites), "lost-acked-writes")
		})
	}
}

// BenchmarkObs prices the observability layer where it matters: the K=3
// quorum batch-16 Debit-Credit commit path with the registry detached
// (commit-bare) and attached (commit-instrumented) — the acceptance
// bound is instrumented sim-tps within 5% of bare — and the wall-clock
// cost of one full Metrics() scrape against hot instruments and a
// populated event ring. Every cell reports metric-names (the registered
// instruments visible in the snapshot: zero bare, the full catalog
// instrumented), which `benchjson -check` requires in BENCH_obs.json.
func BenchmarkObs(b *testing.B) {
	const db = 8 << 20
	build := func(b *testing.B, metrics bool) (*repro.Cluster, func(int64)) {
		c, err := repro.New(repro.Config{
			Version:     repro.V3InlineLog,
			Backup:      repro.ActiveBackup,
			DBSize:      db,
			Backups:     3,
			Safety:      repro.QuorumSafe,
			CommitBatch: 16,
			Metrics:     metrics,
		})
		if err != nil {
			b.Fatal(err)
		}
		w, err := tpc.NewDebitCredit(db)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Populate(c.Load); err != nil {
			b.Fatal(err)
		}
		r := tpc.NewRand(1)
		return c, func(i int64) {
			tx, err := c.Begin()
			if err != nil {
				b.Fatal(err)
			}
			if err := w.Txn(r, tx, i); err != nil {
				b.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, metrics := range []bool{false, true} {
		name := "commit-bare"
		if metrics {
			name = "commit-instrumented"
		}
		b.Run(name, func(b *testing.B) {
			c, txn := build(b, metrics)
			for i := int64(0); i < 200; i++ {
				txn(i)
			}
			if err := c.Flush(); err != nil {
				b.Fatal(err)
			}
			c.Settle()
			c.ResetMeasurement()
			b.ResetTimer()
			for i := int64(0); i < int64(b.N); i++ {
				txn(200 + i)
			}
			if err := c.Flush(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if sec := c.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(b.N)/sec, "sim-tps")
			}
			b.ReportMetric(float64(len(c.Metrics().Names())), "metric-names")
		})
	}
	b.Run("scrape", func(b *testing.B) {
		c, txn := build(b, true)
		for i := int64(0); i < 500; i++ {
			txn(i)
		}
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
		c.Settle()
		// A failover and a repair put a realistic trace in the ring.
		if err := c.CrashPrimary(); err != nil {
			b.Fatal(err)
		}
		if err := c.Failover(); err != nil {
			b.Fatal(err)
		}
		if err := c.Repair(); err != nil {
			b.Fatal(err)
		}
		var snap repro.Metrics
		b.ResetTimer()
		for b.Loop() {
			snap = c.Metrics()
		}
		b.StopTimer()
		b.ReportMetric(float64(len(snap.Names())), "metric-names")
		b.ReportMetric(float64(len(snap.Events)), "ring-events")
	})
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
