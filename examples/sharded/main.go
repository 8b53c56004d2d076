// Example sharded: a sharded cluster of quorum-commit replica groups.
//
// The database is striped across four shards; each shard is an independent
// replica group with one primary and three active backups committing under
// quorum safety (2 of 3 backup acks). The demo shows the two headline
// properties of the design:
//
//  1. Throughput scales with the shard count: the shards run on disjoint
//     simulated hardware, so the aggregate rate is the sum.
//  2. A quorum-acked commit survives the simultaneous crash of a shard's
//     primary AND one of its backups, with zero loss and no settling
//     grace — while the other shards keep serving undisturbed.
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro"
)

const (
	dbSize  = 16 << 20
	shards  = 4
	backups = 3
	txns    = 2000
)

func main() {
	cfg := repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  dbSize,
		Backups: backups,
		Safety:  repro.QuorumSafe,
	}

	fmt.Printf("== sharded cluster: %d shards x (1 primary + %d backups), %s commit ==\n\n",
		shards, backups, cfg.Safety)

	// --- 1. Throughput scales with the shard count. ---
	for _, n := range []int{1, shards} {
		sc, err := repro.NewSharded(cfg, n)
		if err != nil {
			log.Fatal(err)
		}
		drive(sc, txns)
		tps := float64(txns) / sc.Elapsed().Seconds()
		fmt.Printf("%d shard(s): %6d commits in %8v simulated  =>  %9.0f txn/s aggregate\n",
			n, txns, sc.Elapsed(), tps)
	}

	// --- 2. Quorum commit survives primary + one backup dying. ---
	sc, err := repro.NewSharded(cfg, shards)
	if err != nil {
		log.Fatal(err)
	}
	drive(sc, txns)
	committedBefore := sc.Committed()
	victim := 1
	fmt.Printf("\ncrashing shard %d's primary AND backup 0 (no settling)...\n", victim)
	if err := sc.Shard(victim).CrashPrimary(); err != nil {
		log.Fatal(err)
	}
	if err := sc.Shard(victim).CrashBackup(0); err != nil {
		log.Fatal(err)
	}

	// The other shards never notice.
	tx, err := sc.Shard(0).Begin()
	if err != nil {
		log.Fatal(err)
	}
	check(tx.SetRange(0, 8))
	check(tx.Write(0, []byte("healthy!")))
	check(tx.Commit())
	fmt.Println("shard 0 committed a transaction while shard 1 was down")

	// Failover promotes the most-caught-up surviving backup.
	if err := sc.Shard(victim).Failover(); err != nil {
		log.Fatal(err)
	}
	if got := sc.Committed(); got != committedBefore+1 {
		log.Fatalf("lost commits: %d before the crash, %d after failover", committedBefore, got-1)
	}
	fmt.Printf("failover done: all %d quorum-acked commits survived (zero loss)\n", committedBefore)

	// Verify a spot value on the recovered shard, then repair it back to
	// full redundancy and keep going.
	// Transaction i=victim was the shard's first write: fill byte i%250+1.
	buf := make([]byte, 8)
	sc.ReadRaw(victim*sc.ShardSize(), buf)
	want := bytes.Repeat([]byte{byte(victim%250 + 1)}, 8)
	if !bytes.Equal(buf, want) {
		log.Fatalf("recovered shard serves wrong bytes: %v, want %v", buf, want)
	}
	if err := sc.Shard(victim).Repair(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shard %d repaired: %d backups enrolled again, cluster at full degree\n",
		victim, sc.Shard(victim).Backups())

	tr := sc.NetTraffic()
	fmt.Printf("\nSAN traffic across all shards: %d KB modified, %d KB meta\n",
		tr.ModifiedBytes>>10, tr.MetaBytes>>10)
}

// drive spreads slot-writes round-robin across the shards: transaction i
// writes 64 bytes into shard i%N.
func drive(sc *repro.ShardedCluster, n int) {
	sc.ResetMeasurement()
	for i := 0; i < n; i++ {
		shard := i % sc.Shards()
		slot := i / sc.Shards() % (sc.ShardSize() / 64)
		off := shard*sc.ShardSize() + slot*64
		tx, err := sc.Begin()
		if err != nil {
			log.Fatal(err)
		}
		check(tx.SetRange(off, 64))
		check(tx.Write(off, bytes.Repeat([]byte{byte(i%250 + 1)}, 64)))
		check(tx.Commit())
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
