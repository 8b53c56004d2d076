// Chaos, unattended: one primary, two backups and one spare run under the
// autopilot. Mid-workload the primary is killed — and nothing else is done.
// No Failover call, no Repair call: the heartbeat detector declares the
// primary dead, the most-caught-up backup is promoted under the lease rule,
// the crashed primary re-joins from its own memory through the online-repair
// engine (the spare stays on the shelf), and commits resume.
// The program prints the cluster's own account of the incident (detection
// latency, failover latency, repair duration, time-to-restored) and proves
// the committed prefix survived.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"time"

	"repro"
)

const (
	slots   = 4_096
	recSize = 32
	dbSize  = slots * recSize
)

func main() {
	cluster, err := repro.New(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  dbSize,
		Backups: 2, // 1 primary + 2 backups
		Autopilot: repro.AutopilotConfig{
			HeartbeatPeriod: 50 * time.Microsecond,
			SuspectTimeout:  200 * time.Microsecond,
			AutoFailover:    true,
			AutoRepair:      true,
			Spares:          1, // + 1 spare on the shelf
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	commit := func(i uint64) {
		tx, err := cluster.Begin()
		if err != nil {
			log.Fatalf("txn %d: %v", i, err)
		}
		slot := int(i % slots)
		var rec [recSize]byte
		binary.LittleEndian.PutUint64(rec[:], i)
		must(tx.SetRange(slot*recSize, recSize))
		must(tx.Write(slot*recSize, rec[:]))
		must(tx.Commit())
	}

	fmt.Println("phase 1: healthy workload on primary + 2 backups (autopilot on)")
	var txns uint64
	for ; txns < 3_000; txns++ {
		commit(txns)
	}
	cluster.Settle()
	before := cluster.Committed()
	fmt.Printf("  committed=%d backups=%d generation=%d\n\n", before, cluster.Backups(), cluster.Generation())

	fmt.Println("phase 2: kill the primary mid-workload — and do nothing about it")
	must(cluster.CrashPrimary())
	commit(txns) // this Begin performs detection + takeover itself
	txns++

	// The promoted primary serves the committed prefix: check the last
	// pre-crash transaction before the wrapping workload overwrites it.
	var rec [recSize]byte
	cluster.ReadRaw(int(before-1)%slots*recSize, rec[:])
	if got := binary.LittleEndian.Uint64(rec[:]); got != before-1 {
		log.Fatalf("pre-crash commit lost in takeover: slot holds txn %d, want %d", got, before-1)
	}

	for end := txns + 3_000; txns < end; txns++ {
		commit(txns)
		if txns%100 == 0 {
			cluster.Settle() // idle time streams any state transfer still due
		}
	}
	for cluster.RepairProgress().Active {
		commit(txns)
		txns++
		cluster.Settle()
	}
	fmt.Printf("  committed=%d backups=%d generation=%d (no Failover/Repair call was made)\n\n",
		cluster.Committed(), cluster.Backups(), cluster.Generation())

	fmt.Println("phase 3: the cluster's own incident report")
	for _, ev := range cluster.AutopilotEvents() {
		fmt.Printf("  %-7s %-9s detected in %7.1fus  failover %6.1fus  repair %6.2fms  restored in %6.2fms\n",
			ev.Kind, ev.Node,
			ev.MTTD().Seconds()*1e6,
			ev.FailoverLatency().Seconds()*1e6,
			ev.RepairDuration().Seconds()*1e3,
			ev.MTTR().Seconds()*1e3)
	}

	if cluster.Generation() != 1 || cluster.Backups() != 2 {
		log.Fatalf("cluster did not heal itself: generation=%d backups=%d",
			cluster.Generation(), cluster.Backups())
	}
	fmt.Printf("\npre-crash txn %d verified on the promoted primary; redundancy restored unattended\n", before-1)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
