package repro_test

import (
	"fmt"
	"log"

	"repro"
)

// ExampleNew opens a replicated transaction store, commits a transaction,
// crashes the primary with a second transaction still open, fails over, and
// reads the committed bytes back from the promoted backup.
func ExampleNew() {
	// The paper's best design: the inline undo log (Version 3) locally,
	// and an active backup consuming a redo log.
	cluster, err := repro.New(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  8 << 20,
	})
	if err != nil {
		log.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}

	// The RVM-style API: declare the range, write in place, commit.
	tx, err := cluster.Begin()
	if err != nil {
		log.Fatal(err)
	}
	must(tx.SetRange(0, 32))
	must(tx.Write(0, []byte("hello, primary-backup cluster!\n")))
	must(tx.Commit())

	// Give the SAN a quiet microsecond to drain: a crash in the instant
	// after a commit can lose that commit (the paper's 1-safe window).
	cluster.Settle()

	// An uncommitted transaction, doomed by the crash below.
	tx, err = cluster.Begin()
	if err != nil {
		log.Fatal(err)
	}
	must(tx.SetRange(64, 16))
	must(tx.Write(64, []byte("never committed")))

	// The primary dies; the backup takes over with exactly the committed
	// state.
	must(cluster.CrashPrimary())
	must(cluster.Failover())

	got := make([]byte, 32)
	cluster.ReadRaw(0, got)
	fmt.Printf("committed data : %q\n", got)
	lost := make([]byte, 16)
	cluster.ReadRaw(64, lost)
	fmt.Printf("rolled back    : %q\n", lost)
	fmt.Printf("committed txns : %d\n", cluster.Committed())
	// Output:
	// committed data : "hello, primary-backup cluster!\n\x00"
	// rolled back    : "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
	// committed txns : 1
}
