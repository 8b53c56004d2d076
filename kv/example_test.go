package kv_test

import (
	"errors"
	"fmt"
	"log"

	"repro"
	"repro/kv"
)

// ExampleOpen formats a store inside a quorum-commit replica group, streams
// writes into it, crashes the primary mid-stream, fails over, re-opens the
// store on the promoted backup, and audits it: every acknowledged Put is
// present with its exact value, because the index and the records live in
// the replicated bytes and every mutation rode the paper's commit path.
func ExampleOpen() {
	const keys, crashAfter = 2_000, 1_234
	key := func(i int) []byte { return []byte(fmt.Sprintf("user%08d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("profile-%d-v1", i*31)) }

	// A primary and two backups at quorum commit: an acked write survives
	// the loss of the primary plus any minority of backups.
	db, err := repro.New(repro.Config{
		Version: repro.V3InlineLog,
		Backup:  repro.ActiveBackup,
		DBSize:  4 << 20,
		Backups: 2,
		Safety:  repro.QuorumSafe,
	})
	if err != nil {
		log.Fatal(err)
	}
	store, err := kv.Open(db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("formatted: %d slots, %d buckets\n", store.Slots(), store.Buckets())

	for i := 0; i < crashAfter; i++ {
		if err := store.Put(key(i), val(i)); err != nil {
			log.Fatalf("put %d: %v", i, err)
		}
	}
	if err := db.CrashPrimary(); err != nil {
		log.Fatal(err)
	}
	// The store refuses on a dead primary; fail over and re-open it.
	if _, err := store.Get(key(0)); err == nil {
		log.Fatal("store kept serving on a dead primary")
	}
	if err := db.Failover(); err != nil {
		log.Fatal(err)
	}
	if store, err = kv.Open(db); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered: %d live keys\n", store.Len())

	missing, wrong := 0, 0
	for i := 0; i < crashAfter; i++ {
		got, err := store.Get(key(i))
		switch {
		case errors.Is(err, kv.ErrNotFound):
			missing++
		case err != nil:
			log.Fatal(err)
		case string(got) != string(val(i)):
			wrong++
		}
	}
	fmt.Printf("audit: %d acked, %d missing, %d corrupt\n", crashAfter, missing, wrong)

	// Heal the group back to two backups and finish the stream.
	if err := db.Repair(); err != nil {
		log.Fatal(err)
	}
	for i := crashAfter; i < keys; i++ {
		if err := store.Put(key(i), val(i)); err != nil {
			log.Fatalf("put %d: %v", i, err)
		}
	}
	fmt.Printf("resumed: %d live keys, %d backups\n", store.Len(), db.Backups())
	// Output:
	// formatted: 15344 slots, 32768 buckets
	// recovered: 1234 live keys
	// audit: 1234 acked, 0 missing, 0 corrupt
	// resumed: 2000 live keys, 2 backups
}
