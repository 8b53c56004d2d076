// KV: the replicated key-value layer end to end — a typed keyspace laid
// out inside the replicated database bytes, driven through the one DB
// interface. The program opens a kv store over a quorum-commit replica
// group, streams writes into it, kills the primary mid-stream, fails
// over, re-Opens the store on the promoted survivor, and audits it:
// every acknowledged Put is present with its exact value — zero loss —
// because the index and records live in the replicated bytes and every
// mutation rode the same commit path the paper's transactions do.
package main

import (
	"errors"
	"fmt"
	"log"

	"repro"
	"repro/kv"
)

const (
	keys      = 2_000
	crashWhen = 1_234 // acked puts before the primary dies
)

func key(i int) []byte { return []byte(fmt.Sprintf("user%08d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("profile-%d-v1", i*31)) }

func main() {
	// A 3-node group (primary + 2 backups) at quorum commit: an acked
	// write survives the loss of the primary plus any minority of
	// backups. Everything below sees only repro.DB — swap in NewSharded
	// and nothing changes.
	var db repro.DB
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
	fmt.Printf("kv store formatted inside the replicated bytes: %d slots, %d buckets\n",
		store.Slots(), store.Buckets())

	// Stream the keyspace in; the primary dies mid-stream.
	acked := 0
	for i := 0; i < keys; i++ {
		if i == crashWhen {
			fmt.Printf("\n*** crashing the primary after %d acked puts ***\n", acked)
			if err := db.(repro.Admin).CrashPrimary(); err != nil {
				log.Fatal(err)
			}
			break
		}
		if err := store.Put(key(i), val(i)); err != nil {
			log.Fatalf("put %d: %v", i, err)
		}
		acked++
	}

	// The dead store refuses; fail over and re-open the survivor.
	if _, err := store.Get(key(0)); err == nil {
		log.Fatal("store kept serving on a dead primary")
	}
	admin := db.(repro.Admin)
	if err := admin.Failover(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("failed over to the most-caught-up backup")
	store, err = kv.Open(db)
	if err != nil {
		log.Fatalf("kv.Open on the survivor: %v", err)
	}
	fmt.Printf("kv.Open recovered the index from the replicated bytes: %d live keys\n", store.Len())

	// Audit: every acked put is present, byte for byte.
	missing, wrong := 0, 0
	for i := 0; i < acked; i++ {
		got, err := store.Get(key(i))
		switch {
		case errors.Is(err, kv.ErrNotFound):
			missing++
		case err != nil:
			log.Fatalf("audit get %d: %v", i, err)
		case string(got) != string(val(i)):
			wrong++
		}
	}
	fmt.Printf("audit: %d acked keys, %d missing, %d corrupt\n", acked, missing, wrong)
	if missing != 0 || wrong != 0 {
		log.Fatal("FAILED: quorum-acked writes were lost")
	}

	// The recovered store is fully writable; heal the group back to its
	// configured degree while writing.
	if err := admin.Repair(); err != nil {
		log.Fatal(err)
	}
	for i := acked; i < keys; i++ {
		if err := store.Put(key(i), val(i)); err != nil {
			log.Fatalf("post-recovery put %d: %v", i, err)
		}
	}
	fmt.Printf("resumed the stream on the new primary: %d live keys, %d backups\n",
		store.Len(), admin.Backups())
	fmt.Println("OK: zero acknowledged writes lost across crash, failover and recovery")
}
